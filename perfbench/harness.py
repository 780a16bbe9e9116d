"""Set-up, closed query loop, output check and per-layer probes of one
workload run. ``run.py`` prepares the process environment and calls
:func:`run`; everything here runs inside one process.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.ml2sql import compile_to_sql
from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.parser import parse_prediction_query
from repro.core.predicate_pruning import apply_predicate_pruning, tree_ensemble_size
from repro.core.projection_pushdown import apply_projection_pushdown
from repro.data import datasets as ds
from repro.experiments import common
from repro.ir.graph import node_width
from repro.runtime import onnx_rt
from repro.sqlserver.engine import PREDICT_BATCH_ROWS, SqlServerSim, data_select_sql

import streams
from spans import Tracer

#: rounds of the query stream a loop runs at least, so that a median never
#: rests on one or two queries per shape
MIN_ROUNDS = 3
#: the onnx_rt probe runs this many batches of the paper's 10k-row size
PROBE_BATCHES = 3


@dataclass(frozen=True)
class Workload:
    dataset: str
    rows: int
    #: registered model name -> (model kind, pinned runtime)
    models: dict[str, tuple[str, str]]
    #: "spark" runs RavenSession on Spark; "duckdb" runs SqlServerSim
    engine: str
    shapes: Callable


# Hospital runs at 1/4 of common.BENCH_ROWS (400k): at full size one Arrow
# UDF query takes ~4 s on 4 cores, and a run must fit set-up plus three rounds
# of its query stream in well under a minute. Flights and Credit Card keep
# BENCH_ROWS.
WORKLOADS = {
    "hospital_udf": Workload(
        "hospital", 100_000, {"gb": ("gb", "none")}, "spark", streams.hospital_shapes),
    "hospital_sql": Workload(
        "hospital", 100_000, {"dt": ("dt", "sql"), "gb": ("gb", "sql")}, "spark",
        streams.hospital_shapes),
    "flights_star": Workload(
        "flights", common.BENCH_ROWS["flights"], {"dt": ("dt", "none")}, "spark",
        streams.flights_shapes),
    "creditcard_duckdb": Workload(
        "creditcard", common.BENCH_ROWS["creditcard"],
        {"lr": ("lr", "sql"), "dt": ("dt", "sql"), "gb": ("gb", "none")}, "duckdb",
        streams.creditcard_shapes),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def mem_total_gib() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / (1 << 20)
    raise RuntimeError("no MemTotal in /proc/meminfo")


def spark_driver_memory() -> str:
    """Half the machine's memory, clamped to 2..4 GiB."""
    return f"{min(4, max(2, int(mem_total_gib() / 2)))}g"


# ----------------------------------------------------------------------
# Spark
# ----------------------------------------------------------------------
def start_spark():
    """Local Spark with the Tier-1 fixture's settings (Arrow on, shuffle
    joins forced by ``autoBroadcastJoinThreshold=-1``, 64 shuffle
    partitions) and ``local[nproc]``."""
    from pyspark.sql import SparkSession

    work = os.environ["PERFBENCH_RUN_DIR"]
    return (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{nproc()}]")
        .config("spark.driver.memory", spark_driver_memory())
        .config("spark.driver.host", "127.0.0.1")
        # no hsperfdata file in /tmp: the run writes inside its checkout only
        .config("spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={work}/tmp -XX:-UsePerfData")
        .config("spark.local.dir", f"{work}/spark")
        .config("spark.sql.warehouse.dir", f"{work}/warehouse")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit (the JVM ends on EOF of
    the stdin pipe PySpark opened to it)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=120)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, t0, time.perf_counter()


def cache_tables(spark, tables) -> dict:
    catalog = {}
    for name, pdf in tables.items():
        df = spark.createDataFrame(pdf).cache()
        df.count()  # materialize so queries never pay the upload
        catalog[name] = df
    return catalog


def _label_counts():
    from pyspark.sql import functions as F

    return [F.count_if(F.col("prediction") == k).alias(str(k)) for k in (0, 1)]


# ----------------------------------------------------------------------
# One query, per engine
# ----------------------------------------------------------------------
def _optimizer_counts(span, query, plan) -> None:
    if span is not None:
        span.counts.update(
            tree_nodes_in=tree_ensemble_size(query.pipeline),
            tree_nodes_out=tree_ensemble_size(plan.pipeline),
            inputs_in=len(query.pipeline.input_cols),
            inputs_out=len(plan.input_cols),
            joins_eliminated=len(plan.eliminated_joins),
        )


class SparkQueries:
    """``RavenSession.sql`` + ``spark_exec.sink``; per-label counts come back
    through a Spark ``Observation`` on the sunk DataFrame."""

    def __init__(self, spark, catalog, table_cols, models, runtime: str):
        from repro.core.session import RavenSession

        self.sess = RavenSession(spark, catalog, table_cols,
                                 config=OptimizerConfig(runtime=runtime))
        for name, p in models.items():
            self.sess.register_model(name, p)

    def __call__(self, text: str, tracer: Tracer) -> dict[int, int]:
        from pyspark.sql import Observation

        from repro.runtime import spark_exec

        if tracer.enabled:
            with tracer.span("parser.parse"):
                query = parse_prediction_query(text, self.sess.models, self.sess.table_cols)
            with tracer.span("optimizer.optimize") as s:
                plan = self.sess.optimize(query)
            _optimizer_counts(s, query, plan)
            with tracer.span("spark_exec.execute_plan"):
                df = self.sess.execute_plan(plan)
        else:
            df = self.sess.sql(text)
        obs = Observation()
        df = df.observe(obs, *_label_counts())
        with tracer.span("spark_exec.sink"):
            spark_exec.sink(df)
        return {int(k): int(n) for k, n in obs.get.items()}


class DuckQueries:
    """Parser + optimizer, then ``run_raven_sql`` (runtime sql) or
    ``run_predict_statement`` via ``run_raven_predict`` (runtime none)."""

    def __init__(self, engine: SqlServerSim, table_cols, models, runtimes):
        self.engine = engine
        self.table_cols = table_cols
        self.models = models
        self.configs = {id(models[m]): OptimizerConfig(runtime=rt) for m, rt in runtimes.items()}

    def __call__(self, text: str, tracer: Tracer) -> dict[int, int]:
        with tracer.span("parser.parse"):
            query = parse_prediction_query(text, self.models, self.table_cols)
        with tracer.span("optimizer.optimize") as s:
            plan = RavenOptimizer(self.configs[id(query.pipeline)]).optimize(query)
        _optimizer_counts(s, query, plan)
        with tracer.span("engine.execute"):
            if plan.runtime == "sql":
                res = self.engine.run_raven_sql(plan)
            else:
                res = self.engine.run_raven_predict(plan)
        return {int(k): int(n) for k, n in zip(res.agg["prediction"], res.agg["n"])}


# ----------------------------------------------------------------------
# Closed loop and output check
# ----------------------------------------------------------------------
@dataclass
class QueryRecord:
    shape: int
    seconds: float
    counts: dict[int, int] | None
    error: str | None = None


def run_round(run_one, texts: list[str], tracer: Tracer) -> list[QueryRecord]:
    """Every shape once, each query sent when the previous one returned."""
    records = []
    for i, text in enumerate(texts):
        t0 = time.perf_counter()
        try:
            with tracer.query():
                counts = run_one(text, tracer)
            err = None
        except Exception as e:  # a failed query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            counts, err = None, f"{type(e).__name__}: {e}"
        records.append(QueryRecord(i, time.perf_counter() - t0, counts, err))
    return records


def closed_loop(run_one, texts: list[str], seconds: float,
                tracers: list[Tracer]) -> list[list[QueryRecord]]:
    """One client replays the stream in whole rounds, so every shape runs
    equally often; a new round starts while less than ``seconds`` have
    passed, and there are at least ``MIN_ROUNDS`` rounds. Each round runs
    once under every tracer in ``tracers``, so rounds with and without
    tracing interleave; returns the records per tracer."""
    out: list[list[QueryRecord]] = [[] for _ in tracers]
    t_end = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < t_end:
        for records, tracer in zip(out, tracers):
            records += run_round(run_one, texts, tracer)
        rounds += 1
    return out


def check_records(records, shapes, texts, expected, exact) -> list[dict]:
    """Untimed pass: every query's per-label counts against the oracle."""
    failures = []
    for r in records:
        reason = r.error or streams.check(r.counts, expected[r.shape], exact[r.shape])
        if reason:
            failures.append({"shape": shapes[r.shape].name, "sql": texts[r.shape],
                             "reason": reason})
    return failures


# ----------------------------------------------------------------------
# Per-layer probes (traced run only)
# ----------------------------------------------------------------------
def feature_bytes(p, rows: int) -> int:
    """Bytes of the intermediates onnx_rt materializes for one batch,
    computed from IR node widths at 8 bytes per value (float64 arrays and
    object pointers alike); the model node itself is excluded."""
    return rows * 8 * sum(
        node_width(p, nid) for nid, n in p.nodes.items() if nid != p.output
    )


def probe_shape(tracer: Tracer, ctx: "Context", shape, text: str, frame) -> None:
    query = parse_prediction_query(text, ctx.models, ctx.table_cols)
    plans = {
        rt: RavenOptimizer(OptimizerConfig(runtime=rt)).optimize(query)
        for rt in ("none", "sql")
    }
    plan = plans[ctx.runtime_of(shape)]

    with tracer.span("predicate_pruning.apply"):
        pruned = apply_predicate_pruning(query.pipeline, query.where)
    with tracer.span("projection_pushdown.apply"):
        apply_projection_pushdown(pruned.pipeline)
    with tracer.span("ml2sql.compile") as s:
        sql = compile_to_sql(plan.pipeline)
    s.counts["expr_chars"] = len(sql.label_sql) + len(sql.score_sql)

    rows = frame.loc[shape.mask(frame), plan.input_cols].head(
        PROBE_BATCHES * PREDICT_BATCH_ROWS)
    for i in range(0, len(rows), PREDICT_BATCH_ROWS):
        batch = rows.iloc[i:i + PREDICT_BATCH_ROWS]
        with tracer.span("onnx_rt.run", rows=len(batch),
                         feature_bytes=feature_bytes(plan.pipeline, len(batch))):
            onnx_rt.run(plan.pipeline, batch)

    probe_spark(tracer, ctx, plan)
    probe_engine(tracer, ctx.engine, plans)


def warm_python_workers(spark) -> None:
    """Starts Spark's Python workers, which the SQL runtime never needs, so
    that no probe of the Arrow hop pays their start-up."""
    from repro.runtime import spark_exec

    n = nproc()
    df = spark.range(0, n, 1, n)
    spark_exec.sink(df.mapInPandas(lambda it: it, schema=df.schema))


def probe_spark(tracer: Tracer, ctx: "Context", plan) -> None:
    """Input plan alone, then an identity ``mapInPandas`` over it (the
    JVM<->Python hop), then the full PREDICT plan."""
    from repro.runtime import spark_exec

    sc = ctx.spark.sparkContext
    batches, rows = sc.accumulator(0), sc.accumulator(0)

    def identity(it):
        for pdf in it:
            batches.add(1)
            rows.add(len(pdf))
            yield pdf

    input_df = spark_exec.build_input_df(ctx.catalog, plan.query, list(plan.input_cols))
    with tracer.span("spark_exec.input_plan"):
        spark_exec.sink(input_df)
    with tracer.span("spark_exec.identity_hop") as hop:
        spark_exec.sink(input_df.mapInPandas(identity, schema=input_df.schema))
    with tracer.span("spark_exec.full_plan", udf=int(plan.runtime != "sql")):
        spark_exec.sink(spark_exec.execute_plan(ctx.catalog, plan))
    hop.counts.update(batches=batches.value, rows=rows.value,
                      partitions=input_df.rdd.getNumPartitions())


def probe_engine(tracer: Tracer, engine: SqlServerSim, plans) -> None:
    plan = plans["none"]
    sql = data_select_sql(plan.query, list(plan.input_cols))
    with tracer.span("engine.select") as s:
        reader = engine.con.execute(sql).fetch_record_batch(PREDICT_BATCH_ROWS)
        n = sum(1 for _ in reader)
    s.counts["batches"] = n
    with tracer.span("engine.predict_stmt"):
        engine.run_raven_predict(plan)
    if plans["sql"].runtime == "sql":
        with tracer.span("engine.raven_sql"):
            engine.run_raven_sql(plans["sql"])


def per_layer_metrics(tracer: Tracer, untraced, traced) -> dict[str, tuple[float, str]]:
    t = tracer
    med = statistics.median
    full = t.named("spark_exec.full_plan")
    inp = t.named("spark_exec.input_plan")
    hop = t.named("spark_exec.identity_hop")
    onnx = t.named("onnx_rt.run")
    setup = {s.name: s.seconds for s in t.spans if s.name.startswith("setup.")}
    return {
        "parser.parse_ms": (1e3 * t.median_s("parser.parse"), "ms"),
        "optimizer.optimize_ms": (1e3 * t.median_s("optimizer.optimize"), "ms"),
        **{
            f"optimizer.{k}": (t.median_count("optimizer.optimize", k), "count")
            for k in ("tree_nodes_in", "tree_nodes_out", "inputs_in", "inputs_out",
                      "joins_eliminated")
        },
        "predicate_pruning.ms": (1e3 * t.median_s("predicate_pruning.apply"), "ms"),
        "projection_pushdown.ms": (1e3 * t.median_s("projection_pushdown.apply"), "ms"),
        "ml2sql.compile_ms": (1e3 * t.median_s("ml2sql.compile"), "ms"),
        "ml2sql.expr_chars": (t.median_count("ml2sql.compile", "expr_chars"), "chars"),
        "spark_exec.input_plan_s": (med(s.seconds for s in inp), "s"),
        "spark_exec.arrow_hop_s": (
            med(h.seconds - i.seconds for h, i in zip(hop, inp)), "s"),
        "spark_exec.predict_s": (
            med(f.seconds - (h if f.counts["udf"] else i).seconds
                for f, h, i in zip(full, hop, inp)), "s"),
        "spark_exec.rows": (t.median_count("spark_exec.identity_hop", "rows"), "count"),
        "spark_exec.partitions": (
            t.median_count("spark_exec.identity_hop", "partitions"), "count"),
        "spark_exec.udf_batches": (
            t.median_count("spark_exec.identity_hop", "batches"), "count"),
        "onnx_rt.batch_ms_p50": (1e3 * t.median_s("onnx_rt.run"), "ms"),
        "onnx_rt.rows_per_s": (
            sum(s.counts["rows"] for s in onnx) / sum(s.seconds for s in onnx), "1/s"),
        "onnx_rt.feature_bytes_per_batch": (
            t.median_count("onnx_rt.run", "feature_bytes"), "bytes"),
        "engine.select_s": (t.median_s("engine.select"), "s"),
        "engine.predict_stmt_s": (t.median_s("engine.predict_stmt"), "s"),
        "engine.raven_sql_s": (t.median_s("engine.raven_sql"), "s"),
        "engine.batches": (t.median_count("engine.select", "batches"), "count"),
        **{f"{k}_s": (v, "s") for k, v in setup.items()},
        "trace.overhead_s": (
            med(r.seconds for r in traced) - med(r.seconds for r in untraced), "s"),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class Context:
    workload: Workload
    tables: dict
    table_cols: dict[str, list[str]]
    models: dict
    spark: object = None
    catalog: dict = field(default_factory=dict)
    engine: SqlServerSim | None = None

    def runtime_of(self, shape) -> str:
        return self.workload.models[shape.model][1]


def end_to_end_metrics(records, expected, setup_s: float) -> dict[str, tuple[float, str]]:
    times = [r.seconds for r in records]
    rows = sum(expected[r.shape].qualifying for r in records)
    return {
        "rows_per_s": (rows / sum(times), "1/s"),
        "query_s_p50": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def environment(ctx: Context) -> dict:
    import duckdb
    import pandas
    import pyarrow

    env = {
        "nproc": nproc(),
        "mem_total_gib": round(mem_total_gib(), 2),
        "python": platform.python_version(),
        "packages": {"numpy": np.__version__, "pandas": pandas.__version__,
                     "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__},
        "duckdb_threads": nproc(),
        "rows": ctx.workload.rows,
    }
    if ctx.spark is not None:
        import pyspark

        env["packages"]["pyspark"] = pyspark.__version__
        env["spark_conf"] = dict(sorted(ctx.spark.sparkContext.getConf().getAll()))
    return env


def run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
        out_prefix: str) -> dict:
    wl = WORKLOADS[name]
    tracer = Tracer(trace)
    spec = ds.get_spec(wl.dataset)
    ctx = Context(wl, {}, {}, {})
    spark_start = None
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            if wl.engine == "spark":
                # the JVM starts while data generation and training run
                # here, as a user preparing tables and models would do
                spark_start = pool.submit(_timed, start_spark)
            with tracer.span("setup.datagen"):
                ctx.tables = ds.generate(wl.dataset, wl.rows, seed=seed)
            ctx.table_cols = {n: [c for c in p.columns if c != ds.LABEL]
                              for n, p in ctx.tables.items()}
            with tracer.span("setup.train"):
                ctx.models = {m: common.dataset_pipeline(wl.dataset, kind)
                              for m, (kind, _) in wl.models.items()}
            if spark_start is not None:
                ctx.spark, t0, t1 = spark_start.result()
                tracer.record("setup.spark_start", t0, t1)
        if wl.engine == "spark":
            with tracer.span("setup.table_cache"):
                ctx.catalog = cache_tables(ctx.spark, ctx.tables)
        if wl.engine == "duckdb":
            with tracer.span("setup.duckdb_load"):
                ctx.engine = SqlServerSim(ctx.tables, threads=nproc())
            run_one = DuckQueries(ctx.engine, ctx.table_cols, ctx.models,
                                  {m: rt for m, (_, rt) in wl.models.items()})
        else:
            runtimes = {rt for _, rt in wl.models.values()}
            (runtime,) = runtimes  # one RavenSession config per Spark workload
            run_one = SparkQueries(ctx.spark, ctx.catalog, ctx.table_cols,
                                   ctx.models, runtime)

        # query stream and oracle: untimed, excluded from setup_s
        t_oracle = time.perf_counter()
        frame = streams.joined(spec, ctx.tables)
        rng = np.random.default_rng(seed)
        shapes = wl.shapes(rng, spec, frame, list(wl.models))
        texts = [s.sql(spec) for s in shapes]
        expected = [streams.oracle(s, ctx.models[s.model], frame) for s in shapes]
        exact = [ctx.runtime_of(s) == "none" for s in shapes]
        oracle_s = time.perf_counter() - t_oracle

        with tracer.span("setup.warmup"):
            for text in texts:
                run_one(text, Tracer(False))
        setup_s = time.perf_counter() - t_start - oracle_s

        if not trace:
            (records,) = closed_loop(run_one, texts, seconds, [tracer])
            metrics = end_to_end_metrics(records, expected, setup_s)
        else:
            untraced, traced = closed_loop(run_one, texts, seconds, [Tracer(False), tracer])
            records = untraced + traced
            # the layers the workload's own engine does not use are probed
            # on the same tables, so every layer is measured on every workload
            if ctx.spark is None:
                with tracer.span("setup.spark_start"):
                    ctx.spark = start_spark()
                with tracer.span("setup.table_cache"):
                    ctx.catalog = cache_tables(ctx.spark, ctx.tables)
            if ctx.engine is None:
                with tracer.span("setup.duckdb_load"):
                    ctx.engine = SqlServerSim(ctx.tables, threads=nproc())
            warm_python_workers(ctx.spark)
            for shape, text in zip(shapes, texts):
                probe_shape(tracer, ctx, shape, text, frame)
            metrics = per_layer_metrics(tracer, untraced, traced)
            tracer.dump(out_prefix + ".spans.json")

        failures = check_records(records, shapes, texts, expected, exact)
        times = [r.seconds for r in records]
        detail = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "environment": environment(ctx),
            "shapes": [{"name": s.name, "sql": t, "qualifying": e.qualifying,
                        "expected": e.counts} for s, t, e in zip(shapes, texts, expected)],
            "queries": len(records),
            "query_s": [[shapes[r.shape].name, r.seconds] for r in records],
            "shape_s_p50": {s.name: statistics.median(
                r.seconds for r in records if r.shape == i) for i, s in enumerate(shapes)},
            # a p90 needs at least 10 samples beyond it
            "query_s_p90": (statistics.quantiles(times, n=10)[-1]
                            if len(times) >= 100 else None),
            "error_rate": len(failures) / len(records),
            "failures": failures,
            "setup_oracle_s": oracle_s,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        with open(out_prefix + ".json", "w") as f:
            json.dump(detail, f, indent=1, default=str)
        return detail
    finally:
        if ctx.engine is not None:
            ctx.engine.close()
        if ctx.spark is None and spark_start is not None and not spark_start.exception():
            ctx.spark = spark_start.result()[0]
        if ctx.spark is not None:
            stop_spark(ctx.spark)
