"""Single-node columnar engine — the "SQL Server" of this reproduction.

DuckDB plays SQL Server's role from §7.1.2: a single-node vectorized
columnstore engine with a configurable degree of parallelism
(``SET threads`` ~ DOP). Two execution paths:

- :meth:`SqlServerSim.run_predict_statement` — the *un-optimized* baseline:
  the relational part runs as SQL, result batches stream into the ML
  runtime (our ONNX-Runtime substitute), mirroring SQL Server's PREDICT
  that invokes ONNX Runtime per batch.
- :meth:`SqlServerSim.run_raven_sql` — Raven's output: the whole optimized
  prediction query (including the MLtoSQL-translated model) as one SQL
  statement the engine plans end-to-end.
- :meth:`SqlServerSim.run_raven_predict` — an optimized plan whose runtime
  is not SQL: the PREDICT path over the pruned columns, into the MLtoDNN
  model for ``dnn`` and the ML runtime for ``none``.

Per the paper's protocol, prediction queries on this engine end in an
aggregate over the predictions (``GROUP BY prediction``), so timings don't
measure result shipping.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import duckdb
import numpy as np
import pandas as pd

from repro.core.ml2sql import data_select_sql, output_filter_sql, prediction_column_sql
from repro.core.optimizer import PhysicalPlan
from repro.core.query import PredictionQuery
from repro.ir.graph import Pipeline
from repro.runtime import onnx_rt
from repro.runtime.dnn_rt import compile_to_dnn

PREDICT_BATCH_ROWS = 10_000


@dataclass
class EngineResult:
    agg: pd.DataFrame  # prediction -> count
    seconds: float


class SqlServerSim:
    """DuckDB-backed engine; ``threads`` models the paper's DOP1/DOP16."""

    def __init__(self, tables: dict[str, pd.DataFrame], threads: int = 16):
        self.con = duckdb.connect()
        self.con.execute(f"SET threads TO {threads}")
        for name, pdf in tables.items():
            # materialize into native columnar storage (clustered
            # columnstore stand-in) rather than scanning pandas views
            self.con.register(f"_src_{name}", pdf)
            self.con.execute(f"CREATE TABLE {name} AS SELECT * FROM _src_{name}")
            self.con.unregister(f"_src_{name}")

    def close(self) -> None:
        self.con.close()

    # -- un-optimized PREDICT path --------------------------------------
    def run_predict_statement(
        self, query: PredictionQuery, pipeline: Pipeline
    ) -> EngineResult:
        return self._predict_batches(
            query, pipeline.input_cols, lambda pdf: onnx_rt.run(pipeline, pdf)[0]
        )

    def _predict_batches(self, query: PredictionQuery, cols, predict) -> EngineResult:
        """Stream the query's rows in batches into ``predict(pdf) -> labels``."""
        sql = data_select_sql(query, list(cols))
        t0 = time.perf_counter()
        reader = self.con.execute(sql).fetch_record_batch(PREDICT_BATCH_ROWS)
        counts: dict[int, int] = {}
        for batch in reader:
            label = predict(batch.to_pandas())
            if query.output_filter is not None:
                label = label[label == int(query.output_filter[1])]
            for k, c in zip(*np.unique(label, return_counts=True)):
                counts[int(k)] = counts.get(int(k), 0) + int(c)
        seconds = time.perf_counter() - t0
        agg = pd.DataFrame(
            {"prediction": list(counts), "n": list(counts.values())}
        ).sort_values("prediction").reset_index(drop=True)
        return EngineResult(agg, seconds)

    # -- Raven-optimized single-statement path --------------------------
    def run_raven_sql(self, plan: PhysicalPlan) -> EngineResult:
        assert plan.runtime == "sql" and plan.sql is not None
        inner = data_select_sql(plan.query, list(plan.input_cols))
        # labels only: with the score beside it, DuckDB evaluates a tree's
        # CASE more often (Credit Card DT: 0.21 s against 0.19 s)
        sql = (
            "SELECT prediction, COUNT(*) AS n FROM (SELECT "
            f"{prediction_column_sql(plan.sql)} FROM ({inner}))"
        )
        if plan.query.output_filter is not None:
            sql += " WHERE " + output_filter_sql(plan.query.output_filter)
        sql += " GROUP BY 1 ORDER BY 1"
        t0 = time.perf_counter()
        agg = self.con.execute(sql).fetchdf()
        return EngineResult(agg, time.perf_counter() - t0)

    # -- Raven plan that still needs a runtime ----------------------------
    def run_raven_predict(
        self, plan: PhysicalPlan
    ) -> EngineResult:
        """Raven logical opts applied, column-pruned scan into the plan's
        runtime: the MLtoDNN model for ``dnn``, the ML runtime otherwise."""
        if plan.runtime == "dnn":
            dnn = compile_to_dnn(plan.pipeline)
            return self._predict_batches(
                plan.query, plan.input_cols, lambda pdf: dnn.predict(pdf)[0]
            )
        return self.run_predict_statement(plan.query, plan.pipeline)
