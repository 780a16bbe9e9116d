"""Prediction-query benchmark: one workload per run.

    python3 perfbench/run.py --workload hospital_udf --seed 1 --seconds 4 --trace 0

Run from the root of a checkout. The run builds its inputs from ``--seed``,
sets up the engine, replays the workload's PREDICT query stream from one
client for ``--seconds`` and checks every result against an oracle. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the
per-layer split. The last line of standard output is one JSON object;
perfbench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything a run writes lives here (listed in the root .gitignore)
WORK = os.path.join(ROOT, ".perfbench_work")

#: the keys of harness.WORKLOADS; harness can only be imported once the
#: environment is prepared, after the arguments are parsed
WORKLOAD_NAMES = ("hospital_udf", "hospital_sql", "flights_star", "creditcard_duckdb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def prepare_environment(run_dir: str) -> None:
    """Must run before pyspark or repro is imported: the model cache path is
    read at import, and the Spark JVM and its Python workers inherit the
    environment when they start."""
    for sub in ("model_cache", "tmp", "spark", "warehouse"):
        os.makedirs(os.path.join(run_dir, sub))
    # an empty cache the run owns, so no stale or corrupt cached model
    # is ever read and set-up always includes training
    os.environ["REPRO_MODEL_CACHE"] = os.path.join(run_dir, "model_cache")
    os.environ["PERFBENCH_RUN_DIR"] = run_dir
    os.environ["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(run_dir, "spark")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Spark's Python workers import repro (and this directory's modules)
    # without an installed package
    paths = [SRC, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(":") if p]
    os.environ["PYTHONPATH"] = ":".join(paths)
    sys.path[:0] = [SRC, HERE]


def main(argv=None, before_run=None) -> dict:
    """Runs one workload and prints its report; ``before_run`` is called
    once the environment is prepared, just before the run (a test hook)."""
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no repro package under {SRC}; run from a full checkout")
    run_dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    prepare_environment(run_dir)
    try:
        import harness

        if before_run is not None:
            before_run()
        out_prefix = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             T_START, out_prefix)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("# environment " + json.dumps(detail["environment"], default=str))
    for s in detail["shapes"]:
        print(f"# shape {s['name']}: qualifying={s['qualifying']} {s['sql']}")
    print(f"# queries={detail['queries']} error_rate={detail['error_rate']:.6f}"
          f" oracle_s={detail['setup_oracle_s']:.3f}"
          + (f" query_s_p90={detail['query_s_p90']:.6f} s"
             if detail["query_s_p90"] is not None else " query_s_p90=n/a (<100 queries)"))
    for f in detail["failures"]:
        print(f"# FAILED {f['shape']}: {f['reason']}: {f['sql']}")
    for k, m in detail["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    return detail


if __name__ == "__main__":
    detail = main()
    failed = len(detail["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": detail["queries"],
        "failed": failed,
        "metrics": detail["metrics"],
    }))
