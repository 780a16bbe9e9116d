"""Self-test of the benchmark's output check: with a planted wrong oracle,
every query must count as failed.

    python3 perfbench/selftest.py

Runs the Credit Card workload (no Spark) for one second with every expected
label count shifted past any allowed slack, and exits non-zero unless ``error_rate > 0``.
"""
from __future__ import annotations

import sys

import run


def plant_wrong_oracle() -> None:
    import streams

    right = streams.oracle

    def wrong(shape, pipeline, frame):
        e = right(shape, pipeline, frame)
        # off by more than the MLtoSQL slack allows
        e.counts = {k: n + e.qualifying + 1 for k, n in e.counts.items()}
        return e

    streams.oracle = wrong


def main() -> int:
    detail = run.main(
        ["--workload", "creditcard_duckdb", "--seed", "0", "--seconds", "1"],
        before_run=plant_wrong_oracle,
    )
    if detail["error_rate"] > 0 and len(detail["failures"]) == detail["queries"]:
        print(f"selftest passed: planted oracle gives error_rate={detail['error_rate']}")
        return 0
    print(f"selftest FAILED: planted oracle gives error_rate={detail['error_rate']}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
