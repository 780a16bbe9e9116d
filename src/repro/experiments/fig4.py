"""Fig 4 + §5.2 text — optimization-strategy quality.

Paper: stratified 5-fold CV repeated 40x (200 runs) on the OpenML corpus.
Mean accuracy: rule-based 0.76, classification 0.79, regression 0.79.
Median speedup-vs-optimal ~0.97 for all three; classification has the
tightest spread (p25 = 0.94 vs 0.72 rule / 0.83 regression).
"""
from __future__ import annotations

from repro.bench_util import print_table
from repro.core.corpus import build_corpus, corpus_matrices, price_duckdb
from repro.core.strategies import evaluate_strategies

PAPER = {
    "rule": {"accuracy": 0.76, "speedup_median": None, "speedup_p25": 0.72},
    "classification": {"accuracy": 0.79, "speedup_median": 0.97, "speedup_p25": 0.94},
    "regression": {"accuracy": 0.79, "speedup_median": None, "speedup_p25": 0.83},
}


def run(n_pipelines: int = 120, n_repeats: int = 40, seed: int = 0) -> list[dict]:
    entries = build_corpus(price_duckdb, n_pipelines)
    _, y, _ = corpus_matrices(entries)
    import numpy as np

    counts = np.bincount(y, minlength=3)
    print(
        f"corpus: {len(entries)} pipelines; best-option counts "
        f"(none/sql/dnn) = {counts.tolist()} "
        "(paper: 41 none / 25 sql / 72 dnn of 138)"
    )
    out = evaluate_strategies(entries, n_repeats=n_repeats, seed=seed)
    rows = [
        {
            "strategy": name,
            **vals,
            "paper_accuracy": PAPER[name]["accuracy"],
            "paper_p25": PAPER[name]["speedup_p25"],
        }
        for name, vals in out.items()
    ]
    print_table(
        "Fig 4 / §5.2: strategy accuracy and speedup-vs-optimal (200 runs)",
        ["strategy", "accuracy", "paper acc", "speedup med", "p25", "p75",
         "min", "max", "paper p25"],
        [
            [
                r["strategy"],
                f"{r['accuracy']:.2f}",
                r["paper_accuracy"],
                f"{r['speedup_median']:.2f}",
                f"{r['speedup_p25']:.2f}",
                f"{r['speedup_p75']:.2f}",
                f"{r['speedup_min']:.2f}",
                f"{r['speedup_max']:.2f}",
                r["paper_p25"],
            ]
            for r in rows
        ],
    )
    return rows
