"""Reference ML runtime — the "Spark + scikit-learn" baseline's engine.

Semantically identical to :mod:`repro.runtime.onnx_rt`, and sharing its
featurizer and label/score head, but evaluating the model the
straightforward way an external general-purpose ML library does: float64
end-to-end and per-tree recursive mask descent instead of the
level-synchronous batched kernel. It exists so the Fig 6 comparison
"Raven (no-opt) vs Spark+SKL" has a competent-but-slower external runtime
to stand in for scikit-learn (not installed in this environment — see
DESIGN.md substitutions).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ir.graph import Pipeline
from repro.ir.tree import LEAF, Tree
from repro.runtime import onnx_rt


def _tree_values_masked(t: Tree, X: np.ndarray) -> np.ndarray:
    """Recursive partition descent (sklearn-style apply())."""
    out = np.empty((X.shape[0], t.n_out), dtype=np.float64)

    def rec(node: int, idx: np.ndarray) -> None:
        if t.left[node] == LEAF:
            out[idx] = t.value[node]
            return
        f = int(t.feature[node])
        go_left = X[idx, f] <= t.threshold[node]
        rec(int(t.left[node]), idx[go_left])
        rec(int(t.right[node]), idx[~go_left])

    rec(0, np.arange(X.shape[0]))
    return out


def run(p: Pipeline, pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Execute with the reference strategy. Same contract as onnx_rt.run."""
    X = onnx_rt.featurize(p, pdf)  # float64: no single-precision downcast
    model = p.model_node
    if model.op == "linear_classifier":
        return onnx_rt.head("lr", X @ model.attrs["coef"] + model.attrs["intercept"])
    return onnx_rt.tree_ensemble(model.attrs, X, _tree_values_masked)


def agrees_with_onnx_rt(p: Pipeline, pdf: pd.DataFrame, atol: float = 1e-6) -> bool:
    """Fidelity check helper used by tests."""
    l1, s1 = run(p, pdf)
    l2, s2 = onnx_rt.run(p, pdf)
    return bool(np.array_equal(l1, l2) and np.allclose(s1, s2, atol=atol))
