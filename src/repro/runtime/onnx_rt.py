"""Vectorized IR interpreter — the "ONNX Runtime" of this reproduction.

Evaluates a :class:`repro.ir.graph.Pipeline` over a pandas batch exactly the
way Raven's UDF drives ONNX Runtime (§6): columnar input, batch-at-a-time,
single-precision feature matrices, level-synchronous tree traversal (the
batched analogue of ONNX Runtime's TreeEnsemble kernel), BLAS matvec for
linear models.

Returns ``(label, score)`` with ``score = P(class 1)`` for binary models.
:func:`featurize` and :func:`head` are the featurizer and the label/score
head of all three ML runtimes: :mod:`repro.runtime.reference_rt` and
:mod:`repro.runtime.dnn_rt` differ from this one only in the model kernel
between them.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ir.graph import MODEL_OPS, Pipeline
from repro.ir.tree import Tree
from repro.ml.ensemble import sigmoid


def featurize(p: Pipeline, pdf: pd.DataFrame) -> np.ndarray:
    """Run the featurizers of ``p`` over ``pdf``; returns the model node's
    float64 input matrix as computed (not copied)."""
    n = len(pdf)
    values: dict[str, np.ndarray] = {}
    for nid in p.topo_order():
        node = p.nodes[nid]
        op = node.op
        if op in MODEL_OPS:
            return values[node.inputs[0]]
        if op == "input":
            col = node.attrs["name"]
            if node.attrs["kind"] == "num":
                values[nid] = pdf[col].to_numpy(dtype=np.float64)[:, None]
            else:
                values[nid] = pdf[col].astype(str).to_numpy()[:, None]
        elif op == "constant":
            v = node.attrs["value"]
            if isinstance(v, str):
                values[nid] = np.full((n, 1), v, dtype=object)
            else:
                values[nid] = np.full((n, 1), float(v))
        elif op == "scaler":
            x = values[node.inputs[0]]
            values[nid] = (x - node.attrs["offset"]) * node.attrs["scale"]
        elif op == "onehot":
            col = values[node.inputs[0]][:, 0]
            cats = node.attrs["categories"]
            # hash-indexed scatter (the tuned-kernel path): O(n) lookups
            # instead of an n x |categories| object comparison
            codes = pd.Index(cats).get_indexer(pd.Index(col))
            out = np.zeros((n, len(cats)), dtype=np.float64)
            rows = np.flatnonzero(codes >= 0)
            out[rows, codes[rows]] = 1.0
            values[nid] = out
        elif op == "concat":
            values[nid] = np.hstack([values[i] for i in node.inputs])
        elif op == "feature_extractor":
            values[nid] = values[node.inputs[0]][:, node.attrs["indices"]]
        else:  # pragma: no cover - graph validation rules this out
            raise ValueError(f"unknown op {op}")
    raise ValueError("pipeline has no model node")


def head(kind: str, acc: np.ndarray, n_trees: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(label int64, score float64) from a model kernel's output.

    ``acc`` is the margin for ``kind`` "lr" and "gb", and the summed
    class-probability payloads ``(n, n_out)`` of ``n_trees`` trees for "dt"
    and "rf" (averaged, argmax label).
    """
    if kind in ("lr", "gb"):
        return (acc > 0).astype(np.int64), sigmoid(acc)
    proba = acc / n_trees
    label = np.argmax(proba, axis=1).astype(np.int64)
    return label, proba[:, 1] if proba.shape[1] > 1 else proba[:, 0]


def run(p: Pipeline, pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """Execute ``p`` over ``pdf``; returns (label int64, score float64)."""
    X = featurize(p, pdf)
    model = p.model_node
    if model.op == "linear_classifier":
        return head("lr", X @ model.attrs["coef"] + model.attrs["intercept"])
    return tree_ensemble(model.attrs, np.ascontiguousarray(X, dtype=np.float32))


def tree_ensemble(
    attrs: dict, X: np.ndarray, tree_values=Tree.predict_value
) -> tuple[np.ndarray, np.ndarray]:
    """Sum the ``(n, n_out)`` leaf payloads ``tree_values(tree, X)`` of every
    tree of a ``tree_ensemble`` node, then apply :func:`head`."""
    trees = attrs["trees"]
    if attrs["kind"] == "gb":
        margin = np.full(X.shape[0], attrs["base_score"], dtype=np.float64)
        for t in trees:
            margin += tree_values(t, X)[:, 0]
        return head("gb", margin)
    acc = np.zeros((X.shape[0], trees[0].n_out))
    for t in trees:
        acc += tree_values(t, X)
    return head(attrs["kind"], acc, len(trees))
