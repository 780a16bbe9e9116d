"""Predicate-based model pruning (§4.1, data-to-model rule).

Given the WHERE predicates of a prediction query, this rule:

Step 1 — binds every model input with an equality predicate to a Constant
node (so the column no longer needs to be fed to — or scanned for — the
model) and records range predicates.

Step 2 — propagates the equality/range information through the featurizers
via slot provenance (:mod:`repro.ir.slots`): ``asthma=1`` becomes a known
``[0,1]`` one-hot vector, a constant ``c`` becomes ``(c-offset)*scale``
under a Scaler — then prunes every tree of a tree-based model against the
resulting per-slot intervals, and constant-folds linear models (known slots
fold into the intercept).

Also implements the paper's *output-predicate* variant: an equality
predicate on the model's prediction collapses subtrees with no satisfying
leaf.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.ir.graph import Node, Pipeline
from repro.ir.slots import model_input_slots, slot_intervals
from repro.ir.tree import Tree


@dataclass
class Predicate:
    """A conjunct of the query's WHERE clause: ``col op value``."""

    col: str
    op: str  # "=", "<", "<=", ">", ">="
    value: object

    def as_range(self) -> tuple:
        """Normalize to the slot-interval encoding of repro.ir.slots."""
        if self.op == "=":
            return ("eq", self.value)
        v = float(self.value)
        if self.op in ("<", "<="):
            return ("range", -np.inf, v)
        return ("range", v, np.inf)


@dataclass
class PruneResult:
    pipeline: Pipeline
    bound_inputs: dict[str, object] = field(default_factory=dict)
    pruned_nodes: int = 0  # total tree nodes removed


def merge_predicates(preds: list[Predicate]) -> dict[str, tuple]:
    """Conjunction of predicates per column -> slot-interval encoding."""
    out: dict[str, tuple] = {}
    for p in preds:
        cur = p.as_range()
        prev = out.get(p.col)
        if prev is None:
            out[p.col] = cur
        elif prev[0] == "eq" or cur[0] == "eq":
            out[p.col] = prev if prev[0] == "eq" else cur
        else:  # intersect ranges
            out[p.col] = (
                "range", max(prev[1], cur[1]), min(prev[2], cur[2])
            )
    return out


def _literal_fits(pred: Predicate, kind: str | None) -> bool:
    """Whether ``pred`` may bind or prune a model input of ``kind``: a string
    equality on a categorical input, a number on a numeric one. Any other
    predicate (``asthma = 0``, ``asthma > 'a'``, a column the model does not
    read) is left to the engine's filter, whose literal coercion the rule
    does not model."""
    if kind == "cat":
        return pred.op == "=" and isinstance(pred.value, str)
    return kind == "num" and isinstance(pred.value, numbers.Real)


def apply_predicate_pruning(p: Pipeline, predicates: list[Predicate]) -> PruneResult:
    """Returns an equivalent-on-qualifying-rows pipeline, possibly smaller.

    Falls back to the unchanged pipeline when slot provenance cannot be
    resolved (unsupported graph shape) — "executed but not optimized".
    """
    p = p.clone()
    kinds = {n.attrs["name"]: n.attrs["kind"] for n in p.input_nodes()}
    merged = merge_predicates(
        [q for q in predicates if _literal_fits(q, kinds.get(q.col))]
    )
    if not merged:
        return PruneResult(p)

    # Step 1: bind equality-predicate inputs to Constant nodes.
    bound: dict[str, object] = {}
    for node in list(p.nodes.values()):
        if node.op != "input":
            continue
        col = node.attrs["name"]
        pred = merged.get(col)
        if pred is not None and pred[0] == "eq":
            value = pred[1] if node.attrs["kind"] == "cat" else float(pred[1])
            p.nodes[node.id] = Node(
                "constant", [], {"value": value}, id=node.id
            )
            bound[col] = value
    p = p.gc()

    # Step 2: interval propagation through featurizers, then model pruning.
    return PruneResult(p, bound, prune_to_intervals(p, merged))


def prune_to_intervals(p: Pipeline, predicates: dict[str, tuple]) -> int:
    """Prune ``p``'s model in place against the per-slot intervals that
    ``predicates`` (the slot-interval encoding of :mod:`repro.ir.slots`)
    induce: every tree is pruned, a linear model folds its exactly-known
    slots into the intercept. Shared by the WHERE-predicate rule and
    data-induced pruning (§4.2). Returns the number of tree nodes (or
    linear terms) removed; 0 when slot provenance cannot be resolved.
    """
    try:
        slots = model_input_slots(p)
    except ValueError:
        return 0
    lo, hi = slot_intervals(slots, predicates)
    model = p.model_node
    if model.op == "tree_ensemble":
        removed = 0
        new_trees = []
        for t in model.attrs["trees"]:
            nt = t.prune_with_intervals(lo, hi)
            removed += t.n_nodes - nt.n_nodes
            new_trees.append(nt)
        model.attrs["trees"] = new_trees
        return removed
    coef = np.asarray(model.attrs["coef"], dtype=np.float64).copy()
    known = lo == hi
    removed = int(np.sum(known & (coef != 0.0)))
    model.attrs["intercept"] = float(model.attrs["intercept"]) + float(
        np.sum(coef[known] * lo[known])
    )
    coef[known] = 0.0
    model.attrs["coef"] = coef
    return removed


def apply_output_predicate_pruning(p: Pipeline, label_value: int) -> Pipeline:
    """Prune against ``prediction = label_value`` (§4.1, "predicates on the
    outputs of the trained pipelines").

    Only sound for models where a leaf alone decides the label — single
    decision trees (payload argmax). For ensembles and linear models the
    label depends on the aggregate, so the rule leaves them unchanged.
    Rows routed to collapsed subtrees still produce a (rejected) label and
    are removed by the query's filter, so the *filtered* result is
    unchanged.
    """
    p = p.clone()
    model = p.model_node
    if model.op != "tree_ensemble" or model.attrs["kind"] != "dt":
        return p
    t: Tree = model.attrs["trees"][0]
    is_leaf = t.left == -1
    keep = np.zeros(t.n_nodes, dtype=bool)
    keep[is_leaf] = np.argmax(t.value[is_leaf], axis=1) == int(label_value)
    model.attrs["trees"] = [t.collapse_unsatisfying(keep)]
    return p


def tree_ensemble_size(p: Pipeline) -> int:
    """Total tree-node count (0 for linear models) — monotonicity checks."""
    model = p.model_node
    if model.op != "tree_ensemble":
        return 0
    return int(sum(t.n_nodes for t in model.attrs["trees"]))
