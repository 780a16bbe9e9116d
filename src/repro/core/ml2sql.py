"""MLtoSQL (§5.1): compile a whole trained pipeline into SQL expressions.

Linear models and scalers become arithmetic; tree models and one-hot
encoders become (nested) CASE expressions, produced by a depth-first
traversal exactly as the paper describes:

    CASE WHEN F[0] > 60 THEN (...) ELSE (...) END

Featurizer logic is *inlined* into each comparison through slot provenance:
a split on a scaled slot compiles to ``(col*a + b) <= thr``; a split on a
one-hot slot simplifies to ``col = 'cat'`` / ``col <> 'cat'`` instead of
materializing the indicator. The compiler translates the entire pipeline or
raises (the paper's "whole model pipeline or fail" contract); the caller
falls back to the ML runtime.

Both Spark SQL and DuckDB accept the generated dialect (CASE/EXP/CAST).
Numeric splits compare ``CAST(expr AS FLOAT)`` so the float32 feature
matrix of the ML runtime and the SQL engine route rows identically —
residual mismatches are the rounding effects §7.4 quantifies.

This module writes all of the SQL text of a prediction query, and both
engines run that text: the relational part (:func:`data_select_sql`: star
join, WHERE, projection), the PREDICT projection
(:func:`prediction_columns_sql`) and the output filter
(:func:`output_filter_sql`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predicate_pruning import Predicate
from repro.core.query import PredictionQuery
from repro.ir.graph import Node, Pipeline
from repro.ir.slots import Slot, model_input_slots
from repro.ir.tree import LEAF, Tree


@dataclass
class SqlPrediction:
    """Compiled expressions over the raw input columns."""

    label_sql: str  # integer 0/1
    score_sql: str  # P(class 1)
    input_cols: list[str]


def lit(v: object) -> str:
    """SQL literal: strings quoted as ``'O''Brien'``, numbers as DOUBLE."""
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    # scientific notation: both Spark and DuckDB parse plain decimal
    # literals as DECIMAL (whose fixed precision overflows when summing
    # hundreds of tree outputs); E-notation parses as DOUBLE in both.
    return "{:.17e}".format(float(v))


def _sum_sql(parts: list[str]) -> str:
    """Balanced ``+`` expression: a 500-tree ensemble sum written as a
    left-recursive chain exceeds SQL binder recursion limits (DuckDB caps
    at 128); balancing keeps the parse tree at log depth."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return f"({_sum_sql(parts[:mid])} + {_sum_sql(parts[mid:])})"


def slot_value_sql(s: Slot) -> str:
    """SQL for the slot's numeric value (used by linear models)."""
    if s.kind == "const":
        return lit(s.const)
    if s.kind == "num":
        if s.a == 1.0 and s.b == 0.0:
            return f"CAST({s.source} AS DOUBLE)"
        return f"(CAST({s.source} AS DOUBLE) * {lit(s.a)} + {lit(s.b)})"
    # one-hot indicator (possibly scaled)
    ind = f"(CASE WHEN {s.source} = {lit(s.category)} THEN 1.0 ELSE 0.0 END)"
    if s.a == 1.0 and s.b == 0.0:
        return ind
    return f"({ind} * {lit(s.a)} + {lit(s.b)})"


def _slot_le_sql(s: Slot, thr: float) -> str | bool:
    """SQL condition for ``slot_value <= thr`` (True/False when static)."""
    if s.kind == "const":
        return bool(s.const <= thr)
    if s.kind == "num":
        expr = f"CAST({s.source} AS DOUBLE)"
        if not (s.a == 1.0 and s.b == 0.0):
            expr = f"({expr} * {lit(s.a)} + {lit(s.b)})"
        return f"CAST({expr} AS FLOAT) <= {lit(thr)}"
    # one-hot: the slot takes value b (category absent) or a+b (present)
    le_if_absent = np.float32(s.b) <= thr
    le_if_present = np.float32(s.a + s.b) <= thr
    if le_if_absent and le_if_present:
        return True
    if not le_if_absent and not le_if_present:
        return False
    if le_if_present:  # condition holds exactly when category present
        return f"{s.source} = {lit(s.category)}"
    return f"{s.source} <> {lit(s.category)}"


def _tree_case_sql(t: Tree, slots: list[Slot], leaf_sql) -> str:
    """Depth-first nested-CASE compilation; ``leaf_sql(node) -> str``."""

    def rec(node: int) -> str:
        if t.left[node] == LEAF:
            return leaf_sql(node)
        cond = _slot_le_sql(slots[int(t.feature[node])], float(t.threshold[node]))
        if cond is True:
            return rec(int(t.left[node]))
        if cond is False:
            return rec(int(t.right[node]))
        return (
            f"CASE WHEN {cond} THEN {rec(int(t.left[node]))} "
            f"ELSE {rec(int(t.right[node]))} END"
        )

    return rec(0)


def linear_sql(slots: list[Slot], coef, intercept: float) -> tuple[str, str]:
    """(label, score) of a linear model with one term per given slot."""
    terms = [f"{slot_value_sql(s)} * {lit(c)}" for s, c in zip(slots, coef)]
    margin = _sum_sql(terms + [lit(intercept)])
    return f"CAST(({margin}) > 0.0 AS INT)", f"(1.0 / (1.0 + EXP(-({margin}))))"


def ensemble_sql(model: Node, slots: list[Slot]) -> tuple[str, str]:
    """(label, score) of a tree ensemble, one nested CASE per tree."""
    if model.op != "tree_ensemble":  # pragma: no cover
        raise ValueError(f"MLtoSQL does not support {model.op}")
    kind = model.attrs["kind"]
    trees: list[Tree] = model.attrs["trees"]
    if kind == "gb":
        parts = [lit(model.attrs["base_score"])] + [
            f"({_tree_case_sql(t, slots, lambda n, t=t: lit(t.value[n, 0]))})"
            for t in trees
        ]
        margin = _sum_sql(parts)
        return f"CAST({margin} > 0.0 AS INT)", f"(1.0 / (1.0 + EXP(-{margin})))"

    # dt / rf: average class-1 probabilities; binary argmax = p1 > 0.5
    if trees[0].n_out != 2:
        raise ValueError("MLtoSQL tree classification supports binary tasks")
    parts = [
        f"({_tree_case_sql(t, slots, lambda n, t=t: lit(t.value[n, 1]))})"
        for t in trees
    ]
    score = f"({_sum_sql(parts)} / {lit(len(trees))})"
    return f"CAST({score} > 0.5 AS INT)", score


def compile_to_sql(p: Pipeline) -> SqlPrediction:
    """Whole-pipeline compilation. Raises ValueError when unsupported."""
    slots = model_input_slots(p)  # raises for unsupported featurizer shapes
    model = p.model_node
    if model.op == "linear_classifier":
        coef = np.asarray(model.attrs["coef"], dtype=np.float64)
        nz = np.flatnonzero(coef != 0.0)
        label, score = linear_sql(
            [slots[i] for i in nz], coef[nz], model.attrs["intercept"]
        )
    else:
        label, score = ensemble_sql(model, slots)
    return SqlPrediction(label, score, list(p.input_cols))


# ----------------------------------------------------------------------
# The prediction query around the model expressions
# ----------------------------------------------------------------------
def predicate_sql(p: Predicate) -> str:
    """One WHERE conjunct; strings quoted by :func:`lit`, numbers plain."""
    v = lit(p.value) if isinstance(p.value, str) else repr(float(p.value))
    return f"{p.col} {p.op} {v}"


def data_select_sql(query: PredictionQuery, cols: list[str]) -> str:
    """Relational part of the prediction query: star join, WHERE and the
    model's input columns. A fully pruned pipeline (no input column, e.g.
    an all-zero L1 model) still needs one value per qualifying row, so it
    selects the constant ``1 AS _one``."""
    sql = f"SELECT {', '.join(cols) or '1 AS _one'} FROM {query.fact}"
    for j in query.joins:
        sql += (
            f" JOIN {j.dim_table} ON {query.fact}.{j.fact_key} = "
            f"{j.dim_table}.{j.dim_key}"
        )
    if query.where:
        sql += " WHERE " + " AND ".join(predicate_sql(p) for p in query.where)
    return sql


def prediction_column_sql(sqlp: SqlPrediction) -> str:
    """The ``prediction`` column: the label as BIGINT, as the UDF returns it."""
    return f"CAST({sqlp.label_sql} AS BIGINT) AS prediction"


def prediction_columns_sql(sqlp: SqlPrediction) -> list[str]:
    """The MLtoSQL output columns: ``score`` and ``prediction``."""
    return [f"{sqlp.score_sql} AS score", prediction_column_sql(sqlp)]


def output_filter_sql(output_filter: tuple[str, int]) -> str:
    """The filter on the model output, e.g. ``prediction = 1``."""
    col, val = output_filter
    return f"{col} = {int(val)}"
