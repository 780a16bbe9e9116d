"""Seeded PREDICT query streams and the output oracle they are checked against.

A workload's stream is a fixed list of *query shapes* (one SQL text each)
that the closed loop replays in rounds. Each template fixes its columns and
its selectivity (a category of a balanced domain, or a range of fixed
quantile width); the seed picks the literals: which category of
``DatasetSpec.cat_domains`` and where a numeric range starts among the
data's quantiles. So the rows a round scores, and the model inputs the
optimizer can prune on, stay the same from seed to seed, and the run-to-run
spread measures the system, not the draw.

The generators are the paper's Table-1 ones and produce no NULLs, and every
string literal is quoted. NULL inputs and mistyped literals are known
defects that belong to a differential harness, not to this benchmark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.data import datasets as ds
from repro.ir.graph import Pipeline
from repro.runtime import onnx_rt

#: per-row label mismatch that MLtoSQL may show against the ML runtime; the
#: same bound tests/test_fidelity.py allows (paper §7.4: 0.006%-0.3%)
SQL_MISMATCH_RATE = 0.005

#: feature values per onnx_rt call when computing the oracle (16 MB of
#: float64), so the un-optimized 6475-wide Flights one-hot matrix stays out
#: of peak_rss_mb while narrow pipelines still run in large batches
ORACLE_BATCH_VALUES = 2_000_000

@dataclass(frozen=True)
class Cond:
    """One WHERE conjunct; a ``str`` value is a categorical literal."""

    col: str
    op: str
    value: str | float

    def sql(self) -> str:
        if isinstance(self.value, str):
            return f"{self.col} {self.op} '" + self.value.replace("'", "''") + "'"
        # the PREDICT grammar reads plain decimals only (no exponent)
        return f"{self.col} {self.op} {self.value:.6f}"

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        col = pdf[self.col]
        # compare with the value the SQL text carries, as the engines do
        v = self.value if isinstance(self.value, str) else float(f"{self.value:.6f}")
        return {
            "=": col == v, "<": col < v, "<=": col <= v,
            ">": col > v, ">=": col >= v,
        }[self.op].to_numpy()


@dataclass(frozen=True)
class Shape:
    """One query of the stream: a model, WHERE conjuncts, and optionally
    ``prediction = label`` on the output."""

    name: str
    model: str
    where: tuple[Cond, ...]
    label: int | None = None

    def mask(self, frame: pd.DataFrame) -> np.ndarray:
        """Rows of ``frame`` that pass the WHERE clause."""
        out = np.ones(len(frame), dtype=bool)
        for c in self.where:
            out &= c.mask(frame)
        return out

    def sql(self, spec: ds.DatasetSpec) -> str:
        text = f"SELECT PREDICT({self.model}, *) AS prediction FROM {spec.fact}"
        for j in spec.joins:
            text += (
                f" JOIN {j.dim_table} ON {spec.fact}.{j.fact_key} = "
                f"{j.dim_table}.{j.dim_key}"
            )
        conds = [c.sql() for c in self.where]
        if self.label is not None:
            conds.append(f"prediction = {self.label}")
        if conds:
            text += " WHERE " + " AND ".join(conds)
        return text


def _pick(rng: np.random.Generator, options) -> str:
    return str(options[int(rng.integers(len(options)))])


def _num_range(rng, frame: pd.DataFrame, col: str, width: float) -> tuple[Cond, Cond]:
    """``col`` in [q(a), q(a + width)) for a seeded start ``a``."""
    start = float(rng.uniform(0.0, 1.0 - width))
    lo, hi = np.quantile(frame[col].to_numpy(), [start, start + width], method="lower")
    return Cond(col, ">=", float(lo)), Cond(col, "<", float(hi))


def hospital_shapes(rng, spec: ds.DatasetSpec, frame: pd.DataFrame,
                    models: list[str]) -> list[Shape]:
    """``rcount = 'rK'``, and ``asthma = '1'`` with a glucose range and
    ``prediction = 1``; each qualifies ~1/6 of the rows."""
    templates = [
        ("rcount", (Cond("rcount", "=", _pick(rng, spec.cat_domains["rcount"])),), None),
        ("asthma_glucose",
         (Cond("asthma", "=", "1"), *_num_range(rng, frame, "glucose", 0.6)), 1),
    ]
    return _assign(templates, models)


def flights_shapes(rng, spec: ds.DatasetSpec, frame: pd.DataFrame,
                   models: list[str]) -> list[Shape]:
    """A fact block, and a source-airport climate with ``prediction = 1``;
    dims list every category equally often, so each qualifies 1/6 of the
    rows."""
    dom = spec.cat_domains
    templates = [
        ("dep_block", (Cond("dep_block", "=", _pick(rng, dom["dep_block"])),), None),
        ("src_climate", (Cond("src_climate", "=", _pick(rng, dom["src_climate"])),), 1),
    ]
    return _assign(templates, models)


def _assign(templates, models: list[str]) -> list[Shape]:
    """One shape per template, the models taking templates in turn."""
    return [
        Shape(f"{models[i % len(models)]}/{name}", models[i % len(models)], where, label)
        for i, (name, where, label) in enumerate(templates)
    ]


#: the column each Credit Card model's range predicate is on
CREDITCARD_RANGE_COLS = ("amount", "v1", "v2")


def creditcard_shapes(rng, spec: ds.DatasetSpec, frame: pd.DataFrame,
                      models: list[str]) -> list[Shape]:
    """One shape per model, every other one with ``prediction = 1``, each
    with a range covering half of the rows."""
    shapes = []
    for i, (m, col) in enumerate(zip(models, CREDITCARD_RANGE_COLS)):
        label = 1 if i % 2 else None
        where = _num_range(rng, frame, col, 0.5)
        shapes.append(Shape(f"{m}/{'pos' if label else 'all'}", m, where, label))
    return shapes


def joined(spec: ds.DatasetSpec, tables: dict[str, pd.DataFrame]) -> pd.DataFrame:
    """The fact joined with its dims: the rows a PREDICT query scores."""
    out = tables[spec.fact]
    for j in spec.joins:
        out = out.merge(tables[j.dim_table], left_on=j.fact_key, right_on=j.dim_key)
    return out


@dataclass
class Expected:
    """Oracle output of one shape: rows passing WHERE, and the per-label
    counts the query must return (only ``label`` when it filters)."""

    qualifying: int
    counts: dict[int, int]


def oracle(shape: Shape, pipeline: Pipeline, frame: pd.DataFrame) -> Expected:
    """Per-label counts from the un-optimized pipeline on ``onnx_rt``,
    evaluated over the pandas rows that pass the WHERE clause."""
    mask = shape.mask(frame)
    rows = frame.loc[mask, pipeline.input_cols]
    batch = max(1, ORACLE_BATCH_VALUES // pipeline.n_model_features())
    counts: dict[int, int] = {}
    for i in range(0, len(rows), batch):
        label, _ = onnx_rt.run(pipeline, rows.iloc[i:i + batch])
        for k, n in zip(*np.unique(label, return_counts=True)):
            counts[int(k)] = counts.get(int(k), 0) + int(n)
    if shape.label is not None:
        counts = {shape.label: counts.get(shape.label, 0)}
    return Expected(int(mask.sum()), counts)


def check(observed: dict[int, int], expected: Expected, exact: bool) -> str | None:
    """``None`` when ``observed`` matches; otherwise the reason it does not.

    ``exact=False`` (MLtoSQL) lets each label's count differ by at most
    ``SQL_MISMATCH_RATE`` of the qualifying rows.
    """
    slack = 0 if exact else int(SQL_MISMATCH_RATE * expected.qualifying)
    labels = set(expected.counts) | {k for k, n in observed.items() if n}
    for k in sorted(labels):
        got, want = observed.get(k, 0), expected.counts.get(k, 0)
        if abs(got - want) > slack:
            return f"label {k}: got {got}, expected {want} (slack {slack})"
    return None
