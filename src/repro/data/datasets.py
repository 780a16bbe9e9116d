"""Synthetic generators for the paper's four evaluation datasets (Table 1).

Schemas match Table 1 column-for-column:

=============  ========  ==================  =============================
dataset        # tables  # inputs (num/cat)  # features after encoding
=============  ========  ==================  =============================
Credit Card    1         28 (28/0)           28 (28/0)
Hospital       1         24 (9/15)           59 (9/50)
Expedia        3         28 (8/20)           3965 (8/3957)
Flights        4         37 (4/33)           6475 (4/6471)
=============  ========  ==================  =============================

Multi-table datasets are star schemas with guaranteed FK integrity (every
fact key hits exactly one dim row), matching the paper's 3-way/4-way join
queries. Labels come from a planted margin over *all* feature columns with
geometrically decaying weights, so shallow trees use few inputs and deeper
trees progressively more (the lever behind Figs 9/10 and the model-
projection pushdown gains).

Hospital encodes the §4.2 / Table 2 correlations: the four issue-flag
columns are all ``0`` inside the ``num_issues=0`` partition, and two lab
numerics are range-bucketed by ``rcount`` — exactly the structure the
data-induced optimization exploits per partition.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

LABEL = "label"


@dataclass(frozen=True)
class JoinSpec:
    """Fact-side FK -> dim PK equi-join with declared integrity."""

    dim_table: str
    fact_key: str
    dim_key: str


@dataclass
class DatasetSpec:
    name: str
    fact: str
    num_cols: list[str]
    cat_cols: list[str]  # feature columns only (keys/label excluded)
    joins: list[JoinSpec] = field(default_factory=list)
    cat_domains: dict[str, list[str]] = field(default_factory=dict)
    partition_cols: list[str] = field(default_factory=list)

    @property
    def n_tables(self) -> int:
        return 1 + len(self.joins)

    @property
    def input_cols(self) -> list[str]:
        return self.num_cols + self.cat_cols

    @property
    def n_features_encoded(self) -> tuple[int, int]:
        return len(self.num_cols), sum(len(v) for v in self.cat_domains.values())


def _hash_unit(token: str) -> float:
    """Deterministic pseudo-random value in [-1, 1] for a category."""
    h = int(hashlib.md5(token.encode()).hexdigest()[:8], 16)
    return (h / 0xFFFFFFFF) * 2 - 1


def _planted_label(
    pdf: pd.DataFrame, num_cols: list[str], cat_cols: list[str], seed: int,
    noise: float = 0.35,
) -> pd.Series:
    """Margin over all features with decaying weights; ~balanced threshold."""
    rng = np.random.default_rng(seed)
    cols = list(num_cols) + list(cat_cols)
    order = rng.permutation(len(cols))
    weights = 1.6 * 0.82 ** np.arange(len(cols))
    margin = np.zeros(len(pdf))
    for rank, ci in enumerate(order):
        c = cols[ci]
        w = weights[rank]
        if c in num_cols:
            v = pdf[c].to_numpy(dtype=np.float64)
            std = v.std() or 1.0
            margin += w * (v - v.mean()) / std
        else:
            vals = pdf[c].astype(str)
            lut = {cat: _hash_unit(f"{c}:{cat}") for cat in vals.unique()}
            margin += w * vals.map(lut).to_numpy()
    margin += noise * rng.standard_normal(len(pdf))
    return pd.Series((margin > np.median(margin)).astype(np.int64), index=pdf.index)


# ======================================================================
# Credit Card — 1 table, 28 numeric inputs
# ======================================================================
_CREDIT_NUM = ["time", "amount"] + [f"v{i}" for i in range(1, 27)]


def _gen_creditcard(n: int, seed: int) -> dict[str, pd.DataFrame]:
    rng = np.random.default_rng(seed)
    pdf = pd.DataFrame({"time": rng.uniform(0, 172800, n).round(1)})
    pdf["amount"] = np.exp(rng.normal(3.0, 1.2, n)).round(2)
    for i in range(1, 27):
        pdf[f"v{i}"] = rng.standard_normal(n).round(4)
    pdf[LABEL] = _planted_label(pdf, _CREDIT_NUM, [], seed + 1)
    return {"creditcard": pdf}


# ======================================================================
# Hospital — 1 table, 9 numeric + 15 categorical (50 categories total)
# ======================================================================
_HOSPITAL_NUM = [
    "hematocrit", "neutrophils", "sodium", "glucose", "bloodureanitro",
    "creatinine", "bmi", "pulse", "respiration",
]
_HOSPITAL_CAT_CARDS = {
    "rcount": 6, "facid": 5, "insurance": 5, "admit_type": 4, "ward": 4,
    "marital": 4, "agegroup": 4, "ethnicity": 3, "bloodtype": 3,
    "num_issues": 2, "gender": 2, "asthma": 2, "irondef": 2, "pneum": 2,
    "depress": 2,
}
_HOSPITAL_ISSUE_FLAGS = ["asthma", "irondef", "pneum", "depress"]


def _gen_hospital(n: int, seed: int) -> dict[str, pd.DataFrame]:
    rng = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "hematocrit": rng.normal(40, 6, n).round(2),
            "neutrophils": rng.normal(60, 12, n).round(2),
            "sodium": rng.normal(139, 4, n).round(2),
            "glucose": rng.normal(105, 25, n).round(1),
            "bmi": rng.normal(27, 5, n).round(2),
            "pulse": rng.normal(78, 13, n).round(1),
            "respiration": rng.normal(16, 3, n).round(1),
        }
    )
    rcount = rng.integers(0, 6, n)
    pdf["rcount"] = [f"r{v}" for v in rcount]
    # range-bucketed labs: within an rcount partition these have hard
    # min/max bounds -> per-partition data-induced pruning (§4.2, Table 2)
    pdf["bloodureanitro"] = (rcount * 12 + rng.uniform(0, 12, n)).round(2)
    pdf["creatinine"] = (0.5 + rcount * 0.4 + rng.uniform(0, 0.4, n)).round(3)
    for flag in _HOSPITAL_ISSUE_FLAGS:
        pdf[flag] = rng.choice(["0", "1"], n, p=[0.72, 0.28])
    any_issue = (pdf[_HOSPITAL_ISSUE_FLAGS] == "1").any(axis=1)
    # inside num_issues=0, every issue flag is constant "0"
    pdf.loc[~any_issue, _HOSPITAL_ISSUE_FLAGS] = "0"
    pdf["num_issues"] = np.where(any_issue, "1", "0")
    for c in ("facid", "insurance", "admit_type", "ward", "marital",
              "agegroup", "ethnicity", "bloodtype", "gender"):
        card = _HOSPITAL_CAT_CARDS[c]
        pdf[c] = [f"{c[0]}{v}" for v in rng.integers(0, card, n)]
    pdf[LABEL] = _planted_label(pdf, _HOSPITAL_NUM, list(_HOSPITAL_CAT_CARDS), seed + 1)
    return {"hospital": pdf}


def _hospital_domains() -> dict[str, list[str]]:
    dom = {}
    for c, card in _HOSPITAL_CAT_CARDS.items():
        if c == "rcount":
            dom[c] = [f"r{i}" for i in range(card)]
        elif c in _HOSPITAL_ISSUE_FLAGS or c == "num_issues":
            dom[c] = ["0", "1"]
        else:
            dom[c] = [f"{c[0]}{i}" for i in range(card)]
    return dom


# ======================================================================
# Expedia — 3 tables (searches ⨝ hotels ⨝ destinations),
#           8 numeric + 20 categorical (3957 categories total)
# ======================================================================
_EXPEDIA_FACT_NUM = [
    "price_usd", "orig_destination_distance", "srch_length_of_stay",
    "srch_booking_window", "srch_adults_count", "srch_children_count",
]
_EXPEDIA_HOTEL_NUM = ["prop_review_score", "prop_location_score"]
# (table, column, cardinality) — categorical feature columns
_EXPEDIA_CATS = [
    ("searches", "site_id", 30), ("searches", "channel", 8),
    ("searches", "device", 6), ("searches", "month", 12),
    ("searches", "saturday_night", 2), ("searches", "random_bool", 2),
    ("hotels", "prop_country", 150), ("hotels", "prop_star", 5),
    ("hotels", "prop_chain", 50), ("hotels", "prop_cluster", 100),
    ("hotels", "prop_segment", 15), ("hotels", "prop_theme", 10),
    ("hotels", "prop_size", 6), ("destinations", "dest_region", 1200),
    ("destinations", "dest_market", 600), ("destinations", "dest_country", 150),
    ("destinations", "dest_type", 6), ("destinations", "dest_climate", 6),
    ("destinations", "dest_tier", 9),
    # filler tuned so total categories == 3957
    ("hotels", "prop_group", 3957 - (30 + 8 + 6 + 12 + 2 + 2 + 150 + 5 + 50
                                     + 100 + 15 + 10 + 6 + 1200 + 600 + 150
                                     + 6 + 6 + 9)),
]
_EXPEDIA_N_HOTELS = 3000
_EXPEDIA_N_DESTS = 2500


def _gen_dim(name: str, n_rows: int, cats: list[tuple[str, int]], key: str,
             num_cols: dict[str, tuple[float, float]], seed: int) -> pd.DataFrame:
    """Dim table: PK 1..n plus attribute columns; attribute i of row k is
    ``k % card`` so every category is guaranteed to appear (Table 1 exact)."""
    rng = np.random.default_rng(seed)
    pdf = pd.DataFrame({key: np.arange(1, n_rows + 1)})
    for i, (col, card) in enumerate(cats):
        assert card <= n_rows, f"{name}.{col}: card {card} > rows {n_rows}"
        perm = rng.permutation(n_rows)
        pdf[col] = [f"{col}_{v % card}" for v in perm]
    for col, (mu, sd) in num_cols.items():
        pdf[col] = rng.normal(mu, sd, n_rows).round(3)
    return pdf


def _gen_expedia(n: int, seed: int) -> dict[str, pd.DataFrame]:
    rng = np.random.default_rng(seed)
    by_table: dict[str, list[tuple[str, int]]] = {"searches": [], "hotels": [], "destinations": []}
    for t, c, card in _EXPEDIA_CATS:
        by_table[t].append((c, card))
    hotels = _gen_dim(
        "hotels", _EXPEDIA_N_HOTELS, by_table["hotels"], "prop_id",
        {"prop_review_score": (3.8, 0.8), "prop_location_score": (2.5, 1.0)},
        seed + 10,
    )
    dests = _gen_dim("destinations", _EXPEDIA_N_DESTS, by_table["destinations"],
                     "dest_id", {}, seed + 11)
    fact = pd.DataFrame(
        {
            "prop_id": rng.integers(1, _EXPEDIA_N_HOTELS + 1, n),
            "dest_id": rng.integers(1, _EXPEDIA_N_DESTS + 1, n),
            "price_usd": np.exp(rng.normal(4.8, 0.6, n)).round(2),
            "orig_destination_distance": np.exp(rng.normal(5.5, 1.2, n)).round(1),
            "srch_length_of_stay": rng.integers(1, 15, n).astype(float),
            "srch_booking_window": rng.integers(0, 200, n).astype(float),
            "srch_adults_count": rng.integers(1, 5, n).astype(float),
            "srch_children_count": rng.integers(0, 4, n).astype(float),
        }
    )
    for c, card in by_table["searches"]:
        fact[c] = [f"{c}_{v}" for v in rng.integers(0, card, n)]
    joined = fact.merge(hotels, on="prop_id").merge(dests, on="dest_id")
    fact[LABEL] = _planted_label(
        joined.loc[fact.index],
        _EXPEDIA_FACT_NUM + _EXPEDIA_HOTEL_NUM,
        [c for _, c, _ in _EXPEDIA_CATS],
        seed + 1,
    )
    return {"searches": fact, "hotels": hotels, "destinations": dests}


# ======================================================================
# Flights — 4 tables (flights ⨝ airlines ⨝ airports_src ⨝ airports_dst),
#           4 numeric + 33 categorical (6471 categories total)
# ======================================================================
_FLIGHTS_NUM = ["distance", "dep_delay", "taxi_out", "air_time"]
_FLIGHTS_FACT_CATS = [
    ("month", 12), ("day_of_week", 7), ("dep_hour", 24), ("arr_hour", 24),
    ("dep_block", 6), ("arr_block", 6), ("cancellation_code", 4),
    ("distance_group", 11), ("flight_type", 3),
]
_FLIGHTS_AIRLINE_CATS = [
    ("carrier", 20), ("carrier_region", 6), ("carrier_alliance", 4),
    ("carrier_type", 3),
]
_AIRPORT_CARD = {
    "city": 1400, "state": 52, "tier": 4, "tz": 7, "terminal": 5,
    "market": 500, "region": 9, "climate": 6, "hub": 3,
}
_FLIGHTS_N_AIRPORTS = 2000
_FLIGHTS_N_AIRLINES = 20

# 2 airport tables x 9 attrs + 9 fact + 4 airline = 31 cats... plus two
# high-card airport "name" attrs to land exactly on 33 cats / 6471 total.
_AIRPORT_EXTRA = 6471 - (
    sum(c for _, c in _FLIGHTS_FACT_CATS)
    + sum(c for _, c in _FLIGHTS_AIRLINE_CATS)
    + 2 * sum(_AIRPORT_CARD.values())
)


def _airport_cats(prefix: str) -> list[tuple[str, int]]:
    cats = [(f"{prefix}_{c}", card) for c, card in _AIRPORT_CARD.items()]
    # one extra high-card attr per airport table; split the remainder
    extra = _AIRPORT_EXTRA // 2 if prefix == "src" else _AIRPORT_EXTRA - _AIRPORT_EXTRA // 2
    cats.append((f"{prefix}_name", extra))
    return cats


def _gen_flights(n: int, seed: int) -> dict[str, pd.DataFrame]:
    rng = np.random.default_rng(seed)
    airlines = _gen_dim("airlines", _FLIGHTS_N_AIRLINES, _FLIGHTS_AIRLINE_CATS,
                        "airline_id", {}, seed + 20)
    ap_src = _gen_dim("airports_src", _FLIGHTS_N_AIRPORTS, _airport_cats("src"),
                      "src_airport_id", {}, seed + 21)
    ap_dst = _gen_dim("airports_dst", _FLIGHTS_N_AIRPORTS, _airport_cats("dst"),
                      "dst_airport_id", {}, seed + 22)
    fact = pd.DataFrame(
        {
            "airline_id": rng.integers(1, _FLIGHTS_N_AIRLINES + 1, n),
            "src_airport_id": rng.integers(1, _FLIGHTS_N_AIRPORTS + 1, n),
            "dst_airport_id": rng.integers(1, _FLIGHTS_N_AIRPORTS + 1, n),
            "distance": np.exp(rng.normal(6.5, 0.8, n)).round(0),
            "dep_delay": (rng.exponential(18, n) - 6).round(1),
            "taxi_out": rng.gamma(4, 4, n).round(1),
            "air_time": np.exp(rng.normal(4.7, 0.6, n)).round(0),
        }
    )
    for c, card in _FLIGHTS_FACT_CATS:
        fact[c] = [f"{c}_{v}" for v in rng.integers(0, card, n)]
    joined = (
        fact.merge(airlines, on="airline_id")
        .merge(ap_src, on="src_airport_id")
        .merge(ap_dst, on="dst_airport_id")
    )
    all_cats = (
        [c for c, _ in _FLIGHTS_FACT_CATS]
        + [c for c, _ in _FLIGHTS_AIRLINE_CATS]
        + [c for c, _ in _airport_cats("src")]
        + [c for c, _ in _airport_cats("dst")]
    )
    fact[LABEL] = _planted_label(joined.loc[fact.index], _FLIGHTS_NUM, all_cats, seed + 1)
    return {"flights": fact, "airlines": airlines,
            "airports_src": ap_src, "airports_dst": ap_dst}


# ======================================================================
# Registry
# ======================================================================
def _dim_domains(cats: list[tuple[str, int]]) -> dict[str, list[str]]:
    return {c: [f"{c}_{i}" for i in range(card)] for c, card in cats}


def get_spec(name: str) -> DatasetSpec:
    if name == "creditcard":
        return DatasetSpec("creditcard", "creditcard", list(_CREDIT_NUM), [])
    if name == "hospital":
        return DatasetSpec(
            "hospital", "hospital", list(_HOSPITAL_NUM),
            list(_HOSPITAL_CAT_CARDS),
            cat_domains=_hospital_domains(),
            partition_cols=["num_issues", "rcount"],
        )
    if name == "expedia":
        doms = _dim_domains([(c, card) for _, c, card in _EXPEDIA_CATS])
        return DatasetSpec(
            "expedia", "searches",
            _EXPEDIA_FACT_NUM + _EXPEDIA_HOTEL_NUM,
            list(doms),
            joins=[
                JoinSpec("hotels", "prop_id", "prop_id"),
                JoinSpec("destinations", "dest_id", "dest_id"),
            ],
            cat_domains=doms,
        )
    if name == "flights":
        doms = _dim_domains(_FLIGHTS_FACT_CATS + _FLIGHTS_AIRLINE_CATS
                            + _airport_cats("src") + _airport_cats("dst"))
        return DatasetSpec(
            "flights", "flights", list(_FLIGHTS_NUM),
            list(doms),
            joins=[
                JoinSpec("airlines", "airline_id", "airline_id"),
                JoinSpec("airports_src", "src_airport_id", "src_airport_id"),
                JoinSpec("airports_dst", "dst_airport_id", "dst_airport_id"),
            ],
            cat_domains=doms,
        )
    raise KeyError(name)


DATASETS = ("creditcard", "hospital", "expedia", "flights")

_GENERATORS = {
    "creditcard": _gen_creditcard,
    "hospital": _gen_hospital,
    "expedia": _gen_expedia,
    "flights": _gen_flights,
}


def generate(name: str, n_rows: int, seed: int = 0) -> dict[str, pd.DataFrame]:
    """All tables of a dataset; the fact table has ``n_rows`` rows and the
    label column (labels ride on the fact, as the paper's prediction target)."""
    return _GENERATORS[name](n_rows, seed)


def joined_frame(name: str, n_rows: int, seed: int = 0) -> pd.DataFrame:
    """Fact joined with all dims — the model's training/inference view."""
    spec = get_spec(name)
    tables = generate(name, n_rows, seed)
    out = tables[spec.fact]
    for j in spec.joins:
        out = out.merge(tables[j.dim_table], left_on=j.fact_key, right_on=j.dim_key)
    return out.reset_index(drop=True)


def train_pipeline_for(name: str, model_kind: str, *, n_train: int = 8000,
                       seed: int = 123, **hp):
    """Train (with disk caching) the paper's pipeline for a dataset:
    scaler + one-hot encoders + model, fit on a fresh training sample
    (the paper trains on 80% of the *original*, un-scaled datasets)."""
    from repro.ml.pipeline import fit_pipeline_cached

    spec = get_spec(name)
    frame = joined_frame(name, n_train, seed)
    return fit_pipeline_cached(
        frame,
        key=f"{name}/n{n_train}/s{seed}",
        num_cols=spec.num_cols,
        cat_cols=spec.cat_cols,
        label_col=LABEL,
        model_kind=model_kind,
        cat_domains=spec.cat_domains or None,
        **hp,
    )
