"""The model cache treats an unreadable entry as a miss: it logs the entry,
rebuilds it and rewrites it atomically instead of failing the caller. An
entry written under another cache version is a miss too."""
import logging
import pickle

import numpy as np
import pandas as pd

from repro.core import corpus
from repro.ml import pipeline as ml_pipeline

#: what a damaged entry looks like to pickle ("invalid load key")
GARBAGE = b"\x00\x01 not a pickle"


def _rebuilds_garbage_entry(tmp_path, caplog, pattern, build):
    build()  # miss: writes the entry
    [path] = tmp_path.glob(pattern)
    path.write_bytes(GARBAGE)
    with caplog.at_level(logging.WARNING, logger="repro.ml.pipeline"):
        rebuilt = build()
    assert "unreadable model cache entry" in caplog.text
    with open(path, "rb") as f:
        return rebuilt, pickle.load(f)


def test_garbage_pipeline_entry_is_rebuilt(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(ml_pipeline, "CACHE_DIR", str(tmp_path))
    rng = np.random.default_rng(0)
    pdf = pd.DataFrame(
        {"x": rng.standard_normal(80), "c": rng.choice(["a", "b"], 80)}
    )
    pdf["label"] = (pdf.x > 0).astype(int)
    rebuilt, on_disk = _rebuilds_garbage_entry(
        tmp_path, caplog, "pipeline_*.pkl",
        lambda: ml_pipeline.fit_pipeline_cached(
            pdf, "tiny", num_cols=["x"], cat_cols=["c"], label_col="label",
            model_kind="dt", max_depth=2,
        ),
    )
    np.testing.assert_array_equal(on_disk.predict(pdf), rebuilt.predict(pdf))


def test_garbage_corpus_entry_is_rebuilt(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(ml_pipeline, "CACHE_DIR", str(tmp_path))
    # a corpus with no members: nothing is trained or priced
    rebuilt, on_disk = _rebuilds_garbage_entry(
        tmp_path, caplog, "corpus_*.pkl",
        lambda: corpus.build_corpus(corpus.price_duckdb, 0, n_rows_eval=10, seed=1),
    )
    assert rebuilt == on_disk == []


def test_entry_of_another_cache_version_is_not_read(tmp_path, monkeypatch):
    monkeypatch.setattr(ml_pipeline, "CACHE_DIR", str(tmp_path))
    version = ml_pipeline.CACHE_VERSION
    monkeypatch.setattr(ml_pipeline, "CACHE_VERSION", version - 1)
    assert ml_pipeline.load_or_build("corpus", "k", lambda: "old") == "old"
    monkeypatch.setattr(ml_pipeline, "CACHE_VERSION", version)
    assert ml_pipeline.load_or_build("corpus", "k", lambda: "new") == "new"
    assert len(list(tmp_path.glob("corpus_*.pkl"))) == 2
