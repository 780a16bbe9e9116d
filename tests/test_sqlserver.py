"""Tests for the DuckDB-backed "SQL Server" engine and the MADlib-style
baseline: result parity across paths, DOP control, and the PostgreSQL
column-limit behaviour the paper reports."""
import numpy as np
import pandas as pd
import pytest

from repro.core.optimizer import OptimizerConfig, RavenOptimizer
from repro.core.parser import parse_prediction_query
from repro.core.predicate_pruning import Predicate
from repro.core.session import dataset_query
from repro.data import datasets as ds
from repro.ir.builder import build_pipeline_ir
from repro.ml.pipeline import fit_pipeline
from repro.runtime import dnn_rt
from repro.sqlserver.engine import SqlServerSim, data_select_sql
from repro.sqlserver.madlib import madlib_supported, run_madlib


@pytest.fixture(scope="module")
def hosp():
    spec = ds.get_spec("hospital")
    tables = ds.generate("hospital", 4000, seed=61)
    frame = ds.joined_frame("hospital", 4000, seed=61)
    return spec, tables, frame


def _ir(spec, frame, kind, **kw):
    tp = fit_pipeline(
        frame, spec.num_cols, spec.cat_cols, ds.LABEL, kind,
        cat_domains=spec.cat_domains or None, **kw,
    )
    return build_pipeline_ir(tp)


class TestDataSelectSql:
    def test_single_table(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=4)
        q = dataset_query(spec, p, tables)
        sql = data_select_sql(q, ["bmi", "asthma"])
        assert sql.startswith("SELECT bmi, asthma FROM hospital")

    def test_joins_and_where(self):
        spec = ds.get_spec("expedia")
        tables = ds.generate("expedia", 500, seed=62)
        frame = ds.joined_frame("expedia", 500, seed=62)
        p = _ir(spec, frame, "dt", max_depth=3)
        q = dataset_query(
            spec, p, tables, where=[Predicate("price_usd", ">", 100.0)]
        )
        sql = data_select_sql(q, ["price_usd"])
        assert "JOIN hotels ON searches.prop_id = hotels.prop_id" in sql
        assert "WHERE price_usd > 100.0" in sql


class TestSqlServerSim:
    @pytest.mark.parametrize("kind,kw", [("dt", {"max_depth": 6}), ("lr", {"l1": 0.02})])
    def test_raven_sql_matches_predict_statement(self, hosp, kind, kw):
        spec, tables, frame = hosp
        p = _ir(spec, frame, kind, **kw)
        q = dataset_query(spec, p, tables)
        plan = RavenOptimizer(OptimizerConfig(runtime="sql")).optimize(q)
        assert plan.runtime == "sql"
        eng = SqlServerSim(tables, threads=4)
        try:
            base = eng.run_predict_statement(q, p)
            opt = eng.run_raven_sql(plan)
        finally:
            eng.close()
        a = base.agg.set_index("prediction")["n"]
        b = opt.agg.set_index("prediction")["n"]
        assert abs(a.sub(b, fill_value=0)).sum() <= 0.006 * len(frame)

    def test_where_predicate_respected(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=5)
        q = dataset_query(spec, p, tables, where=[Predicate("asthma", "=", "1")])
        eng = SqlServerSim(tables, threads=4)
        try:
            res = eng.run_predict_statement(q, p)
        finally:
            eng.close()
        assert res.agg["n"].sum() == (frame.asthma == "1").sum()

    def test_quoted_string_literal(self):
        # the parser unescapes 'O''Brien'; the engine must re-escape it
        rng = np.random.default_rng(64)
        t = pd.DataFrame(
            {
                "x": rng.standard_normal(600),
                "owner": rng.choice(["O'Brien", "Smith", "Lee"], 600),
            }
        )
        t["label"] = ((t.x > 0) | (t.owner == "O'Brien")).astype(int)
        p = build_pipeline_ir(
            fit_pipeline(t, ["x"], ["owner"], "label", "dt", max_depth=3)
        )
        q = parse_prediction_query(
            "SELECT PREDICT(m, *) AS prediction FROM people "
            "WHERE owner = 'O''Brien'",
            {"m": p}, {"people": ["x", "owner"]},
        )
        assert q.where[0].value == "O'Brien"
        plan = RavenOptimizer(OptimizerConfig(runtime="sql")).optimize(q)
        eng = SqlServerSim({"people": t.drop(columns="label")}, threads=1)
        try:
            base = eng.run_predict_statement(q, p)
            opt = eng.run_raven_sql(plan)
        finally:
            eng.close()
        assert base.agg["n"].sum() == (t.owner == "O'Brien").sum()
        pd.testing.assert_frame_equal(base.agg, opt.agg, check_dtype=False)

    @pytest.mark.parametrize("runtime", ["sql", "none"])
    def test_fully_pruned_pipeline(self, runtime):
        # an all-zero L1 model reads no input column: the data select
        # must still yield one row per qualifying tuple
        spec = ds.get_spec("creditcard")
        tables = ds.generate("creditcard", 2000, seed=65)
        p = _ir(spec, tables["creditcard"], "lr", l1=10.0)
        assert not np.any(p.model_node.attrs["coef"])
        q = dataset_query(spec, p, tables)
        plan = RavenOptimizer(OptimizerConfig(runtime=runtime)).optimize(q)
        assert plan.runtime == runtime and plan.input_cols == []
        eng = SqlServerSim(tables, threads=1)
        try:
            base = eng.run_predict_statement(q, p)
            if runtime == "sql":
                opt = eng.run_raven_sql(plan)
            else:
                opt = eng.run_raven_predict(plan)
        finally:
            eng.close()
        assert opt.agg["n"].tolist() == [2000]
        pd.testing.assert_frame_equal(base.agg, opt.agg, check_dtype=False)

    def test_dop_control(self, hosp):
        spec, tables, frame = hosp
        for threads in (1, 16):
            eng = SqlServerSim(tables, threads=threads)
            try:
                got = eng.con.execute("SELECT current_setting('threads')").fetchone()[0]
                assert int(got) == threads
            finally:
                eng.close()

    def test_raven_predict_path_prunes_columns(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=3)
        q = dataset_query(spec, p, tables)
        plan = RavenOptimizer(OptimizerConfig(runtime="none")).optimize(q)
        assert len(plan.input_cols) < len(p.input_cols)
        eng = SqlServerSim(tables, threads=4)
        try:
            base = eng.run_predict_statement(q, p)
            opt = eng.run_raven_predict(plan)
        finally:
            eng.close()
        pd.testing.assert_frame_equal(base.agg, opt.agg)

    def test_raven_predict_runs_dnn_plan(self, hosp, monkeypatch):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "gb", max_depth=3, n_estimators=5)
        plan = RavenOptimizer(OptimizerConfig(runtime="dnn")).optimize(
            dataset_query(spec, p, tables)
        )
        assert plan.runtime == "dnn"
        batches = []
        predict = dnn_rt.DnnModel.predict

        def spy(model, pdf):
            batches.append(len(pdf))
            return predict(model, pdf)

        monkeypatch.setattr(dnn_rt.DnnModel, "predict", spy)
        eng = SqlServerSim(tables, threads=1)
        try:
            res = eng.run_raven_predict(plan)
        finally:
            eng.close()
        rows = tables[spec.fact][plan.input_cols]
        assert sum(batches) == len(rows)
        label, _ = predict(dnn_rt.compile_to_dnn(plan.pipeline), rows)
        k, n = np.unique(label, return_counts=True)
        assert res.agg["prediction"].tolist() == k.tolist()
        assert res.agg["n"].tolist() == n.tolist()


class TestMadlib:
    def test_matches_engine_result(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=5)
        q = dataset_query(spec, p, tables)
        res = run_madlib(tables, q, p)
        eng = SqlServerSim(tables, threads=1)
        try:
            base = eng.run_predict_statement(q, p)
        finally:
            eng.close()
        a = base.agg.set_index("prediction")["n"]
        b = res.agg.set_index("prediction")["n"]
        assert abs(a.sub(b, fill_value=0)).sum() <= 0.006 * len(frame)

    def test_rf_supported(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "rf", max_depth=4, n_estimators=5)
        q = dataset_query(spec, p, tables)
        res = run_madlib(tables, q, p)
        assert res.agg["n"].sum() == len(frame)

    def test_wide_datasets_hit_column_limit(self):
        """Expedia/Flights exceed PostgreSQL's 1,600 columns (paper skips)."""
        spec = ds.get_spec("expedia")
        frame = ds.joined_frame("expedia", 600, seed=63)
        p = _ir(spec, frame, "dt", max_depth=3)
        assert not madlib_supported(p)
        tables = ds.generate("expedia", 600, seed=63)
        q = dataset_query(spec, p, tables)
        with pytest.raises(ValueError, match="1600-column"):
            run_madlib(tables, q, p)

    def test_narrow_supported(self, hosp):
        spec, tables, frame = hosp
        p = _ir(spec, frame, "dt", max_depth=4)
        assert madlib_supported(p)
