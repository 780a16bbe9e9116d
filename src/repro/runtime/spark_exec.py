"""Physical execution of (optimized) prediction queries on Apache Spark.

The relational part of a :class:`repro.core.optimizer.PhysicalPlan` (scans,
equi-joins, WHERE filters, projection) is the SQL text of
:func:`repro.core.ml2sql.data_select_sql` — the statement DuckDB runs —
planned by Spark SQL and Catalyst. The PREDICT step is either

- the MLtoSQL projection of :mod:`repro.core.ml2sql` (pure Catalyst —
  Spark's optimizer then pushes the referenced columns/filters further), or
- an Arrow-vectorized ``mapInPandas`` UDF driving an ML runtime over 10k-
  row batches — the architecture of the paper's Raven Python UDF (§6).
  The pipeline ships to the Python workers inside the UDF's closure and
  is deserialized once per task.

Results are materialized with the ``noop`` data source (the stand-in for
the paper's "write to HDFS" measurement sink — full execution, no local
disk noise).
"""
from __future__ import annotations

from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.ml2sql import data_select_sql, output_filter_sql, prediction_columns_sql
from repro.core.optimizer import PhysicalPlan
from repro.core.query import PredictionQuery

#: paper §6: vectorized-UDF batch size of 10k tuples
UDF_BATCH_ROWS = 10_000


def build_input_df(
    catalog: dict[str, DataFrame], query: PredictionQuery, select_cols: list[str]
) -> DataFrame:
    """Joins + filters + projection of the model's input columns.

    The query's tables become temp views right before ``spark.sql`` reads
    them: the returned DataFrame holds the analyzed plan, so other
    catalogs may reuse the same table names in this SparkSession."""
    for name in [query.fact] + [j.dim_table for j in query.joins]:
        catalog[name].createOrReplaceTempView(name)
    return catalog[query.fact].sparkSession.sql(data_select_sql(query, select_cols))


def _prediction_schema(df: DataFrame) -> T.StructType:
    return T.StructType(
        list(df.schema.fields)
        + [
            T.StructField("prediction", T.LongType()),
            T.StructField("score", T.DoubleType()),
        ]
    )


def with_predict_udf(
    df: DataFrame,
    pipeline,
    runtime: str = "onnx",
    partition_models=None,
    partition_col: str | None = None,
) -> DataFrame:
    """Attach prediction/score columns through the vectorized UDF."""
    if runtime == "dnn":
        from repro.runtime.dnn_rt import compile_to_dnn

        dnn = compile_to_dnn(pipeline)

        def run_batch(pdf: pd.DataFrame):
            return dnn.predict(pdf)

    elif runtime == "reference":
        from repro.runtime import reference_rt

        def run_batch(pdf: pd.DataFrame):
            return reference_rt.run(pipeline, pdf)

    else:
        from repro.runtime import onnx_rt

        if partition_models is not None:
            models = {v: m for v, m in partition_models.models.items()}

            def run_batch(pdf: pd.DataFrame):
                label = pd.Series(0, index=pdf.index, dtype="int64")
                score = pd.Series(0.0, index=pdf.index)
                for v, part in pdf.groupby(partition_col, sort=False):
                    m = models[str(v)]
                    l, s = onnx_rt.run(m, part)
                    label.loc[part.index] = l
                    score.loc[part.index] = s
                return label.to_numpy(), score.to_numpy()

        else:

            def run_batch(pdf: pd.DataFrame):
                return onnx_rt.run(pipeline, pdf)

    def mapper(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            label, score = run_batch(pdf)
            out = pdf.copy()
            out["prediction"] = label
            out["score"] = score
            yield out

    return df.mapInPandas(mapper, schema=_prediction_schema(df))


def execute_plan(catalog: dict[str, DataFrame], plan: PhysicalPlan) -> DataFrame:
    """Full query: data plan -> PREDICT -> output filter."""
    query = plan.query
    df = build_input_df(catalog, query, list(plan.input_cols))

    if plan.runtime == "sql":
        df = df.selectExpr("*", *prediction_columns_sql(plan.sql))
    else:
        df = with_predict_udf(
            df,
            plan.pipeline,
            runtime="dnn" if plan.runtime == "dnn" else "onnx",
            partition_models=plan.partition_models,
            partition_col=query.partition_col,
        )

    if query.output_filter is not None:
        df = df.filter(output_filter_sql(query.output_filter))
    return df


def sink(df: DataFrame) -> None:
    """Fully execute a query without materializing results locally."""
    df.write.format("noop").mode("overwrite").save()


def register_pandas_tables(
    spark: SparkSession, tables: dict[str, pd.DataFrame]
) -> dict[str, DataFrame]:
    """pandas -> cached Spark DataFrames (benchmarks pre-cache inputs so
    timings measure the query, not the driver-side upload)."""
    out = {}
    for name, pdf in tables.items():
        df = spark.createDataFrame(pdf).cache()
        df.count()  # materialize the cache now
        out[name] = df
    return out
