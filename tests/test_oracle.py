"""Tests for the DuckDB oracle itself — it must catch wrong results."""
import numpy as np
import pandas as pd
import pytest

from repro.indexes.brute_force import BlockedMM
from repro.mf.models import MFModel
from repro.spark_ops.frames import model_to_user_df
from repro.spark_ops.serving import serve_topk
from tests.oracle import assert_equivalent
from tests.validate import TOPK_ORACLE_SQL, matrix_to_long


def test_oracle_accepts_matching_aggregate(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    sdf = spark.createDataFrame(pdf)
    out = sdf.groupBy("k").sum("v").withColumnRenamed("sum(v)", "s")
    assert_equivalent(out, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_wrong_result(spark):
    pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
    sdf = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "s": [99.0, 2.0]}))
    with pytest.raises(AssertionError):
        assert_equivalent(sdf, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_column_mismatch(spark):
    pdf = pd.DataFrame({"k": [1], "v": [1.0]})
    sdf = spark.createDataFrame(pd.DataFrame({"wrong": [1]}))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(sdf, "SELECT k FROM t", t=pdf)


def test_topk_oracle_sql_catches_corrupted_topk(spark):
    """End-to-end: a deliberately corrupted serving output must fail."""
    g = np.random.default_rng(0)
    model = MFModel(
        name="x",
        users=g.integers(-3, 4, size=(10, 3)).astype(float),
        items=g.integers(-3, 4, size=(8, 3)).astype(float),
    )
    users_df = model_to_user_df(spark, model)
    good = serve_topk(spark, users_df, BlockedMM(model), 2)
    corrupted = good.withColumn(
        "item_id", (good.item_id + 1) % 8  # shift every returned item
    )
    kwargs = dict(
        users_long=matrix_to_long(model.users, "user_id"),
        items_long=matrix_to_long(model.items, "item_id"),
    )
    assert_equivalent(good, TOPK_ORACLE_SQL.format(k=2), **kwargs)
    with pytest.raises(AssertionError):
        assert_equivalent(corrupted, TOPK_ORACLE_SQL.format(k=2), **kwargs)
