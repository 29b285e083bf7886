"""RECOPT over Spark: distributed serving with the sampled winner."""
import numpy as np
import pytest

from repro.core.recdex import RecdexIndex
from repro.indexes.lemp import LempIndex
from repro.mf.models import MFModel
from repro.spark_ops.frames import model_to_user_df
from repro.spark_ops.optimizer import recopt_serve
from tests.oracle import assert_equivalent
from tests.validate import TOPK_ORACLE_SQL, matrix_to_long


@pytest.fixture(scope="module")
def model():
    g = np.random.default_rng(3)
    return MFModel(
        name="int-opt",
        users=g.integers(-4, 5, size=(60, 5)).astype(np.float64),
        items=g.integers(-4, 5, size=(25, 5)).astype(np.float64),
    )


def test_recopt_serve_exact(spark, model):
    users_df = model_to_user_df(spark, model, n_partitions=3)
    out, report = recopt_serve(
        spark,
        users_df,
        model,
        {"recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16)},
        k=3,
        min_sample=16,
    )
    assert report.chosen in ("mm", "recdex")
    assert_equivalent(
        out,
        TOPK_ORACLE_SQL.format(k=3),
        users_long=matrix_to_long(model.users, "user_id"),
        items_long=matrix_to_long(model.items, "item_id"),
    )


def test_recopt_serve_three_way_report(spark, model):
    users_df = model_to_user_df(spark, model, n_partitions=2)
    out, report = recopt_serve(
        spark,
        users_df,
        model,
        {
            "recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16),
            "lemp": lambda m: LempIndex(m, bucket_size=8),
        },
        k=2,
        min_sample=16,
    )
    assert set(report.est_totals) == {"mm", "recdex", "lemp"}
    assert out.count() == model.m * 2
