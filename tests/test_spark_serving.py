"""The Spark serving operator: schema, exactness vs kernels, DuckDB oracle,
what each partition body broadcasts, and rejected input.

Oracle checks use small-integer models so float64 arithmetic is exact on
both sides (Spark/NumPy vs DuckDB SUM) and ranks are deterministic.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException

from repro.core.recdex import RecdexIndex
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex
from repro.mf.models import MFModel
from repro.oracle import assert_equivalent
from repro.spark_ops.frames import VECTOR_SCHEMA, model_to_user_df
from repro.spark_ops.serving import serve_topk
from repro.validate import TOPK_ORACLE_SQL, matrix_to_long

FACTORIES = {
    "lemp": lambda m: LempIndex(m, bucket_size=16),
    "fexipro-si": lambda m: FexiproIndex(m, variant="SI"),
    "fexipro-sir": lambda m: FexiproIndex(m, variant="SIR"),
    "recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16, walk_chunk=8),
}


def int_model(m=30, n=20, f=4, seed=0):
    g = np.random.default_rng(seed)
    return MFModel(
        name=f"int-{m}x{n}x{f}",
        users=g.integers(-4, 5, size=(m, f)).astype(np.float64),
        items=g.integers(-4, 5, size=(n, f)).astype(np.float64),
    )


@pytest.fixture(scope="module")
def model():
    return int_model()


@pytest.fixture(scope="module")
def users_df(spark, model):
    return model_to_user_df(spark, model, n_partitions=4).cache()


def test_output_schema(spark, model, users_df):
    out = serve_topk(spark, users_df, BlockedMM(model), 3)
    assert [f.name for f in out.schema.fields] == ["user_id", "item_id", "rank", "score"]


def test_mm_row_count(spark, model, users_df):
    out = serve_topk(spark, users_df, BlockedMM(model), 3)
    assert out.count() == model.m * 3


@pytest.mark.parametrize("k", [1, 5])
def test_mm_against_oracle(spark, model, users_df, k):
    out = serve_topk(spark, users_df, BlockedMM(model), k)
    assert_equivalent(
        out,
        TOPK_ORACLE_SQL.format(k=k),
        users_long=matrix_to_long(model.users, "user_id"),
        items_long=matrix_to_long(model.items, "item_id"),
    )


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_index_operator_against_oracle(spark, model, users_df, name):
    out = serve_topk(spark, users_df, FACTORIES[name](model), 4)
    assert_equivalent(
        out,
        TOPK_ORACLE_SQL.format(k=4),
        users_long=matrix_to_long(model.users, "user_id"),
        items_long=matrix_to_long(model.items, "item_id"),
    )


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_index_operator_matches_driver_kernel(spark, model, users_df, name):
    """The distributed operator must agree with the single-process strategy."""
    out = (
        serve_topk(spark, users_df, FACTORIES[name](model), 3)
        .toPandas()
        .sort_values(["user_id", "rank"])
    )
    ref = BlockedMM(model).query_all(3)
    got_ids = out["item_id"].to_numpy().reshape(model.m, 3)
    got_scores = out["score"].to_numpy().reshape(model.m, 3)
    order = np.argsort(out["user_id"].to_numpy().reshape(model.m, 3)[:, 0])
    np.testing.assert_array_equal(got_ids[order], ref.ids)
    np.testing.assert_array_equal(got_scores[order], ref.scores)


def test_partitioning_invariance(spark, model):
    """Same result regardless of user partitioning."""
    k = 2
    a = (
        serve_topk(spark, model_to_user_df(spark, model, n_partitions=1), BlockedMM(model), k)
        .toPandas().sort_values(["user_id", "rank"]).reset_index(drop=True)
    )
    b = (
        serve_topk(spark, model_to_user_df(spark, model, n_partitions=9), BlockedMM(model), k)
        .toPandas().sort_values(["user_id", "rank"]).reset_index(drop=True)
    )
    assert a.equals(b)


def test_k_exceeds_n_clamped(spark, model, users_df):
    out = serve_topk(spark, users_df, BlockedMM(model), 100)
    assert out.count() == model.m * model.n


@pytest.fixture
def broadcasts(spark, monkeypatch):
    """Every value ``serve_topk`` broadcasts, in order."""
    sent = []
    broadcast = spark.sparkContext.broadcast

    def record(value):
        sent.append(value)
        return broadcast(value)

    monkeypatch.setattr(spark.sparkContext, "broadcast", record)
    return sent


def test_mm_broadcasts_items_only(spark, model, users_df, broadcasts):
    """MM answers from each row's features, so the user matrix stays home."""
    out = serve_topk(spark, users_df, BlockedMM(model), 3)
    assert len(broadcasts) == 1
    assert isinstance(broadcasts[0], np.ndarray)
    np.testing.assert_array_equal(broadcasts[0], model.items)
    assert out.count() == model.m * 3


def test_index_broadcasts_built_strategy(spark, model, users_df, broadcasts):
    strategy = FACTORIES["recdex"](model)
    serve_topk(spark, users_df, strategy, 3)
    assert len(broadcasts) == 1 and broadcasts[0] is strategy
    assert strategy.built


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("name", ["mm", "lemp"])
def test_k_below_one_rejected(spark, model, users_df, name, k):
    strategy = BlockedMM(model) if name == "mm" else FACTORIES[name](model)
    with pytest.raises(ValueError):
        serve_topk(spark, users_df, strategy, k)


@pytest.mark.parametrize("where", ["negative", "past-end"])
def test_index_rejects_ids_outside_model(spark, model, where):
    """A bad id must fail, not wrap to another user's vector or die in a kernel."""
    bad_id = -1 if where == "negative" else model.m
    users_df = spark.createDataFrame(
        pd.DataFrame({"id": [0, bad_id], "features": list(model.users[:2])}),
        schema=VECTOR_SCHEMA,
    )
    out = serve_topk(spark, users_df, FACTORIES["lemp"](model), 3)
    with pytest.raises(PythonException, match="user ids must lie in"):
        out.collect()


@pytest.mark.parametrize(
    "bad, message",
    [
        ([np.nan, 0.0, 1.0, 2.0], "finite"),
        ([np.inf, 0.0, 1.0, 2.0], "finite"),
        ([1.0, 2.0], "length 4"),
    ],
    ids=["nan", "inf", "short"],
)
def test_mm_rejects_bad_features(spark, model, bad, message):
    """A bad feature row must fail, not come back as duplicate ids scored -inf."""
    users_df = spark.createDataFrame(
        pd.DataFrame({"id": [0, 1], "features": [list(model.users[0]), bad]}),
        schema=VECTOR_SCHEMA,
    )
    out = serve_topk(spark, users_df, BlockedMM(model), 3)
    with pytest.raises(PythonException, match=message):
        out.collect()
