"""The Spark serving operator: schema, exactness vs kernels, DuckDB oracle,
what it broadcasts, ids as labels, and rejected input.

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
from repro.spark_ops.frames import VECTOR_SCHEMA, model_to_user_df
from repro.spark_ops.optimizer import recopt_serve
from repro.spark_ops.serving import serve_topk
from tests.oracle import assert_equivalent
from tests.validate import TOPK_ORACLE_SQL, matrix_to_long

FACTORIES = {
    "lemp": lambda m: LempIndex(m, bucket_size=16),
    "fexipro-si": lambda m: FexiproIndex(m, variant="SI"),
    "fexipro-sir": lambda m: FexiproIndex(m, variant="SIR"),
    "recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16),
}
STRATEGIES = {"mm": BlockedMM, **FACTORIES}


def _frame(spark, ids, features, n_partitions=None):
    pdf = pd.DataFrame({"id": np.asarray(ids, dtype=np.int64), "features": list(features)})
    df = spark.createDataFrame(pdf, schema=VECTOR_SCHEMA)
    return df if n_partitions is None else df.repartition(n_partitions)


def _collect(out, n_users, k):
    """``(user_ids, ids, scores)`` of a top-``k`` frame, one row per user, by user id."""
    pdf = out.toPandas().sort_values(["user_id", "rank"])
    users = pdf["user_id"].to_numpy().reshape(n_users, k)[:, 0]
    ids = pdf["item_id"].to_numpy().reshape(n_users, k)
    scores = pdf["score"].to_numpy().reshape(n_users, k)
    return users, ids, scores


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
    users, ids, scores = _collect(serve_topk(spark, users_df, FACTORIES[name](model), 3), model.m, 3)
    ref = BlockedMM(model).query_vectors(model.users, 3)
    np.testing.assert_array_equal(users, np.arange(model.m))
    np.testing.assert_array_equal(ids, ref.ids)
    np.testing.assert_array_equal(scores, ref.scores)


def test_partitioning_invariance(spark, model):
    """Same result from every strategy regardless of user partitioning."""
    k = 2
    for name, make in STRATEGIES.items():
        a, b = (
            serve_topk(spark, model_to_user_df(spark, model, n_partitions=p), make(model), k)
            .toPandas().sort_values(["user_id", "rank"]).reset_index(drop=True)
            for p in (1, 9)
        )
        assert a.equals(b), name


def test_k_exceeds_n_clamped(spark, model, users_df):
    for name, make in STRATEGIES.items():
        out = serve_topk(spark, users_df, make(model), 100)
        assert out.count() == model.m * model.n, name


def test_every_strategy_answers_features(spark, model):
    """Each row is answered from its ``features``, never from the model's row ``id``.

    Rows 0 and 1 carry the negated vectors of users 0 and 1; the last row's
    id is no user of the model.
    """
    k = 4
    features = np.vstack([-model.users[:2], [3.0, -1.0, 0.0, 2.0]])
    ids = np.array([0, 1, model.m + 7])
    want = BlockedMM(model).query_vectors(features, k)
    for name, make in STRATEGIES.items():
        users, got_ids, got_scores = _collect(
            serve_topk(spark, _frame(spark, ids, features), make(model), k), len(ids), k
        )
        np.testing.assert_array_equal(users, ids)
        np.testing.assert_array_equal(got_ids, want.ids, err_msg=name)
        np.testing.assert_array_equal(got_scores, want.scores, err_msg=name)


@pytest.mark.parametrize("name", [*STRATEGIES, "recopt"])
def test_ids_are_labels_against_oracle(spark, model, name):
    """Shuffled, negative and sparse ids come back unchanged, with DuckDB's top-K."""
    k = 3
    g = np.random.default_rng(5)
    perm = g.permutation(model.m)
    ids = np.arange(-3 * model.m, 3 * model.m, 6)[g.permutation(model.m)]
    users_df = _frame(spark, ids, model.users[perm], n_partitions=3)
    if name == "recopt":
        out, _ = recopt_serve(spark, users_df, model, FACTORIES, k=k, min_sample=8)
    else:
        out = serve_topk(spark, users_df, STRATEGIES[name](model), k)
    users_long = matrix_to_long(model.users[perm], "user_id")
    users_long["user_id"] = ids[users_long["user_id"]]
    assert_equivalent(
        out,
        TOPK_ORACLE_SQL.format(k=k),
        users_long=users_long,
        items_long=matrix_to_long(model.items, "item_id"),
    )


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


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_broadcast_is_built_strategy_without_users(spark, model, users_df, broadcasts, name):
    """One value is broadcast: a built copy of the strategy whose model holds no user row."""
    strategy = STRATEGIES[name](model)
    out = serve_topk(spark, users_df, strategy, 3)
    assert strategy.built
    assert len(broadcasts) == 1
    shipped = broadcasts[0]
    assert type(shipped) is type(strategy) and shipped.built
    assert shipped.model.users.shape == (0, model.f)
    np.testing.assert_array_equal(shipped.model.items, model.items)
    assert strategy.model is model
    assert out.count() == model.m * 3


@pytest.mark.parametrize("k", [0, -1, 2.5])
@pytest.mark.parametrize("name", ["mm", "lemp"])
def test_k_below_one_rejected(spark, model, users_df, name, k):
    strategy = BlockedMM(model) if name == "mm" else FACTORIES[name](model)
    with pytest.raises(ValueError, match="k must be"):
        serve_topk(spark, users_df, strategy, k)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[np.nan, 0.0, 1.0, 2.0]], "finite"),
        ([[np.inf, 0.0, 1.0, 2.0]], "finite"),
        ([[1.0, 2.0]], "length 4"),
        # Lengths f−1 and f+1 sum to a multiple of f: only a per-row check catches them.
        ([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0]], "length 4"),
    ],
    ids=["nan", "inf", "short", "short-and-long"],
)
def test_mm_rejects_bad_features(spark, model, bad, message):
    """A bad feature row must fail in every strategy, not come back as duplicate ids scored -inf."""
    rows = [list(model.users[0]), *bad]
    users_df = spark.createDataFrame(
        pd.DataFrame({"id": range(len(rows)), "features": rows}),
        schema=VECTOR_SCHEMA,
    )
    for name, make in STRATEGIES.items():
        out = serve_topk(spark, users_df, make(model), 3)
        with pytest.raises(PythonException, match=message):
            out.collect()
