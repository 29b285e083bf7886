"""Round-trip tests for the MFModel → user DataFrame conversion."""
import numpy as np
import pytest

from repro.mf.models import tiny_model
from repro.spark_ops.frames import model_to_user_df


def _to_matrix(df):
    """Collect a ``(id, features)`` frame into rows placed at their ``id``."""
    pdf = df.toPandas()
    out = np.zeros((len(pdf), len(pdf["features"].iloc[0])))
    out[pdf["id"].to_numpy()] = np.stack(pdf["features"].to_numpy())
    return out


@pytest.fixture(scope="module")
def model():
    return tiny_model(m=25, n=15, f=5, seed=0)


def test_user_df_schema(spark, model):
    df = model_to_user_df(spark, model)
    assert [f.name for f in df.schema.fields] == ["id", "features"]
    assert df.count() == model.m


def test_round_trip_users(spark, model):
    df = model_to_user_df(spark, model)
    np.testing.assert_allclose(_to_matrix(df), model.users)


def test_round_trip_survives_repartition(spark, model):
    df = model_to_user_df(spark, model, n_partitions=7)
    assert df.rdd.getNumPartitions() == 7
    np.testing.assert_allclose(_to_matrix(df), model.users)
