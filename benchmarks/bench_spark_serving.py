"""Distributed-operator benchmarks: the mapInPandas serving path.

Times the Spark DataFrame operators end-to-end (plan + shuffle + Arrow +
kernel) for MM and RECDEX on one grid model, demonstrating the
per-partition vectorized layering from DESIGN.md §4.
"""
import pytest

from repro.core.recdex import RecdexIndex
from repro.indexes.brute_force import BlockedMM
from repro.spark_ops.frames import model_to_user_df
from repro.spark_ops.serving import serve_topk

K = 10


@pytest.fixture(scope="module")
def served(spark, grid_models):
    model = grid_models["kdd-f16-hi"]
    users_df = model_to_user_df(spark, model, n_partitions=8).cache()
    users_df.count()  # materialize the cache outside the timed region
    return model, users_df


def test_bench_spark_mm_topk(benchmark, spark, served):
    model, users_df = served
    n = benchmark.pedantic(
        lambda: serve_topk(spark, users_df, BlockedMM(model), K).count(), rounds=3, iterations=1
    )
    assert n == model.m * K


def test_bench_spark_recdex_topk(benchmark, spark, served):
    model, users_df = served
    factory = lambda m: RecdexIndex(m, block=max(32, m.n // 8), walk_chunk=32)
    n = benchmark.pedantic(
        lambda: serve_topk(spark, users_df, factory(model), K).count(),
        rounds=3,
        iterations=1,
    )
    assert n == model.m * K
