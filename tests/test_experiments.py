"""Tests for the experiment harnesses (reduced scale)."""
import numpy as np
import pandas as pd
import pytest

from repro.experiments import fig5, fig6, fig8, table1, table2
from repro.experiments.grid import LEVELS, reference_grid, strategy_factories
from repro.mf.models import concentration_model


@pytest.fixture(scope="module")
def small_models():
    return reference_grid(scale=0.03)[:4]  # netflix analogs, both f and levels


@pytest.fixture(scope="module")
def times(small_models):
    return fig6.end_to_end(small_models, ks=(1, 5))


# --- grid ----------------------------------------------------------------

def test_grid_has_16_models():
    grid = reference_grid(scale=0.01)
    assert len(grid) == 16
    assert len({m.name for m in grid}) == 16


def test_grid_deterministic():
    a = reference_grid(scale=0.01)
    b = reference_grid(scale=0.01)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.users, y.users)


def test_grid_levels_differ_in_concentration():
    grid = {m.name: m for m in reference_grid(scale=0.05)}
    lo = grid["kdd-f16-lo"]
    hi = grid["kdd-f16-hi"]

    def tightness(m):
        u = m.users / np.linalg.norm(m.users, axis=1, keepdims=True)
        return np.linalg.norm(u.mean(axis=0))

    assert tightness(hi) > tightness(lo)


def test_factories_cover_all_strategies(small_models):
    fac = strategy_factories(small_models[0])
    assert set(fac) == {"mm", "lemp", "fexipro-si", "fexipro-sir", "recdex"}
    for f in fac.values():
        strat = f(small_models[0])
        res = strat.query_vectors(small_models[0].users, 2)
        assert res.ids.shape == (small_models[0].m, 2)


def test_factories_size_heads_from_item_count():
    """The scale-1 grid serves LEMP with a bucket of n/16 and RECDEX with B = n/8, each floored at 32."""
    for model in reference_grid(scale=1):
        fac = strategy_factories(model)
        assert fac["lemp"](model).bucket_size == max(32, model.n // 16)
        assert fac["recdex"](model).block == max(32, model.n // 8)


# --- fig6 ----------------------------------------------------------------

def test_end_to_end_frame_shape(times, small_models):
    assert set(times.columns) == {"model", "k", "strategy", "build_s", "query_s", "total_s"}
    assert len(times) == len(small_models) * 2 * 5


def test_end_to_end_times_positive(times):
    assert (times["total_s"] > 0).all()
    np.testing.assert_allclose(
        times["total_s"], times["build_s"] + times["query_s"], rtol=1e-9
    )


def test_summarize_keys(times):
    s = fig6.summarize(times)
    assert s["n_combinations"] == len(times) // 5
    assert "recdex_vs_lemp_avg_speedup" in s
    total = sum(v for k, v in s.items() if k.startswith("fastest_count_"))
    assert total == s["n_combinations"]


# --- table1 --------------------------------------------------------------

def test_table1_contents():
    t = table1.dataset_table(scale=0.02)
    assert set(t.index) == {"netflix", "kdd", "r2", "glove"}
    assert (t["analog_users"] > 0).all()
    # Aspect ratios preserved in direction.
    assert (
        (t["paper_user_item_ratio"] > 1) == (t["analog_user_item_ratio"] > 1)
    ).all()


# --- table2 --------------------------------------------------------------

def test_optimizer_table(times, small_models):
    configs = {"MM + RECDEX": ("recdex",), "MM + LEMP + RECDEX": ("lemp", "recdex")}
    table, detail = table2.optimizer_table(
        times, small_models, ks=(1, 5), configs=configs, min_sample=16
    )
    assert list(table.index) == list(configs)
    assert ((0 <= table["accuracy"]) & (table["accuracy"] <= 1)).all()
    assert np.isnan(table.loc["MM + LEMP + RECDEX", "index_only_speedup_vs_lemp"])
    assert len(detail) == 2 * len(small_models) * 2
    assert set(detail["chosen"]) <= {"mm", "lemp", "recdex"}


def test_paper_table2_reference_is_complete():
    assert list(table2.PAPER_TABLE2.index) == list(table2.CONFIGS)


# --- fig5 ----------------------------------------------------------------

def test_lambda_sweep_frame():
    sweep = fig5.lambda_sweep(
        datasets=("netflix",), f=6, scale=0.02, lambdas=(0.01, 1.0), n_iters=2
    )
    assert len(sweep) == 2 * 3  # 2 lambdas x 3 strategies
    assert (sweep["total_s"] > 0).all()
    s = fig5.summarize(sweep)
    assert "netflix_mm_spread" in s and s["netflix_mm_spread"] >= 1


# --- fig8 ----------------------------------------------------------------

def test_breakdown_frame():
    models = [
        concentration_model(
            name="bd-hi", n_users=300, n_items=200, f=8,
            kappa=LEVELS["hi"]["kappa"], seed=0,
        )
    ]
    bd = fig8.breakdown(models, k=1)
    row = bd.loc["bd-hi"]
    assert row["serve_shared_s"] > 0 and row["serve_unshared_s"] > 0
    assert 0 <= row["pre_serving_overhead"] <= 1
    assert row["avg_items_visited"] <= models[0].n
