"""Tests for the RECOPT optimizer (Section 4)."""
import time

import numpy as np
import pytest

from repro.core.recdex import RecdexIndex
from repro.core.recopt import OptimizerReport, Recopt, _ttest_p
from repro.indexes.base import Strategy, TopK
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex
from repro.mf.models import concentration_model, tiny_model
from tests.validate import assert_valid_topk


# --- the T-test helper ----------------------------------------------------

def test_ttest_p_far_mean_rejects():
    times = np.full(50, 2.0) + np.random.default_rng(0).normal(0, 0.01, 50)
    assert _ttest_p(times, 1.0) < 0.01


def test_ttest_p_equal_mean_accepts():
    g = np.random.default_rng(1)
    times = 1.0 + g.normal(0, 0.5, 50)
    assert _ttest_p(times, float(times.mean())) > 0.9


def test_ttest_p_zero_variance():
    times = np.full(40, 1.0)
    assert _ttest_p(times, 1.0) == 1.0
    assert _ttest_p(times, 2.0) == 0.0


# --- end-to-end optimizer -------------------------------------------------

@pytest.fixture(scope="module")
def model():
    return tiny_model(m=200, n=80, f=6, seed=0)


def _factories():
    return {
        "recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16),
        "lemp": lambda m: LempIndex(m, bucket_size=20),
        "fexipro-si": lambda m: FexiproIndex(m, variant="SI"),
    }


def test_result_is_exact_regardless_of_choice(model):
    for name, factory in _factories().items():
        res, report = Recopt(
            model, {name: factory}, k=5, min_sample=16, seed=0
        ).run()
        assert_valid_topk(model, res, 5)


def test_report_fields(model):
    res, report = Recopt(
        model, {"recdex": _factories()["recdex"]}, k=3, min_sample=16, seed=1
    ).run()
    assert isinstance(report, OptimizerReport)
    assert report.chosen in ("mm", "recdex")
    assert set(report.est_totals) == {"mm", "recdex"}
    assert report.sample_size == max(16, int(np.ceil(0.01 * model.m)))
    assert report.optimize_seconds > 0
    assert report.total_seconds >= report.optimize_seconds


def test_three_way_choice(model):
    res, report = Recopt(
        model,
        {"recdex": _factories()["recdex"], "lemp": _factories()["lemp"]},
        k=2,
        min_sample=16,
        seed=2,
    ).run()
    assert set(report.est_totals) == {"mm", "recdex", "lemp"}
    assert report.chosen in report.est_totals
    assert_valid_topk(model, res, 2)


def test_sample_clamped_to_m():
    small = tiny_model(m=12, n=10, f=4, seed=3)
    res, report = Recopt(
        small, {"lemp": _factories()["lemp"]}, k=3, min_sample=500, seed=0
    ).run()
    assert report.sample_size == 12
    assert_valid_topk(small, res, 3)


def test_point_index_uses_ttest(model):
    _, report = Recopt(
        model,
        {"fexipro-si": _factories()["fexipro-si"]},
        k=3,
        min_sample=64,
        seed=4,
    ).run()
    assert "fexipro-si" in report.ttest_stopped
    assert report.sample_users_measured["fexipro-si"] <= report.sample_size


def test_batched_index_never_ttest_stops(model):
    _, report = Recopt(
        model, {"recdex": _factories()["recdex"]}, k=3, min_sample=32, seed=5
    ).run()
    assert report.ttest_stopped["recdex"] is False
    assert report.sample_users_measured["recdex"] == report.sample_size


def test_choice_follows_forced_timings(model):
    """Inject a deliberately slow index: RECOPT must pick MM."""

    class SlowIndex(Strategy):
        name = "slow"
        batching = True

        def query_vectors(self, users, k):
            # A fixed 20 ms per call: extrapolated from the 32-user sample to
            # 200 users that is 125 ms, far above blocked MM's estimate even
            # on its cold first call (a few ms), warm BLAS or not.
            time.sleep(0.02)
            return BlockedMM(self.model).query_vectors(users, k)

    res, report = Recopt(
        model, {"slow": lambda m: SlowIndex(m)}, k=3, min_sample=32, seed=6
    ).run()
    assert report.chosen == "mm"
    assert report.est_totals["slow"] > report.est_totals["mm"]
    assert_valid_topk(model, res, 3)


def test_choice_prefers_instant_index(model):
    """A prebuilt near-free index must beat MM.

    The index is built *outside* RECOPT's timed path (factory returns an
    already-built instance; ``build`` is then a no-op), so its measured
    C_I ≈ 0 and its per-user query is a cache slice — the estimate must
    come out below MM's.
    """

    class InstantIndex(Strategy):
        name = "instant"
        batching = True

        def build(self):
            if not self.built:
                self._cache = BlockedMM(self.model).query_vectors(self.model.users, 3)
                self.built = True

        def query_vectors(self, users, k):
            return BlockedMM(self.model).query_vectors(users, k)

        # RECOPT times ``query(rows)``, which this fake answers from its cache.
        def query(self, user_rows, k):
            return TopK(
                ids=self._cache.ids[user_rows, :k],
                scores=self._cache.scores[user_rows, :k],
            )

    prebuilt = InstantIndex(model)
    prebuilt.build()
    res, report = Recopt(
        model, {"instant": lambda m: prebuilt}, k=3, min_sample=32, seed=7
    ).run()
    assert report.chosen == "instant"
    assert_valid_topk(model, res, 3)


def test_deterministic_sample_in_seed(model):
    _, r1 = Recopt(model, {"lemp": _factories()["lemp"]}, k=3, min_sample=16, seed=11).run()
    _, r2 = Recopt(model, {"lemp": _factories()["lemp"]}, k=3, min_sample=16, seed=11).run()
    assert r1.sample_size == r2.sample_size


def test_k_exceeding_n(model):
    res, _ = Recopt(
        model, {"lemp": _factories()["lemp"]}, k=1000, min_sample=16, seed=12
    ).run()
    assert res.ids.shape == (model.m, model.n)
    assert_valid_topk(model, res, 1000)


@pytest.mark.parametrize("k", [0, -1, 2.5])
def test_k_below_one_rejected(model, k):
    with pytest.raises(ValueError, match="k must be"):
        Recopt(model, {"lemp": _factories()["lemp"]}, k=k)
