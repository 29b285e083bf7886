"""Tests for the blocked matrix-multiply baseline kernel."""
import numpy as np
import pytest

from repro.linalg import blocked_mm as mm_module
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.linalg import kernels as kernels_module
from repro.linalg.kernels import item_major, topk_from_scores


@pytest.mark.parametrize("user_block", [1, 3, 7, 100])
def test_blocking_invariance(user_block, monkeypatch):
    """Result must not depend on the user block size."""
    g = np.random.default_rng(0)
    users, items = g.normal(size=(23, 5)), g.normal(size=(17, 5))
    ref_ids, ref_sc = blocked_mm_topk(users, items, 4)
    monkeypatch.setattr(mm_module, "USER_BLOCK", user_block)
    ids, sc = blocked_mm_topk(users, items, 4)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_allclose(sc, ref_sc)


def test_matches_full_scores():
    g = np.random.default_rng(1)
    users, items = g.normal(size=(10, 4)), g.normal(size=(12, 4))
    ids, sc = blocked_mm_topk(users, items, 3)
    full = users @ items.T
    ref_ids, ref_sc = topk_from_scores(full, 3)
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_allclose(sc, ref_sc)


def test_k_clamped():
    g = np.random.default_rng(2)
    ids, sc = blocked_mm_topk(g.normal(size=(4, 3)), g.normal(size=(5, 3)), 99)
    assert ids.shape == (4, 5)


def test_scores_descending():
    g = np.random.default_rng(3)
    _, sc = blocked_mm_topk(g.normal(size=(20, 6)), g.normal(size=(30, 6)), 10)
    assert np.all(np.diff(sc, axis=1) <= 0)


def test_single_item():
    g = np.random.default_rng(4)
    users, items = g.normal(size=(5, 3)), g.normal(size=(1, 3))
    ids, sc = blocked_mm_topk(users, items, 1)
    np.testing.assert_array_equal(ids, np.zeros((5, 1)))
    np.testing.assert_allclose(sc[:, 0], users @ items[0])


def test_output_dtypes():
    g = np.random.default_rng(5)
    ids, sc = blocked_mm_topk(g.normal(size=(3, 2)), g.normal(size=(4, 2)), 2)
    assert ids.dtype == np.int64
    assert sc.dtype == np.float64


# --- the float32 filter: exact wherever float32 cannot tell scores apart ---

def _near_tie_blocks():
    """(users, items) whose float64 scores float32 cannot order, every score exact in float64.

    * ``ulp-ties``: item ``j`` is ``[1, a·2⁻⁵², b·2⁻⁵²]`` with small integers
      ``a``, ``b``; against ``[1, 1, 1]`` it scores ``1 + (a + b)·2⁻⁵²``, a
      few ulps apart or tied, and float32 scores every item ``1``.  Users
      are power-of-two multiples of ``[1, 1, 1]`` and one zero row.
    * ``float32-misorders``: entries ``1 + c·2⁻³⁰`` with ``|c| <= 300`` round
      to float32 up or down by up to 2⁻²⁴, far more than the 2⁻³⁰ steps that
      order the float64 scores, so float32 ranks many items wrongly.
    """
    g = np.random.default_rng(20)
    ulps = g.integers(-3, 4, size=(60, 2)).astype(np.float64)
    users = np.ldexp(np.ones((5, 3)), np.array([[0], [2], [-30], [40], [0]]))
    users[4] = 0.0
    ulp_ties = (users, np.hstack([np.ones((60, 1)), np.ldexp(ulps, -52)]))
    items = 1.0 + np.ldexp(g.integers(-300, 301, size=(80, 8)).astype(np.float64), -30)
    misorders = (np.ldexp(g.integers(1, 5, size=(12, 8)).astype(np.float64), 3), items)
    return {"ulp-ties": ulp_ties, "float32-misorders": misorders}


@pytest.mark.parametrize("case", ["ulp-ties", "float32-misorders"])
@pytest.mark.parametrize("order", ["as-drawn", "reversed"])
@pytest.mark.parametrize("k", [1, 5, 20])
def test_float32_path_resolves_near_ties_in_float64(case, order, k, monkeypatch):
    """Near-ties below float32's resolution, in both id orders, answer as the float64 top-K."""
    monkeypatch.setattr(mm_module, "_MIN_ITEMS_PER_K", 0)
    monkeypatch.setattr(mm_module, "_MIN_USERS", 0)
    users, items = _near_tie_blocks()[case]
    if order == "reversed":
        items = items[::-1].copy()
    want_ids, want_sc = topk_from_scores(users @ items.T, k)
    f32_ids, _ = topk_from_scores(users.astype(np.float32) @ items.T.astype(np.float32), k)
    assert not np.array_equal(f32_ids, want_ids)  # float32 alone would answer wrongly
    ids, sc = blocked_mm_topk(users, items, k)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(sc, want_sc)


def _magnitude_cases():
    """(users, items) at magnitudes float32 cannot hold, as small integers times powers of two.

    Every dot product sums terms of one scale, so float64 computes it
    exactly in any order and ties are exact.
    """
    g = np.random.default_rng(21)
    users = g.integers(-3, 4, size=(30, 5)).astype(np.float64)
    items = g.integers(-3, 4, size=(40, 5)).astype(np.float64)
    users[::7] = 0.0  # zero user rows
    # Half the item rows near 1e+30, half near 1e-30: after the items' one
    # scale factor the small ones underflow to zero in float32.
    mixed = np.ldexp(items, np.where(np.arange(40) % 2, 100, -100)[:, None])
    return {
        "1e+150": (np.ldexp(users, 500), np.ldexp(items, 500)),
        "1e-150": (np.ldexp(users, -500), np.ldexp(items, -500)),
        "1e+150-by-1e-150": (np.ldexp(users, 500), np.ldexp(items, -500)),
        "items-1e+30-and-1e-30": (users, mixed),
        "zero-items": (users, np.zeros_like(items)),
    }


@pytest.mark.parametrize("case", list(_magnitude_cases()))
@pytest.mark.parametrize("k", [1, 4, 25])
def test_float32_path_exact_at_extreme_magnitudes(case, k, monkeypatch):
    monkeypatch.setattr(mm_module, "_MIN_ITEMS_PER_K", 0)
    monkeypatch.setattr(mm_module, "_MIN_USERS", 0)
    users, items = _magnitude_cases()[case]
    ids, sc = blocked_mm_topk(users, items, k)
    want_ids, want_sc = topk_from_scores(users @ items.T, k)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(sc, want_sc)


def test_rule_picks_float32_only_with_enough_items_per_k():
    """The float32 scorer hands ``topk_from_scores`` the float64 factors; the float64 one nothing."""
    g = np.random.default_rng(22)
    users, items = g.normal(size=(3, 4)), g.normal(size=(100, 4))
    k_low = 100 // mm_module._MIN_ITEMS_PER_K
    scores, rescore = mm_module.block_scorer(items, k_low, mm_module.USER_BLOCK)(users)
    assert scores.dtype == np.float32 and len(rescore) == 3
    scores, rescore = mm_module.block_scorer(items, k_low + 1, mm_module.USER_BLOCK)(users)
    assert scores.dtype == np.float64 and rescore == ()


def test_rule_picks_float32_only_with_enough_users():
    """A call with fewer than ``_MIN_USERS`` users is scored in float64, whatever its blocks."""
    g = np.random.default_rng(23)
    users, items = g.normal(size=(3, 4)), g.normal(size=(100, 4))
    m = mm_module._MIN_USERS
    scores, rescore = mm_module.block_scorer(items, 1, m)(users)
    assert scores.dtype == np.float32 and len(rescore) == 3
    scores, rescore = mm_module.block_scorer(items, 1, m - 1)(users)
    assert scores.dtype == np.float64 and rescore == ()


@pytest.mark.parametrize("precision", ["float32", "float64"])
def test_rule_scores_item_major_only_at_small_k(precision, monkeypatch):
    """Blocks are item-major (F order) up to the layout rule's crossover K, user-major past it."""
    if precision == "float64":
        monkeypatch.setattr(mm_module, "_MIN_ITEMS_PER_K", 10**9)
    g = np.random.default_rng(24)
    users, items = g.normal(size=(40, 4)), g.normal(size=(300, 4))
    cross = max(k for k in range(1, 301) if item_major(k, 300))
    assert 1 < cross < 300
    for k in (cross - 1, cross, cross + 1):
        scores, rescore = mm_module.block_scorer(items, k, len(users))(users)
        assert (len(rescore) == 3) == (precision == "float32")
        assert scores.shape == (40, 300)
        assert scores.flags.f_contiguous != scores.flags.c_contiguous
        assert scores.flags.f_contiguous == (k <= cross), k


@pytest.mark.parametrize("layout", ["user-major", "item-major"])
@pytest.mark.parametrize("k", [1, 8, 9])
def test_float32_blocks_bit_equal_across_user_blocks(layout, k, monkeypatch):
    """Several float32 blocks, the last one short, in each layout, answer as the float64 top-K.

    The item-major blocks share one score buffer, so a block that read
    scores the next one overwrote would answer wrongly.
    """
    monkeypatch.setattr(mm_module, "_MIN_ITEMS_PER_K", 0)
    monkeypatch.setattr(mm_module, "_MIN_USERS", 0)
    monkeypatch.setattr(kernels_module, "_GATHER_SHARE", np.inf if layout == "item-major" else 0.0)
    monkeypatch.setattr(mm_module, "USER_BLOCK", 16)
    g = np.random.default_rng(25)
    users = g.integers(-3, 4, size=(50, 5)).astype(np.float64)
    users[::9] = 0.0
    items = g.integers(-3, 4, size=(301, 5)).astype(np.float64)
    ids, sc = blocked_mm_topk(users, items, k)
    want_ids, want_sc = topk_from_scores(users @ items.T, k)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(sc, want_sc)


def test_traced_float32_blocks_keep_one_select_span_each(monkeypatch):
    """Each float32 block is one ``linalg.select`` span under ``linalg.blocked_mm_topk``.

    ``mipsbench`` reads GEMM time as the MM span's self time minus these, so
    a block whose selection left that call would count as GEMM.
    """
    from mipsbench.tracing import Tracer, layer_totals
    from repro.indexes.brute_force import BlockedMM
    from repro.mf.models import tiny_model

    monkeypatch.setattr(mm_module, "USER_BLOCK", 16)
    model, k = tiny_model(m=40, n=200, f=6, seed=0), 3
    assert k * mm_module._MIN_ITEMS_PER_K <= model.n and model.m >= mm_module._MIN_USERS  # the rule picks float32
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job_id = "job"
        BlockedMM(model).query(np.arange(model.m), k)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    (mm,) = [i for i, s in enumerate(spans) if s["name"] == "linalg.blocked_mm_topk"]
    selects = [s for s in spans if s["name"] == "linalg.select" and s["parent"] == mm]
    assert [s["attrs"]["cells"] for s in selects] == [16 * 200, 16 * 200, 8 * 200]
    totals = layer_totals(spans, ["job"])
    assert totals["linalg.mm_select_s"] > 0
    assert totals["linalg.gemm_flops"] == 2 * model.m * model.n * model.f
