"""Cross-strategy exactness: every index must solve MIPS exactly.

Two layers of checking (see ``tests/validate.py``):

* float models → ``assert_valid_topk`` (tolerance-aware; different BLAS
  call shapes legitimately differ in the last ulp, so tied groups may be
  ordered differently across strategies);
* small-integer models → strict bitwise id/score equality against brute
  force, because integer-valued float64 arithmetic is exact and the
  canonical (score desc, id asc) tie-break is deterministic.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import recdex as recdex_module
from repro.core.recdex import RecdexIndex
from repro.core.recopt import Recopt
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex
from repro.linalg import blocked_mm as mm_module
from repro.linalg import bounded_walk as walk_module
from repro.linalg import kernels as kernels_module
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.linalg.kernels import topk_from_scores
from repro.mf.models import MFModel, concentration_model, tiny_model
from tests.validate import assert_valid_topk

STRATEGIES = {
    "mm": BlockedMM,
    "lemp": lambda m: LempIndex(m, bucket_size=16),
    "fexipro-si": lambda m: FexiproIndex(m, variant="SI"),
    "fexipro-sir": lambda m: FexiproIndex(m, variant="SIR"),
    "recdex": lambda m: RecdexIndex(m, n_clusters=4, block=16),
    "recdex-lesion": lambda m: RecdexIndex(m, n_clusters=4, block=16, shared=False),
}


@pytest.fixture(autouse=True, scope="module")
def _short_chunks():
    """Chunks of at least 4 items, so the walks over these small models cross chunk boundaries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walk_module, "_MIN_CHUNK", 4)
        yield


def int_model(*, m=12, n=15, f=4, lo=-4, hi=5, seed=0) -> MFModel:
    """Small-integer model: exact float64 arithmetic, deterministic ties."""
    g = np.random.default_rng(seed)
    return MFModel(
        name=f"int-{m}x{n}x{f}-s{seed}",
        users=g.integers(lo, hi, size=(m, f)).astype(np.float64),
        items=g.integers(lo, hi, size=(n, f)).astype(np.float64),
    )


def _strict_same(model, strategy, k):
    ref = BlockedMM(model).query_vectors(model.users, k)
    got = strategy(model).query_vectors(model.users, k)
    np.testing.assert_array_equal(got.ids, ref.ids)
    np.testing.assert_array_equal(got.scores, ref.scores)


# --- tolerance-aware validity on float models -----------------------------

@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_valid_on_random_model(name, k, seed):
    model = tiny_model(m=35, n=28, f=6, seed=seed)
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, k), k)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("kappa", [0.05, 50.0])
def test_valid_on_concentrated_model(name, kappa):
    model = concentration_model(n_users=60, n_items=45, f=8, kappa=kappa, seed=7)
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, 5), 5)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_k_equals_n(name):
    model = tiny_model(m=12, n=9, f=4, seed=3)
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, 9), 9)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_k_exceeds_n(name):
    model = tiny_model(m=12, n=9, f=4, seed=4)
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, 50), 50)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_single_user(name):
    model = tiny_model(m=1, n=20, f=5, seed=5)
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, 4), 4)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_single_dim(name):
    model = tiny_model(m=15, n=12, f=1, seed=6)
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, 3), 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_valid_with_zero_norm_user(name):
    model = tiny_model(m=10, n=14, f=4, seed=8)
    model.users[3] = 0.0
    assert_valid_topk(model, STRATEGIES[name](model).query_vectors(model.users, 3), 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_query_subset_matches_full(name):
    model = tiny_model(m=30, n=20, f=5, seed=10)
    strat = STRATEGIES[name](model)
    full = strat.query_vectors(model.users, 4)
    # A sorted subset, then duplicated and unordered rows.
    for rows in (np.array([2, 5, 11, 29]), np.array([11, 3, 3, 29, 2, 11])):
        sub = strat.query(rows, 4)
        np.testing.assert_array_equal(sub.ids, full.ids[rows])
        np.testing.assert_allclose(sub.scores, full.scores[rows])


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("where", ["negative", "past-end"])
def test_rows_outside_model_rejected(name, where):
    """A negative row must not wrap to another user; a row past the end must not reach a kernel."""
    model = tiny_model(m=10, n=12, f=4, seed=14)
    bad = -1 if where == "negative" else model.m
    with pytest.raises(ValueError, match="user ids must lie in"):
        STRATEGIES[name](model).query(np.array([0, bad]), 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("rows", ["bool-mask", "float"])
def test_non_integer_rows_rejected(name, rows):
    """A boolean array is not taken as a mask (40 rows must not answer 2 users), nor a float array as ids."""
    model = tiny_model(m=40, n=25, f=6, seed=0)
    bad = np.isin(np.arange(40), [3, 17]) if rows == "bool-mask" else np.array([0.0, 1.5])
    with pytest.raises(ValueError, match="user ids must be integers"):
        STRATEGIES[name](model).query(bad, 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_query_vectors_accepts_list_of_rows(name):
    """Rows given as nested lists answer as the same rows given as an array."""
    model = tiny_model(m=40, n=25, f=6, seed=0)
    strat = STRATEGIES[name](model)
    got, want = strat.query_vectors(model.users[:2].tolist(), 3), strat.query_vectors(model.users[:2], 3)
    np.testing.assert_array_equal(got.ids, want.ids)
    np.testing.assert_array_equal(got.scores, want.scores)


_SHAPE = r"user vectors must be a \(q, 6\) matrix"
_BAD_QUERIES = {
    # case: (users from the model's first 5 users, k, the error it must raise)
    "nan": (lambda u: np.where(np.arange(6) == 2, np.nan, u), 3, "must be finite"),
    "inf": (lambda u: np.where(np.arange(6) == 2, -np.inf, u), 3, "must be finite"),
    "rank": (lambda u: u[:, :4], 3, _SHAPE),
    "1-d": (lambda u: u[0], 3, _SHAPE),
    "k0": (lambda u: u, 0, "k must be at least 1"),
    "kneg": (lambda u: u, -2, "k must be at least 1"),
    "kfloat": (lambda u: u, 2.5, "k must be an integer"),
    "knpfloat": (lambda u: u, np.float64(3.0), "k must be an integer"),
    "kstr": (lambda u: u, "3", "k must be an integer"),
    "kbool": (lambda u: u, True, "k must be an integer"),
}


@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("case", list(_BAD_QUERIES))
def test_bad_query_vectors_rejected(name, case):
    """Bad vectors or ``k`` raise ``query_vectors``'s own error, not a wrong answer or a kernel's."""
    model = tiny_model(m=40, n=25, f=6, seed=0)
    bad, k, message = _BAD_QUERIES[case]
    with pytest.raises(ValueError, match=message):
        STRATEGIES[name](model).query_vectors(bad(model.users[:5]), k)


# --- strict bitwise equality on integer models ----------------------------

@pytest.mark.parametrize("name", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [1, 4])
def test_strict_on_integer_model(name, seed, k):
    _strict_same(int_model(seed=seed), STRATEGIES[name], k)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_with_duplicate_items(name):
    """Duplicate item vectors force exact score ties — tie-break must hold."""
    model = int_model(m=10, n=12, f=4, seed=9)
    model.items[5] = model.items[2]
    model.items[11] = model.items[2]
    _strict_same(model, STRATEGIES[name], 4)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_all_tied_scores(name):
    """All-identical items: the whole score row ties; ids must be 0..k-1."""
    model = int_model(m=8, n=10, f=3, seed=11)
    model.items[:] = model.items[0]
    ref = BlockedMM(model).query_vectors(model.users, 3)
    np.testing.assert_array_equal(ref.ids, np.tile([0, 1, 2], (8, 1)))
    _strict_same(model, STRATEGIES[name], 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_zero_norm_user_ties(name):
    model = int_model(m=6, n=9, f=3, seed=12)
    model.users[2] = 0.0
    _strict_same(model, STRATEGIES[name], 3)


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_strict_when_a_bound_rounds_below_a_tied_score(name):
    """One user vector, so θ_b = 0: item 12's cone bound reads 4e-16 below its score.

    That score, -4, ties the kth (item 14's), and item 12 is walked last; a
    stop test without rounding slack drops it and returns 14 in its place.
    """
    users = np.tile([0.0, 1.0, -2.0, 0.0, 2.0], (11, 1))
    items = np.array(
        [[1, 1, -2, 1, 2], [-1, 0, -2, -2, 0], [1, 1, -2, 1, 2], [-2, 0, 2, 1, 1],
         [-2, -1, -1, 2, 0], [0, -2, 0, 2, 1], [2, 1, 2, 0, 0], [-2, 1, -1, -1, -1],
         [-2, 0, -1, 1, 1], [-1, 0, 0, 0, 0], [0, 0, 0, -1, 1], [-2, 0, 2, 1, 1],
         [-2, -2, 2, -2, 1], [-1, 0, -2, -2, 0], [2, 2, 2, 0, -1]],
        dtype=np.float64,
    )
    _strict_same(MFModel(name="rounding", users=users, items=items), STRATEGIES[name], 14)


@pytest.mark.parametrize("name", ["lemp", "recdex", "recdex-lesion"])
@pytest.mark.parametrize("k", [1, 4])
def test_strict_across_walk_user_blocks(name, k, monkeypatch):
    """A walk split into several user blocks answers as one block does."""
    monkeypatch.setattr(walk_module, "USER_BLOCK", 3)
    model = int_model(m=20, n=30, f=4, seed=13)
    model.users[7] = 0.0
    _strict_same(model, STRATEGIES[name], k)


# --- differential fuzz: every strategy, and RECOPT, bit-equal to MM --------

@st.composite
def _differential_cases(draw):
    """(model, rows, vectors, k) on integer models built to tie.

    Entries in ``[-hi, hi]`` (``hi = 1`` ties the most), copies of item
    rows, users that are all one vector (one cluster, θ_b = 0) or all on
    one ray (θ_b = 0 in every cluster), zero and repeated user rows, n < f,
    K ∈ {1, n−1, n, n+5}, and query rows drawn as an unordered multiset.
    ``vectors`` are query vectors drawn apart from the build users, some
    of them negated users, which lie outside their cluster's cone.
    """
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 60))
    f = draw(st.integers(1, 6))
    hi = draw(st.sampled_from([1, 2, 4]))
    users = g.integers(-hi, hi + 1, size=(m, f)).astype(np.float64)
    items = g.integers(-hi, hi + 1, size=(n, f)).astype(np.float64)
    copies = draw(st.integers(0, n))
    items[g.integers(n, size=copies)] = items[g.integers(n, size=copies)]
    layout = draw(st.sampled_from(["random", "identical", "one-ray"]))
    if layout == "identical":
        users[:] = users[0]
    elif layout == "one-ray":
        users = g.integers(1, 4, size=(m, 1)) * users[:1]
    users[g.integers(m, size=draw(st.integers(0, m)))] = 0.0
    users[g.integers(m, size=draw(st.integers(0, m)))] = users[g.integers(m)]
    model = MFModel(name="fuzz", users=users, items=items)
    rows = np.array(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m)))
    q = draw(st.integers(1, 2 * m))
    vectors = g.integers(-hi, hi + 1, size=(q, f)).astype(np.float64)
    negated = g.integers(q, size=draw(st.integers(0, q)))
    vectors[negated] = -users[g.integers(m, size=negated.size)]
    k = draw(st.sampled_from([1, max(1, n - 1), n, n + 5]))
    return model, rows, vectors, k


# ``blocked_mm`` rule constants that force its float32 filter on every
# block, whatever the call's user count, and that keep it off; crossed with
# the ``kernels`` layout rule constant, forced so that every block blocked
# MM scores is user-major (the full survivor scan) or item-major (the
# gathered scan).  The walk's head is a blocked MM call, so both rules
# drive LEMP's and RECDEX's heads too.
_PRECISIONS = {
    "float32": {(mm_module, "_MIN_ITEMS_PER_K"): 0, (mm_module, "_MIN_USERS"): 0},
    "float64": {(mm_module, "_MIN_ITEMS_PER_K"): 10**9},
}
_LAYOUTS = {
    "user-major": {(kernels_module, "_GATHER_SHARE"): 0.0},
    "item-major": {(kernels_module, "_GATHER_SHARE"): np.inf},
}
_MM_PATHS = {f"{p}, {lay}": {**_PRECISIONS[p], **_LAYOUTS[lay]} for p in _PRECISIONS for lay in _LAYOUTS}


@settings(max_examples=150, deadline=None)
@given(case=_differential_cases())
def test_every_strategy_bit_equal_to_mm(case):
    model, rows, vectors, k = case
    for path, rule in _MM_PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            for (owner, const), value in rule.items():
                mp.setattr(owner, const, value)
            mm = BlockedMM(model)
            ref, ref_vectors = mm.query(rows, k), mm.query_vectors(vectors, k)
            for got, users in ((ref, model.users[rows]), (ref_vectors, vectors)):
                want_ids, want_scores = topk_from_scores(users @ model.items.T, k)
                np.testing.assert_array_equal(got.ids, want_ids, err_msg=f"mm, {path}")
                np.testing.assert_array_equal(got.scores, want_scores, err_msg=f"mm, {path}")
            for name, make in STRATEGIES.items():
                strat = make(model)
                for got, want in ((strat.query(rows, k), ref), (strat.query_vectors(vectors, k), ref_vectors)):
                    np.testing.assert_array_equal(got.ids, want.ids, err_msg=f"{name}, {path}")
                    np.testing.assert_array_equal(got.scores, want.scores, err_msg=f"{name}, {path}")


@pytest.mark.parametrize("shared", [True, False])
def test_recdex_answers_vector_outside_every_cone_by_mm(shared, monkeypatch):
    """Users on one ray give every cluster θ_b = 0; the opposite vector lies outside all cones.

    RECDEX must answer that vector by blocked MM, bit-equal to MM, and walk
    the in-cone vector as usual.
    """
    ray = np.array([1.0, 2.0, -1.0, 0.0])
    g = np.random.default_rng(15)
    users = g.integers(1, 4, size=(12, 1)) * ray
    model = MFModel(name="one-ray", users=users, items=g.integers(-4, 5, size=(30, 4)).astype(np.float64))
    fallback = []

    def spy(users, items, k):
        fallback.append(users.copy())
        return blocked_mm_topk(users, items, k)

    monkeypatch.setattr(recdex_module, "blocked_mm_topk", spy)
    idx = RecdexIndex(model, n_clusters=4, block=16, shared=shared)
    query = np.vstack([2 * ray, -ray])
    got = idx.query_vectors(query, 5)
    assert len(fallback) == 1
    np.testing.assert_array_equal(fallback[0], -ray[None, :])
    ref = BlockedMM(model).query_vectors(query, 5)
    np.testing.assert_array_equal(got.ids, ref.ids)
    np.testing.assert_array_equal(got.scores, ref.scores)


@settings(max_examples=60, deadline=None)
@given(case=_differential_cases(), min_sample=st.integers(1, 24), seed=st.integers(0, 3))
def test_recopt_bit_equal_to_mm(case, min_sample, seed):
    model, _, _, k = case
    candidates = {name: make for name, make in STRATEGIES.items() if name != "mm"}
    for path, rule in _MM_PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            for (owner, const), value in rule.items():
                mp.setattr(owner, const, value)
            got, _ = Recopt(model, candidates, k=k, min_sample=min_sample, seed=seed).run()
            ref_ids, ref_scores = topk_from_scores(model.users @ model.items.T, k)
            np.testing.assert_array_equal(got.ids, ref_ids, err_msg=path)
            np.testing.assert_array_equal(got.scores, ref_scores, err_msg=path)
