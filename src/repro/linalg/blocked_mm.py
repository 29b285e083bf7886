"""Blocked matrix-multiply top-K — the paper's brute-force baseline.

The paper uses Intel MKL GEMM over user batches plus a C++ priority queue
for top-K extraction.  Here each block of ``USER_BLOCK`` users is scored
by NumPy's BLAS ``@`` and reduced by ``topk_from_scores``'s threshold
filter: one vectorized O(n) pass per user takes the maxima of 128 column
groups, the largest of them (K = 1) or a sort of them gives each row's
threshold, and a compare with one ``nonzero`` leaves about K survivors per
row.  Their columns ascend, so one stable argsort puts them in canonical
order.  Blocking over users bounds the dense score matrix to
``USER_BLOCK × n_items`` entries, mirroring the paper's "batches that each
occupy the entirety of memory" at container scale.

**Every dense block comes here.**  ``blocked_mm_topk`` serves the MM
strategy, the bounded walk's head (one call per LEMP user block and per
RECDEX cluster, over the head's items in ascending id order) and its
unprunable rest, and RECDEX's out-of-cone users.  This module alone
decides each block's layout and precision, by the two rules below.

**The block's layout follows K.**  Before the first GEMM,
``kernels.item_major(k, n)`` decides how the blocks are scored (see
``linalg/kernels.py``).  At small K (K ≤ 8 at 128 groups) a block is
scored item-major, ``items @ block.T``, into one ``(n, USER_BLOCK)``
buffer reused by every block, and ``topk_from_scores`` gets its
transpose: the group maxima are then a reduce over contiguous slabs, and
only each user's qualifying groups and the ``n mod g`` ungrouped items
are compared.  At larger K a block is scored user-major and compared
whole.  Whole ``blocked_mm_topk`` calls over all users of scale-4 models
(medians of 15 interleaved calls, one OpenBLAS thread on its
SapphireRapids kernels, 4-vCPU x86 host),
before the layout rule (user-major blocks, which at small K gathered
from their row-major groups) → with it: netflix-f32-lo (32 000 × 1 200) K = 1
104 → 81 ms and K = 5 119 → 108 ms; r2-f32-lo (24 000 × 1 800) K = 1
80 → 66 ms and K = 5 117 → 109 ms.  Where the layout stays user-major
the calls are unchanged within noise (K = 10: 0.98–1.01×; K = 20 and 50
on netflix-f32-lo, kdd-f16-hi and glove-f32-hi: 0.94–1.03×).  Forcing
item-major past the rule loses: K = 16 1.09× on netflix-f32-lo, K = 20
1.18× on kdd-f16-hi, K = 10 1.08× on glove-f32-hi (32 000 items).
``USER_BLOCK = 1024`` against 512 (medians of 21): K = 1 63 against 68
ms (netflix-f32-lo) and 64 against 67 ms (r2-f32-lo); K = 10 145 against
144 and 140 against 133 ms; 256 and 2 048 rows were slower still.

**A float32 filter, exact by a proved margin.**  NumPy's bundled OpenBLAS
0.3.23 picks its ``Prescott`` (SSE3) kernels on the 4-vCPU x86 host the
numbers below come from, and there a float32 GEMM runs 1.6–2.8× faster
than a float64 one.  When ``k * _MIN_ITEMS_PER_K <= n`` (and ``f <=
_MAX_RANK``) a block is therefore

1. scored by a float32 GEMM of scaled factors: each user row times the
   power of two that puts its largest |entry| in [1/2, 1) (``np.frexp`` /
   ``np.ldexp``), and all items times one such power.  Scaling by a power
   of two is exact in float64 (up to float64 underflow, covered below),
   keeps float32 clear of overflow, and a positive per-row factor cannot
   change a row's ranking;
2. filtered: every entry with float32 score ``s32 >= T - 2E`` survives,
   where ``T`` is at most the row's kth float32 score (``_survivors``) and
   ``E`` is the row's margin below;
3. re-scored: each survivor's score is recomputed from the float64
   factors;
4. reduced to the canonical (score desc, id asc) top-K of those float64
   values, which are the scores returned.

*The bound.*  In scaled units (``u'``, ``i'``, every |entry| < 1), with
``u = 2⁻²⁴`` and the γ_n inner-product bound (Higham, *Accuracy and
Stability of Numerical Algorithms*, §3.1), each score's error against the
exact ``u'·i'`` is at most: the float32 cast, ``(2u + u²)‖u'‖‖i'‖ +
f·2⁻¹⁴⁹``; the float32 dot product in any summation order, FMA or not,
``γ_f (1+u)² ‖u'‖‖i'‖ + f·2⁻¹⁴⁹`` (the absolute terms are float32
underflow); and the float64 re-score, ``γ_f(2⁻⁵³)‖u'‖‖i'‖`` plus its own
underflow, ``f·2⁻¹⁰⁷⁵`` unscaled.  For ``f <= 2048`` their sum ``B`` is
below half of

    E = (2f + 8)·u·‖u'‖·max‖i'‖ + f·2⁻¹⁴⁰ + f·2^(-1073 - e_u - e_i)

where ``2^e_u`` and ``2^e_i`` are the row's and the items' scale factors
(the last term only matters when products approach float64 underflow, and
is capped where it already exceeds every scaled score's range).  The
factor of two absorbs the rounding of ``E`` and of the norms.

*Exactness.*  The row's k largest float32 scores are all ``>= T``, so k
items have float64 scores ``>= T - B``, and so has the row's kth float64
score.  An item whose float64 score is ``>=`` that kth one (ties
included) therefore has ``s32 >= T - 2B >= T - 2E``: it survives (the
roundings of ``T - 2E`` to float64 and then float32 are monotone, and
``s32`` is representable in both, so they cannot drop it).  The answer is
the canonical top-K of float64 scores over a superset of every item that
can be in it.

*The rule.*  Re-scoring costs about ``m·K·f`` gathered pairs (about
50 ns per pair at f = 32, gathered 2 048 at a time), and at large K on
few items that outweighs the cheaper GEMM.  On 1024-user blocks of
netflix-f32-lo (1 200 items, f = 32; medians of 25 interleaved runs), the
float64 block's time over the float32 one was 1.45 at K = 10, 1.16 at
K = 30, 1.11 at K = 50, 1.07 at K = 100, 1.04–1.08 at K = 150–200, and
0.93–0.97 at K = 300–600.  Fewer items move the crossover up: whole
scale-1 calls on 300 and 450 items read 1.14–1.28 at n/K = 30–45,
0.99–1.08 at n/K = 12–18, 1.02–1.04 at n/K = 9 and 0.90 at n/K = 6.
``_MIN_ITEMS_PER_K = 16`` keeps every cell that clearly gains: both
``mipsbench`` workloads (K ∈ {1, 10}, 1 200 to 8 000 items) and K ≤ 75
on 1 200 items take float32, and Fig. 6's K = 50 cells on 300 and 450
items take float64.  A call also pays a fixed ``n·f`` conversion of the
items, so a call with few users runs faster in float64: whole calls on
scale-4 netflix-f32-lo, r2-f32-lo, kdd-f16-hi and glove-f32-hi (K ∈ {1,
10}, medians of 41) read float32 at 2–7× float64's time for one user,
0.9–1.4× for 16, 0.9–1.1× for 32 and 0.6–0.9× for 64.  Calls with fewer
than ``_MIN_USERS = 32`` users, such as the bounded walk's rest, RECDEX's
out-of-cone fallback and its per-user lesion, therefore take float64, and
so does the head of a walk over fewer than ``_MIN_USERS`` users (a small
RECDEX cluster, or a cluster's share of RECOPT's sample).
"""
from __future__ import annotations

import numpy as np

from repro.linalg.kernels import item_major, row_norms, topk_from_scores

USER_BLOCK = 1024
# Blocks use the float32 filter when k * _MIN_ITEMS_PER_K <= n_items and the
# call serves at least _MIN_USERS users (measured crossovers, see above), and
# f <= _MAX_RANK (the margin's proof).
_MIN_ITEMS_PER_K = 16
_MIN_USERS = 32
_MAX_RANK = 2048
_U32 = 2.0**-24  # float32 unit roundoff


def _unit_scale(x: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """``x`` scaled by the power of two ``2^e`` that puts its largest |entry| in [1/2, 1), and ``e``.

    One factor for all of ``x`` (``axis=None``) or one per row (``axis=1``);
    an all-zero row keeps ``e = 0``.
    """
    _, e = np.frexp(np.abs(x).max(axis=axis, initial=0.0))
    return np.ldexp(x, -e if axis is None else -e[:, None]), e


def block_scorer(items: np.ndarray, k: int, m: int):
    """One block's scoring step: ``score(block) -> (scores, rescore)``.

    ``m`` is the number of users the call serves in all, and no block has
    more than ``min(m, USER_BLOCK)`` rows.
    ``topk_from_scores(scores, k, *rescore)`` then
    finishes the block: the float32 path passes the float64 factors and
    each row's margin ``2E`` as ``rescore``, the float64 path passes
    nothing.  When ``item_major(k, n)`` holds, ``scores`` is the transpose
    of an item-major ``(n, rows)`` product; on the float32 path that
    product lives in one buffer reused by every block, so each block's
    scores must be consumed before the next block is scored.
    """
    n, f = items.shape
    by_item = item_major(k, n)
    if k * _MIN_ITEMS_PER_K > n or m < _MIN_USERS or f > _MAX_RANK:
        if by_item:
            return lambda block: ((items @ block.T).T, ())
        items_t = items.T
        return lambda block: (block @ items_t, ())
    scaled_items, item_exp = _unit_scale(items)
    items32 = scaled_items.astype(np.float32)
    item_norm = row_norms(scaled_items).max(initial=0.0)
    buf = np.empty(n * min(m, USER_BLOCK) if by_item else 0, dtype=np.float32)

    def score(block):
        scaled, exp = _unit_scale(block, axis=1)
        margin = (
            (2 * f + 8) * _U32 * row_norms(scaled) * item_norm
            + f * 2.0**-140
            + np.ldexp(float(f), np.minimum(-1073 - exp - item_exp, 64))
        )
        block32 = scaled.astype(np.float32)
        if by_item:
            scores = np.matmul(items32, block32.T, out=buf[: n * len(block)].reshape(n, len(block))).T
        else:
            scores = block32 @ items32.T
        return scores, (block, items, 2 * margin)

    return score


def blocked_mm_topk(users: np.ndarray, items: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` item (ids, scores) per user via blocked GEMM.

    ``users`` is ``(m, f)``, ``items`` is ``(n, f)``; returns
    ``(m, min(k, n))`` id and score arrays in canonical order, scored in
    float64.
    """
    m, n = users.shape[0], items.shape[0]
    k = min(k, n)
    out_ids = np.empty((m, k), dtype=np.int64)
    out_scores = np.empty((m, k), dtype=np.float64)
    score = block_scorer(items, k, m)
    for start in range(0, m, USER_BLOCK):
        stop = min(start + USER_BLOCK, m)
        scores, rescore = score(users[start:stop])
        out_ids[start:stop], out_scores[start:stop] = topk_from_scores(scores, k, *rescore)
    return out_ids, out_scores
