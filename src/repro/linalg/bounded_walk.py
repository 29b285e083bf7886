"""The bounded walk shared by LEMP-lite and RECDEX.

Both indexes answer a batch of users by walking one item list in order of
a non-increasing upper bound on the normalized score ``u·i / ‖u‖``:
LEMP's length-based walk uses ``‖i‖`` (Cauchy–Schwarz), RECDEX's
``QueryIndex`` uses the cluster's cone bound ``r*_ci``.  A user stops once
the next bound falls below its kth-best normalized score: every item after
that point scores lower, so none of them can enter the top-K.  The stop
test is strict, so items that tie the kth score are still visited and the
canonical (score desc, id asc) tie-break holds.

Bounds and kth scores are rounded values, so a bound that is exact in real
arithmetic can read below the score it bounds: LEMP's ``‖i‖`` against a
computed ``u·i / ‖u‖`` by a few ulps, RECDEX's cone bound, built from
``arccos``, by up to about ``sqrt(eps)·‖i‖``.  A user stops only once the
next bound is ``_ROUNDING_SLACK`` times the largest item norm below its
kth score; a wider slack only scores a few more items.

**Chunks sized by the bounds, and the rest handed to blocked MM.**  After
the head, each step first asks, for every user still walking, where its own
stop test would fire: a ``searchsorted`` of its kth normalized score in
``bounds + slack``, the very values the stop test compares.  The next chunk
ends at the (upper) median of those positions, and is at least
``_MIN_CHUNK`` items long.  If that median is the end of the list, half or
more of the users would score every remaining item, and the still-walking
users are answered
by one ``blocked_mm_topk`` over the whole item matrix instead: that is
their exact canonical top-K by itself, so nothing is merged, and scoring
the head again costs less than the walk's per-chunk GEMMs and merges.
The sizing cannot change an answer: a user still leaves only by the stop
test, at the start of a chunk; a kth score that rises during a chunk only
makes that chunk longer than needed, never drops an item from it.  On the
scale-1 reference grid (16 models × K ∈ {1, 10, 50}, medians of 3 serves,
one OpenBLAS thread on a 4-vCPU x86 host), fixed 32–256-item chunks summed
to 8.9 s for RECDEX and 9.2 s for LEMP against 2.3 s for blocked MM; sized
chunks sum to 2.7–2.8 s and 2.9–3.0 s against 2.0–2.1 s.  A chunk is
still one float64 GEMM and one merge however long it is, so the cells
whose first sized chunk spans most of the list lost ground: LEMP on
kdd-f32-hi at K=10 walks items 125 to 1 538 of 2 000 as one chunk, and
went from 1.3× to 2.4–2.7× blocked MM.  ``scored`` counts ``n`` pairs for
each user handed to MM, on top of those it scored before.

**Who decides what.**  The caller decides only the head's length
(``first``): LEMP's bucket, RECDEX's shared prefix ``B``, or ``k`` for
RECDEX's per-user lesion.  The chunk floor is this module's
``_MIN_CHUNK`` for every walk.  Neither can change an answer, since a user
leaves only by the stop test; they set how many items the walk scores, and
in how many GEMM and merge calls.

**The head is one blocked MM call.**  Every user of a block scores every
head item, so the head is answered by ``blocked_mm_topk`` over the head's
item rows, taken in ascending id order (one ``np.sort`` of its ids per
walk).  MM breaks ties by column, which is then the id tie-break, so
``head_ids[cols]`` is each user's canonical top-K of the head.  Blocked MM
alone decides the head's layout and precision, as it does for every other
dense block: a head of at least ``16·K`` items serving at least
``blocked_mm._MIN_USERS`` users takes the float32 filter, whose margin
proof holds for any item matrix, and the scores it returns are float64
either way.  Against a float64 head GEMM of the walk's own, this moved
3 200-user serves of scale-4 models (a Spark partition's share; medians
of 3 interleaved processes × 9 serves, one OpenBLAS thread, 4-vCPU x86
host): kdd-f16-hi K=10 LEMP 41 → 33 ms and RECDEX 17.7 → 14.5 ms;
glove-f32-hi K=1 LEMP 39 → 25 ms and RECDEX 45 → 32 ms, K=10 141 → 122
and 65 → 45 ms.  Sample-sized serves (256–320 users) moved by at most
0.21 ms where MM itself held still (r2-f16-hi K=1 RECDEX 1.62 → 1.82 ms,
about 40 users per cluster).

**The merges.**  After each chunk's GEMM only the rows with some entry
``>=`` their current kth score are merged, and in those rows only such
entries join the merge (``merge_topk``): this is the paper's K-heap rule
(push an item only if it beats the heap's minimum), applied per entry.  An
entry below the kth score can never enter the top-K, so the answer is
unchanged; ``>=`` keeps the ties the id tie-break may still need.  A long
chunk therefore adds only its few qualifying entries to the merge, not an
``(a, k + chunk)`` array.

Users are walked in blocks of ``USER_BLOCK``, so the walk's working
arrays have a fixed size however many users it serves.  Unblocked, a
LEMP-L serve of all 24 000 users of the reference grid's r2-f32-lo
(scale 4) allocated up to 127 MB of transients; blocked, 30 MB, below
blocked MM's 52 MB on the same model.  Samples, Spark partitions and
RECDEX clusters of up to ``USER_BLOCK`` users walk as one block.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.blocked_mm import blocked_mm_topk
from repro.linalg.kernels import merge_topk, row_norms

USER_BLOCK = 4096
_ROUNDING_SLACK = 1e-6
#: the shortest chunk after the head: a shorter one pays a GEMM and a merge
#: call for too few items
_MIN_CHUNK = 32


def bounded_walk(
    users: np.ndarray,
    items: np.ndarray,
    order: np.ndarray,
    bounds: np.ndarray,
    k: int,
    *,
    first: int,
    max_norm: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact canonical top-``k`` of ``users @ items.T`` by a bounded walk.

    ``order`` lists the item ids to walk and ``bounds[j]`` (non-increasing)
    upper-bounds ``u·items[order[j']] / ‖u‖`` for every ``j' ≥ j`` and
    every user ``u``, up to rounding; ``max_norm`` is at least every
    walked item's norm and scales the rounding slack.  The first
    ``max(first, k)`` items are scored against every user of a block in
    one ``blocked_mm_topk`` call; each later chunk only against the
    block's users still walking.  Zero-norm users score 0 everywhere and
    are never dropped: their canonical top-K is the ``k`` smallest ids,
    which only the whole list reveals.

    ``order`` holds every row of ``items``, since a user handed to blocked
    MM is scored against all of them.

    Returns ``(ids, scores, scored)``: ``(m, min(k, n))`` arrays in
    canonical order, and the number of user·item pairs scored.
    """
    m, n = len(users), len(order)
    k = min(k, n)
    # At least k items before any stop test, so every kth score is a real one.
    head = min(max(first, k), n)
    # Every user of a block scores every head item, so the head is one blocked
    # MM call; its ids ascend, so MM's column tie-break is the id tie-break.
    head_ids = np.sort(order[:head])
    head_items = items[head_ids]
    top_ids = np.empty((m, k), dtype=np.int64)
    top_scores = np.empty((m, k))
    reach = bounds + _ROUNDING_SLACK * max_norm
    scored = 0
    for start in range(0, m, USER_BLOCK):
        rows = slice(start, start + USER_BLOCK)
        top_ids[rows], top_scores[rows], block_scored = _walk_block(
            users[rows], items, order, reach, k, head_ids, head_items
        )
        scored += block_scored
    return top_ids, top_scores, scored


def _walk_block(
    users: np.ndarray,
    items: np.ndarray,
    order: np.ndarray,
    reach: np.ndarray,
    k: int,
    head_ids: np.ndarray,
    head_items: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """``bounded_walk`` for one block of users; ``head_items`` (ids ``head_ids``) are scored by all.

    ``reach`` is ``bounds + slack``: a user walks on while ``reach[pos]``
    is at least its kth normalized score.
    """
    n = len(order)
    neg_reach = -reach  # non-decreasing, as searchsorted needs
    norms = row_norms(users)
    cols, top_scores = blocked_mm_topk(users, head_items, k)
    top_ids = head_ids[cols]
    pos = len(head_ids)
    scored = len(users) * pos
    active = np.arange(len(users))
    while pos < n and active.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            kth = np.where(
                norms[active] > 0, top_scores[active, -1] / norms[active], -np.inf
            )
        walking = reach[pos] >= kth
        active, kth = active[walking], kth[walking]
        if not active.size:
            break
        # Where each user's own stop test would fire, were its kth not to rise.
        ends = np.searchsorted(neg_reach, -kth, side="right")
        end = int(np.sort(ends)[ends.size // 2])
        if end >= n:
            # Half or more would walk the whole list: blocked MM answers them all.
            top_ids[active], top_scores[active] = blocked_mm_topk(users[active], items, k)
            scored += active.size * n
            break
        stop = min(max(end, pos + _MIN_CHUNK), n)
        ids = order[pos:stop]
        scores = users[active] @ items[ids].T
        scored += active.size * (stop - pos)
        pos = stop
        # Only a row with an entry at or above its kth score can change.
        hit = (scores >= top_scores[active, -1:]).any(axis=1)
        if not hit.any():
            continue
        rows, scores = active[hit], scores[hit]
        top_ids[rows], top_scores[rows] = merge_topk(top_ids[rows], top_scores[rows], ids, scores, k)
    return top_ids, top_scores, scored
