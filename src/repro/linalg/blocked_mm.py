"""Blocked matrix-multiply top-K — the paper's brute-force baseline.

The paper uses Intel MKL GEMM over user batches plus a C++ priority queue
for top-K extraction.  Here the per-block GEMM is NumPy's BLAS ``@`` and
extraction is ``topk_from_scores``'s threshold filter: a few vectorized
O(n) passes per user (group maxima, a compare, one ``nonzero``) leave about
K survivors per row, and only those are sorted.  On 1024-user blocks of
1 200 and 8 000 items (one OpenBLAS thread, 4-vCPU x86 host), selection
took 0.7–1.4× the GEMM's time at K ≤ 10 and 2–5× at K = 50
(``benchmarks/bench_topk_select.py``).
Blocking over users bounds the dense score matrix to
``USER_BLOCK × n_items`` doubles, mirroring the paper's "batches that each
occupy the entirety of memory" at container scale.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.kernels import topk_from_scores

USER_BLOCK = 1024


def blocked_mm_topk(users: np.ndarray, items: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` item (ids, scores) per user via blocked GEMM.

    ``users`` is ``(m, f)``, ``items`` is ``(n, f)``; returns
    ``(m, min(k, n))`` id and score arrays in canonical order.
    """
    m = users.shape[0]
    n = items.shape[0]
    k = min(k, n)
    out_ids = np.empty((m, k), dtype=np.int64)
    out_scores = np.empty((m, k), dtype=np.float64)
    items_t = items.T
    for start in range(0, m, USER_BLOCK):
        stop = min(start + USER_BLOCK, m)
        scores = users[start:stop] @ items_t
        ids, sc = topk_from_scores(scores, k)
        out_ids[start:stop] = ids
        out_scores[start:stop] = sc
    return out_ids, out_scores
