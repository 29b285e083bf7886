"""LEMP-lite: LEMP's length-based ("L") exact MIPS walk, batched over users.

After Teflioudi et al.'s LEMP (SIGMOD'15): items are sorted by L2 norm
(descending).  The first ``bucket_size`` items are scored against every
user; the rest of the list is walked in chunks the bounds size, of at
least 32 items.  A user stops at the first chunk whose leading
``‖u‖ · ‖i‖`` falls below its kth-best score — later items only have
smaller norms, so none of them can enter the top-K.  LEMP sizes buckets to
L3 cache; ``bucket_size=None`` takes ``max(32, n // 16)``, the analog at
NumPy-kernel granularity for the reference grid's item counts.

LEMP's incremental ("I") screen — partial inner products over the leading
dimensions plus a Cauchy–Schwarz bound on the rest — is left out: on a
2 000-user sample of the six benchmark models (reference grid at scale 4,
K ∈ {1, 10}, one OpenBLAS thread on a 4-vCPU x86 host) the plain
length-based walk returned the same ids 1.2–5.6× faster: the screen's own
work (a partial GEMM per bucket, then a scattered gather or the full GEMM
anyway) cost more than it saved.

The walk itself is ``repro.linalg.bounded_walk``, shared with RECDEX;
LEMP sets only its head, the bucket.
"""
from __future__ import annotations

import numpy as np

from repro.indexes.base import Strategy, TopK
from repro.linalg.bounded_walk import bounded_walk
from repro.linalg.kernels import merge_topk  # noqa: F401  (patched by mipsbench/tracing.py)
from repro.linalg.kernels import row_norms
from repro.mf.models import MFModel


class LempIndex(Strategy):
    """LEMP-lite exact MIPS index (batch setting)."""

    name = "lemp"
    batching = True

    def __init__(self, model: MFModel, *, bucket_size: int | None = None):
        super().__init__(model)
        self.bucket_size = max(1, bucket_size) if bucket_size is not None else max(32, model.n // 16)
        #: item ids by descending norm, and those norms (the walk's bounds)
        self.order: np.ndarray | None = None
        self.bounds: np.ndarray | None = None

    def build(self) -> None:
        if self.built:
            return
        norms = row_norms(self.model.items)
        self.order = np.argsort(-norms, kind="stable")
        self.bounds = norms[self.order]
        self.built = True

    def query_vectors(self, users: np.ndarray, k: int) -> TopK:
        users = self._check(users, k)
        if not self.built:
            self.build()
        ids, scores, _ = bounded_walk(
            users,
            self.model.items,
            self.order,
            self.bounds,
            k,
            first=self.bucket_size,
            max_norm=self.bounds.max(initial=0.0),
        )
        return TopK(ids=ids, scores=scores)

    query = Strategy.query  # in this class's namespace: mipsbench/tracing.py patches it per class
