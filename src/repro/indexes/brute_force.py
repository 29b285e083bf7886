"""Brute-force blocked matrix multiply as a Strategy."""
from __future__ import annotations

import numpy as np

from repro.indexes.base import Strategy, TopK
from repro.linalg.blocked_mm import blocked_mm_topk


class BlockedMM(Strategy):
    """The paper's MM baseline: BLAS GEMM over user blocks + top-K extract.

    No index to build; ``build`` is a no-op.  Performance is independent of
    the model's weight geometry — the property RECOPT exploits when
    extrapolating from a sample.
    """

    name = "mm"
    batching = True

    def query_vectors(self, users: np.ndarray, k: int) -> TopK:
        users = self._check(users, k)
        ids, scores = blocked_mm_topk(users, self.model.items, k)
        return TopK(ids=ids, scores=scores)

    query = Strategy.query  # in this class's namespace: mipsbench/tracing.py patches it per class
