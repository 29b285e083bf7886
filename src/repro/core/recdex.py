"""RECDEX: cluster-users + sorted-bound-lists exact MIPS index (Section 5).

Construction (Algorithm 1, ``ConstructIndex``):

1. k-means the user vectors into ``C`` clusters (paper default C=8);
2. per cluster, θ_b = max over member users of the user↔centroid angle;
3. per item, θ_ic = item↔centroid angle, and the Koenigstein-style bound
   (Eqn. 3)  r*_ci = ‖i‖·cos(θ_ic − θ_b)  if θ_b < θ_ic  else ‖i‖;
4. sort each cluster's items by r*_ci descending — the index.

Querying (Algorithm 1, ``QueryIndex``) walks the list of a user vector's
nearest center (k-means's ``assign``), stopping when r*_ci < (kth-best
u·i)/‖u‖: Lemma 5.1 guarantees r* upper bounds the ‖u‖-normalized score of
any user within θ_b of the center, built on or not, so nothing past the
stop can enter the top-K.  A user outside the cone is answered by blocked
MM.  Note Algorithm 1 in the paper compares the raw heap min against
CBound; the bound is on the *normalized* score, so we divide by ‖u‖ —
without it the walk would terminate early for users with ‖u‖ > 1 and the
result would not be exact.

**k-means on a user sample.**  Step 1 runs on at most ``_KMEANS_SAMPLE``
users, drawn without replacement with the k-means seed and kept in row
order; then one ``assign`` over every user gives the members, and step 2
takes θ_b over all of them.  Lemma 5.1 needs only that θ_b bounds the
angle of every user walked against the cluster's list, and it still does,
sampled or not; a user outside every cone goes to blocked MM as before.
Models with at most ``_KMEANS_SAMPLE`` users cluster exactly as k-means
over all of them does (its last step is the same ``assign``).  On the
scale-4 reference grid (one OpenBLAS thread, 4-vCPU x86 host) the cluster
stage went from 60 to 12 ms on netflix-f32-lo (32 000 users) and from 48
to 12 ms on r2-f32-lo (24 000); the mean θ_b of the hi models moved by
at most 0.01 rad (kdd-f16-hi 0.450 → 0.448, netflix-f16-hi 0.469 →
0.459, r2-f32-hi 0.567 → 0.567; glove-f32-hi has 3 200 users).

Hardware-efficient execution (Section 5.4): the first ``B`` items of each
walk are shared across all of the cluster's users as one blocked matrix
multiply; the remainder is walked in chunks sized by the bounds, with
per-chunk deactivation, and an unprunable rest is answered by blocked MM.
The walk is ``repro.linalg.bounded_walk``, the one LEMP-lite runs over its
norm-sorted list; RECDEX sets only its head, ``B``.  ``block=None`` takes
``B = max(32, n // 8)``: the paper's B=4096 is tuned for its 17K–1M-item
models, and the reference grid's analogs keep a prefix of about an eighth
of the items instead.  ``shared=False`` is the lesion variant used by the
Fig. 8 blocking lesion study: the same walk run for each user alone, from
the top of the list with a head of ``k`` items, as in the paper's per-user
walk, so nothing is shared across users.
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.kmeans import assign, kmeans
from repro.indexes.base import Strategy, TopK
from repro.linalg.blocked_mm import blocked_mm_topk
from repro.linalg.bounded_walk import bounded_walk
from repro.linalg.kernels import angles_to, row_norms
from repro.linalg.kernels import merge_topk, topk_with_ids  # noqa: F401  (patched by mipsbench/tracing.py)
from repro.mf.models import MFModel

DEFAULT_CLUSTERS = 8  # paper: C=8
_KMEANS_ITERS = 10
_KMEANS_SEED = 0
_KMEANS_SAMPLE = 4096  # users k-means clusters; every user is then assigned


def cbound(theta_ic: np.ndarray, item_norms: np.ndarray, theta_b: float | np.ndarray) -> np.ndarray:
    """Eqn. 3: upper bound on the normalized rating r*_ci (vectorized).

    ``‖i‖·cos(θ_ic − θ_b)`` where the cluster spread θ_b is smaller than
    the item's angle θ_ic, else ``‖i‖`` (the cosine's max of 1 applies).
    θ_b is a scalar or an array that broadcasts against θ_ic, such as one
    spread per row of a ``(clusters, items)`` angle matrix.
    """
    return np.where(
        theta_b < theta_ic,
        item_norms * np.cos(theta_ic - theta_b),
        item_norms,
    )


class RecdexIndex(Strategy):
    """RECDEX exact MIPS index (the paper's contribution #3)."""

    name = "recdex"
    batching = True

    def __init__(
        self,
        model: MFModel,
        *,
        n_clusters: int = DEFAULT_CLUSTERS,
        block: int | None = None,
        shared: bool = True,
    ):
        super().__init__(model)
        self.n_clusters = n_clusters
        self.block = max(1, block) if block is not None else max(32, model.n // 8)
        self.shared = shared
        #: the index, one row per non-empty cluster: ``centers`` ``(C', f)``;
        #: ``theta_b`` ``(C',)``, the largest angle from a member user to its
        #: center; ``orders`` ``(C', n)``, the item ids by descending bound
        #: r*_ci, and ``bounds`` ``(C', n)``, those bounds
        self.centers = self.theta_b = self.orders = self.bounds = None
        #: the largest item norm, which scales the walk's rounding slack
        self.max_norm = 0.0
        #: wall-clock per construction stage, for the Fig. 8 breakdown
        self.timings: dict[str, float] = {}
        #: user·item pairs scored across all served users, ``n`` for each
        #: user blocked MM answers (w̄ numerator)
        self.items_visited = 0

    # -- construction ------------------------------------------------------
    def build(self) -> None:
        if self.built:
            return
        users, items = self.model.users, self.model.items
        t0 = time.perf_counter()
        sample = users
        if len(users) > _KMEANS_SAMPLE:
            rows = np.random.default_rng(_KMEANS_SEED).choice(len(users), _KMEANS_SAMPLE, replace=False)
            sample = users[np.sort(rows)]
        _, centers = kmeans(sample, self.n_clusters, n_iters=_KMEANS_ITERS, seed=_KMEANS_SEED)
        labels, _ = assign(users, centers)
        # Renumber the non-empty clusters 0..C'-1 so a label indexes a row of the index.
        present, labels = np.unique(labels, return_inverse=True)
        centers = centers[present]
        t1 = time.perf_counter()
        item_norms = row_norms(items)
        # The per-row form the query tests its users with, so a build user stays
        # inside.  Angles lie in [0, π], so 0 is the identity of this max.
        theta_b = np.zeros(len(centers))
        np.maximum.at(theta_b, labels, angles_to(users, centers[labels]))
        theta_ic = np.stack([angles_to(items, c) for c in centers])
        bounds = cbound(theta_ic, item_norms, theta_b[:, None])
        t2 = time.perf_counter()
        orders = np.argsort(-bounds, axis=1, kind="stable")
        bounds = np.take_along_axis(bounds, orders, axis=1)
        t3 = time.perf_counter()
        self.centers, self.theta_b, self.orders, self.bounds = centers, theta_b, orders, bounds
        self.max_norm = float(item_norms.max(initial=0.0))
        self.timings = {"cluster": t1 - t0, "bound": t2 - t1, "sort": t3 - t2}
        self.built = True

    # -- querying ----------------------------------------------------------
    def query_vectors(self, users: np.ndarray, k: int) -> TopK:
        users = self._check(users, k)
        if not self.built:
            self.build()
        k = min(k, self.model.n)
        out_ids = np.empty((len(users), k), dtype=np.int64)
        out_scores = np.empty((len(users), k))
        labels, _ = assign(users, self.centers)
        # Lemma 5.1 holds only within θ_b of the center: blocked MM answers the rest.
        labels[angles_to(users, self.centers[labels]) > self.theta_b[labels]] = -1
        first = self.block if self.shared else 1
        for j in range(len(self.centers)):
            at = np.nonzero(labels == j)[0]
            # The lesion walks each user alone, so nothing is shared.
            for group in [at] if self.shared else at[:, None]:
                if not group.size:
                    continue
                out_ids[group], out_scores[group], scored = bounded_walk(
                    users[group],
                    self.model.items,
                    self.orders[j],
                    self.bounds[j],
                    k,
                    first=first,
                    max_norm=self.max_norm,
                )
                self.items_visited += scored
        rows = np.nonzero(labels < 0)[0]
        if rows.size:
            out_ids[rows], out_scores[rows] = blocked_mm_topk(users[rows], self.model.items, k)
            self.items_visited += rows.size * self.model.n
        return TopK(ids=out_ids, scores=out_scores)

    query = Strategy.query  # in this class's namespace: mipsbench/tracing.py patches it per class
