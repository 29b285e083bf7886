"""Seeded Lloyd's k-means — the clustering substrate for RECDEX.

The paper uses Armadillo's k-means ("standard k-means works remarkably
well" for approximating angular clusters, Section 5.1).  This is a plain
NumPy Lloyd's iteration with k-means++-style seeding, deterministic in
``seed``.  Empty clusters are re-seeded from the farthest point so the
requested cluster count is always honored.

Every pass is a whole-array operation over the ``k`` centers, never over
the points one cluster at a time:

* seeding scores each point's squared distance to a new center by the
  expansion ``‖x‖² − 2x·c + ‖c‖²`` (clamped at 0), with no ``x − c`` copy;
* assignment is one ``(k, n)`` GEMM ``(-2·centers) @ x.T`` plus ``‖c‖²`` (the
  per-point ``‖x‖²`` cannot change which center is nearest), reduced by a
  k-step ``np.minimum`` sweep whose strict ``<`` keeps the first nearest
  center, as ``argmin`` does;
* the update is one one-hot ``(k, n) @ (n, f)`` GEMM divided by the
  cluster sizes.
"""
from __future__ import annotations

import numpy as np


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _seed_centers(
    x: np.ndarray, x_sq: np.ndarray, k: int, g: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = len(x)

    def dist2(i: int) -> np.ndarray:
        # The same einsum loop as ``x_sq``, so a copy of ``x[i]`` scores exactly 0.
        d2 = np.einsum("ij,j->i", x, x[i])
        d2 *= -2.0
        d2 += x_sq
        d2 += x_sq[i]
        return np.maximum(d2, 0.0, out=d2)

    centers = np.empty((k, x.shape[1]))
    first = g.integers(n)
    centers[0] = x[first]
    d2 = dist2(first)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = x[g.integers(n, size=k - j)]
            break
        pick = g.choice(n, p=d2 / total)
        centers[j] = x[pick]
        np.minimum(d2, dist2(pick), out=d2)
    return centers


def assign(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center per point, and ``‖c‖² − 2x·c`` to it (``d² − ‖x‖²``)."""
    dist = (-2.0 * centers) @ x.T  # scaling by 2 is exact: the same as -2·(c·x)
    dist += _sq_norms(centers)[:, None]
    labels = np.zeros(len(x), dtype=np.int64)
    best = dist[0].copy()
    for j in range(1, len(centers)):
        np.copyto(labels, j, where=dist[j] < best)
        np.minimum(best, dist[j], out=best)
    return labels, best


def kmeans(
    x: np.ndarray,
    k: int,
    *,
    n_iters: int = 25,
    seed: int = 0,
    tol: float = 1e-7,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster rows of ``x`` into ``k`` groups.

    Returns ``(labels, centers)`` with ``labels`` shape ``(n,)`` in
    ``[0, k)`` and ``centers`` shape ``(k, f)``.  ``k`` is clamped to the
    number of points.
    """
    n = len(x)
    k = min(k, n)
    g = np.random.default_rng(seed)
    x_sq = _sq_norms(x)
    centers = _seed_centers(x, x_sq, k, g)
    clusters = np.arange(k)[:, None]
    for _ in range(n_iters):
        labels, best = assign(x, centers)
        counts = np.bincount(labels, minlength=k)
        new_centers = ((labels == clusters).astype(x.dtype) @ x) / np.maximum(counts, 1)[:, None]
        empty = counts == 0
        if empty.any():
            # Re-seed every empty cluster at the current farthest point.
            new_centers[empty] = x[int(np.argmax(x_sq + best))]
        shift = float(np.max(np.sum((new_centers - centers) ** 2, axis=1)))
        centers = new_centers
        if shift < tol:
            break
    labels, _ = assign(x, centers)
    return labels, centers
