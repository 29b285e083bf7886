"""Synthetic rating data — stand-in for Netflix / Yahoo KDD / Yahoo R2.

The real datasets are unavailable offline, so we generate partially
observed low-rank rating matrices with user-community structure: ground
truth ``R = U* V*ᵀ + noise`` where the true user factors are drawn from a
small number of directional communities.  That structure is what makes
regularization matter — ALS with larger λ shrinks factors toward the
shared community directions, producing the angular concentration the
paper observes on real models.  Ratings are clipped to the 1–5 star range
like Netflix.

Dataset *analogs* preserve the paper's aspect ratios (Table 1):

* ``netflix`` — many users, few items (480 K × 17.7 K in the paper)
* ``kdd``     — users ≈ 1.6× items, huge item side (1 M × 625 K)
* ``r2``      — many users, mid item count (1.8 M × 136 K)
* ``glove``   — few "users" (query vectors), many items (100 K × 1.09 M)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (users, items) per unit scale; chosen so scale=1.0 is laptop-sized while
# keeping each paper dataset's user:item aspect ratio.
DATASET_SHAPES: dict[str, tuple[int, int]] = {
    "netflix": (8000, 300),
    "kdd": (3200, 2000),
    "r2": (6000, 450),
    "glove": (800, 8000),
}

# Paper-reported statistics (Table 1), kept next to the analogs so the
# Table-1 harness can print both sides.
PAPER_TABLE1 = {
    "netflix": {"users": 480_189, "items": 17_770, "ratings": 100_480_507},
    "kdd": {"users": 1_000_990, "items": 624_961, "ratings": 252_810_175},
    "r2": {"users": 1_823_179, "items": 136_736, "ratings": 699_640_226},
    "glove": {"users": 100_000, "items": 1_093_514, "ratings": None},
}


@dataclass(frozen=True)
class Ratings:
    """A partially observed rating matrix in COO form."""

    user: np.ndarray  # (nnz,) int64
    item: np.ndarray  # (nnz,) int64
    rating: np.ndarray  # (nnz,) float64
    n_users: int
    n_items: int

    @property
    def nnz(self) -> int:
        return len(self.rating)


def synthetic_ratings(
    *,
    n_users: int,
    n_items: int,
    rank: int = 8,
    density: float = 0.05,
    n_communities: int = 4,
    noise: float = 0.3,
    seed: int = 0,
) -> Ratings:
    """Low-rank ratings with user-community structure, clipped to [1, 5].

    Each user's true factor is a community direction plus isotropic jitter;
    item factors are isotropic.  Each user rates ``density · n_items``
    distinct items drawn uniformly, and every user and every item gets at
    least ``rank + 1`` ratings (capped by the other side's count), so each
    ALS normal system is determined by more than one rating.
    """
    g = np.random.default_rng(seed)
    communities = g.normal(size=(n_communities, rank))
    communities /= np.linalg.norm(communities, axis=1, keepdims=True)
    membership = g.integers(0, n_communities, n_users)
    u_true = communities[membership] + 0.35 * g.normal(size=(n_users, rank))
    v_true = g.normal(size=(n_items, rank)) / np.sqrt(rank)

    # Per-row sampling: the first ``per_user`` of a random key order.
    per_user = min(n_items, max(rank + 1, round(density * n_items)))
    picked = np.argpartition(g.random((n_users, n_items)), per_user - 1, axis=1)[:, :per_user]
    rated = np.zeros((n_users, n_items), dtype=bool)
    rated[np.arange(n_users)[:, None], picked] = True
    # Top up items left short with ratings from users who have not rated them.
    per_item = min(n_users, rank + 1)
    for j in np.nonzero(rated.sum(axis=0) < per_item)[0]:
        unrated = np.nonzero(~rated[:, j])[0]
        rated[g.choice(unrated, per_item - rated[:, j].sum(), replace=False), j] = True
    user, item = np.nonzero(rated)
    nnz = len(user)

    raw = np.einsum("ij,ij->i", u_true[user], v_true[item])
    # Affine-map scores into the star range before adding noise.
    raw = 3.0 + 1.5 * raw / max(raw.std(), 1e-9)
    rating = np.clip(raw + noise * g.normal(size=nnz), 1.0, 5.0)
    return Ratings(user=user, item=item, rating=rating, n_users=n_users, n_items=n_items)


def train_test_split(ratings: Ratings, *, test_frac: float = 0.2, seed: int = 0) -> tuple[Ratings, Ratings]:
    """Random per-user split of observed entries into train/test parts.

    Each user sends ``round(test_frac · n_u)`` of its ``n_u`` ratings to the
    test side, so no user is left with fewer training ratings than its
    share.  A plain per-entry coin flip leaves some users with fewer than
    ``f`` training ratings; at λ ≈ 0 their ALS solutions then collapse onto
    the span of a few item vectors, which blurs the λ → concentration
    effect Fig. 5 measures.
    """
    g = np.random.default_rng(seed)
    # Rank each rating within its user by a random key; the lowest go to test.
    key = g.random(ratings.nnz)
    order = np.lexsort((key, ratings.user))
    counts = np.bincount(ratings.user, minlength=ratings.n_users)
    starts = np.cumsum(counts) - counts
    rank_in_user = np.empty(ratings.nnz, dtype=np.int64)
    rank_in_user[order] = np.arange(ratings.nnz) - np.repeat(starts, counts)
    mask = rank_in_user < np.round(test_frac * counts)[ratings.user]
    def _sub(sel: np.ndarray) -> Ratings:
        return Ratings(
            user=ratings.user[sel],
            item=ratings.item[sel],
            rating=ratings.rating[sel],
            n_users=ratings.n_users,
            n_items=ratings.n_items,
        )
    return _sub(~mask), _sub(mask)


def dataset_ratings(name: str, *, scale: float = 1.0, rank: int = 8, seed: int = 0) -> Ratings:
    """Ratings for a named dataset analog at a given scale (see module doc)."""
    if name not in DATASET_SHAPES:
        raise KeyError(f"unknown dataset analog {name!r}; choose from {sorted(DATASET_SHAPES)}")
    n_users, n_items = DATASET_SHAPES[name]
    n_users = max(8, int(n_users * scale))
    n_items = max(8, int(n_items * scale))
    return synthetic_ratings(n_users=n_users, n_items=n_items, rank=rank, seed=seed)
