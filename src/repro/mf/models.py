"""MF model container and synthetic model generators.

Two model sources back the experiments:

* ``als_model`` — actually trained with ``repro.mf.als`` on synthetic
  ratings; used where the paper studies the *effect of λ* (Fig. 5).
* ``concentration_model`` — user vectors drawn from a mixture of
  directional cones with a concentration knob κ; used for the 16-model
  reference grid, where the paper's models span "highly indexable"
  (tight user clusters ⇒ RECDEX/LEMP win) to "not indexable" (isotropic
  users ⇒ blocked MM wins).  κ directly controls the angular spread the
  indexes exploit, giving us both regimes deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mf import als
from repro.mf.data import Ratings, dataset_ratings, train_test_split


@dataclass(frozen=True)
class MFModel:
    """A trained/synthesized MF model: the input to every MIPS strategy."""

    name: str
    users: np.ndarray  # (m, f) float64
    items: np.ndarray  # (n, f) float64
    lam: float = float("nan")
    test_rmse: float = float("nan")
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        """Reject a model no strategy can answer exactly (NaN fails every bound test)."""
        u, v = self.users, self.items
        if u.ndim != 2 or v.ndim != 2:
            raise ValueError(f"users and items must be 2-D, got {u.ndim}-D and {v.ndim}-D")
        if u.shape[1] != v.shape[1]:
            raise ValueError(f"users have rank {u.shape[1]} but items have rank {v.shape[1]}")
        if not (np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("users and items must be finite (no NaN or inf)")

    @property
    def m(self) -> int:
        return self.users.shape[0]

    @property
    def n(self) -> int:
        return self.items.shape[0]

    @property
    def f(self) -> int:
        return self.users.shape[1]


def concentration_model(
    *,
    name: str = "synthetic",
    n_users: int,
    n_items: int,
    f: int,
    kappa: float,
    n_cones: int = 6,
    item_norm_sigma: float = 0.5,
    seed: int = 0,
) -> MFModel:
    """Model whose user vectors concentrate around ``n_cones`` directions.

    ``kappa`` ≥ 0 controls concentration: each user vector is
    ``normalize(d + ε/√κ)`` for its cone direction ``d`` and isotropic
    ``ε`` — large κ gives tightly clustered users (index-friendly, the
    high-λ regime), κ≈0 gives near-isotropic users (MM-friendly).  User
    magnitudes are log-normal so inner products are not pure cosine
    similarity.  Item vectors are isotropic with log-normal magnitudes of
    spread ``item_norm_sigma`` — LEMP's length-based pruning feeds on item
    norm spread, so MM-friendly models should set it near zero (flat
    norms) just as index-friendly ones should leave it wide.
    """
    g = np.random.default_rng(seed)
    dirs = g.normal(size=(n_cones, f))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    which = g.integers(0, n_cones, n_users)
    spread = 1.0 / np.sqrt(max(kappa, 1e-6))
    u = dirs[which] + spread * g.normal(size=(n_users, f))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-12)
    u *= np.exp(0.25 * g.normal(size=(n_users, 1)))
    v = g.normal(size=(n_items, f))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
    v *= np.exp(item_norm_sigma * g.normal(size=(n_items, 1)))
    return MFModel(
        name=name,
        users=u,
        items=v,
        meta={
            "kappa": kappa,
            "n_cones": n_cones,
            "item_norm_sigma": item_norm_sigma,
            "seed": seed,
        },
    )


def als_model(
    *,
    dataset: str,
    scale: float,
    f: int,
    lam: float,
    n_iters: int = 8,
    rank_true: int = 8,
    seed: int = 0,
) -> MFModel:
    """Train an ALS model on a synthetic dataset analog; records test RMSE."""
    ratings = dataset_ratings(dataset, scale=scale, rank=rank_true, seed=seed)
    train, test = train_test_split(ratings, seed=seed)
    users, items = als.train_als(train, f=f, lam=lam, n_iters=n_iters, seed=seed)
    return MFModel(
        name=f"{dataset}-als-f{f}-lam{lam:g}",
        users=users,
        items=items,
        lam=lam,
        test_rmse=als.rmse(users, items, test),
        meta={"dataset": dataset, "scale": scale, "train_nnz": train.nnz},
    )


def tiny_model(*, m: int = 40, n: int = 25, f: int = 6, seed: int = 0) -> MFModel:
    """Small random model for unit tests (isotropic, distinct scores w.h.p.)."""
    g = np.random.default_rng(seed)
    return MFModel(
        name=f"tiny-{m}x{n}x{f}-s{seed}",
        users=g.normal(size=(m, f)),
        items=g.normal(size=(n, f)),
    )
