"""The 16-model reference grid and per-model strategy factories.

The paper evaluates 16 reference models (Netflix/KDD/R2/GloVe × training
methods × latent sizes) spanning "highly indexable" to "MM-friendly"
geometry.  Our grid substitutes 4 dataset analogs × 2 latent sizes × 2
user-concentration levels (κ): high κ plays the role of the paper's
high-regularization / high-similarity models, low κ the isotropic ones.

Index parameters scale with the item count: the paper's B=4096 prefix and
L3-sized LEMP buckets are tuned for 17K–1M items; at analog scale each
index keeps a *ratio* by default (RECDEX's B ≈ n/8, LEMP's bucket ≈
n/16), so the factories take every index as its class builds it.
"""
from __future__ import annotations

import zlib
from typing import Callable

from repro.core.recdex import RecdexIndex
from repro.indexes.base import Strategy
from repro.indexes.brute_force import BlockedMM
from repro.indexes.fexipro import FexiproIndex
from repro.indexes.lemp import LempIndex
from repro.mf.data import DATASET_SHAPES
from repro.mf.models import MFModel, concentration_model

#: K values reported in Fig. 6 / Table 2.
K_VALUES = (1, 5, 10, 50)

#: Similarity levels.  "lo" ⇒ isotropic users *and* flat item norms — the
#: paper's un-indexable regime where MM wins; "hi" ⇒ tight user cones and
#: wide item-norm spread — the indexable regime where LEMP/RECDEX win.
LEVELS = {
    "lo": {"kappa": 0.05, "item_norm_sigma": 0.05},
    "hi": {"kappa": 200.0, "item_norm_sigma": 0.5},
}

F_VALUES = (16, 32)


def reference_grid(*, scale: float = 1.0, seed: int = 0) -> list[MFModel]:
    """Build the 16-model grid (4 datasets × 2 f × 2 κ)."""
    models = []
    for ds, (n_users, n_items) in DATASET_SHAPES.items():
        m = max(16, int(n_users * scale))
        n = max(16, int(n_items * scale))
        for f in F_VALUES:
            for level, cfg in LEVELS.items():
                models.append(
                    concentration_model(
                        name=f"{ds}-f{f}-{level}",
                        n_users=m,
                        n_items=n,
                        f=f,
                        kappa=cfg["kappa"],
                        item_norm_sigma=cfg["item_norm_sigma"],
                        # zlib.crc32 is stable across processes (unlike
                        # hash(), which is salted per run).
                        seed=seed + zlib.crc32(f"{ds}-{f}-{level}".encode()) % 1000,
                    )
                )
    return models


def strategy_factories(model: MFModel) -> dict[str, Callable[[MFModel], Strategy]]:
    """Factories for every serving strategy.

    ``model`` is not read: each index sizes itself from the model it is
    built on.
    """
    return {
        "mm": BlockedMM,
        "lemp": LempIndex,
        "fexipro-si": lambda m: FexiproIndex(m, variant="SI"),
        "fexipro-sir": lambda m: FexiproIndex(m, variant="SIR"),
        "recdex": RecdexIndex,
    }
