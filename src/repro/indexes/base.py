"""Strategy protocol shared by every MIPS serving technique.

A strategy owns a model, optionally builds an index (``build``), and
answers exact top-K for any user vectors, built on or not (``query_vectors``);
``query(user_rows)`` answers ``model.users[user_rows]``.
RECOPT relies on three properties encoded here:

* ``build`` is timed separately from queries (index construction is cheap
  relative to traversal — the paper's Fig. 2 observation);
* ``query`` accepts a user subset, so the optimizer can measure a sample;
* ``batching`` marks strategies whose throughput depends on user batching
  (blocked MM, LEMP, RECDEX) — for those the T-test early-stop is invalid
  and the full sample must be measured at once (Section 4.1).
"""
from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.mf.models import MFModel


@dataclass(frozen=True)
class TopK:
    """Exact top-K answer for a set of users, in canonical order.

    ``ids``/``scores`` are ``(n_queried, k)``; row order matches the
    users passed to ``query_vectors`` (or the rows passed to ``query``).
    """

    ids: np.ndarray
    scores: np.ndarray


def check_k(k) -> int:
    """``k`` as an ``int``; ``ValueError`` unless it is an integer (not a ``bool``) of at least 1.

    A float, even ``3.0``, is refused here rather than by a kernel's ``TypeError``.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):  # np.bool_ is neither
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return operator.index(k)


class Strategy(ABC):
    """Base class for exact MIPS serving strategies."""

    #: short machine name, e.g. "mm", "lemp", "recdex"
    name: str = "?"
    #: True if the strategy's throughput depends on batching many users
    batching: bool = True

    def __init__(self, model: MFModel):
        self.model = model
        self.built = False

    def build(self) -> None:
        """Construct the index (no-op for brute force). Idempotent."""
        self.built = True

    @abstractmethod
    def query_vectors(self, users: np.ndarray, k: int) -> TopK:
        """Exact top-``k`` for each row of the ``(q, f)`` matrix ``users``."""

    def query(self, user_rows: np.ndarray, k: int) -> TopK:
        """Exact top-``k`` for ``model.users[user_rows]``."""
        return self.query_vectors(self._users(user_rows), k)

    def _check(self, users, k: int) -> np.ndarray:
        """``users`` as a float64 array; ``ValueError`` unless it is a finite ``(q, f)`` matrix and ``k`` passes ``check_k``.

        Every ``query_vectors`` calls this first and answers what it returns:
        a NaN row would otherwise come back as duplicate ids scored ``-inf``,
        and a list of rows would fail inside a kernel.
        """
        f = self.model.f
        users = np.asarray(users, dtype=np.float64)
        if users.ndim != 2 or users.shape[1] != f:
            raise ValueError(f"user vectors must be a (q, {f}) matrix, got shape {users.shape}")
        if not np.isfinite(users).all():
            raise ValueError("user vectors must be finite (no NaN or inf)")
        check_k(k)
        return users

    def _users(self, user_rows: np.ndarray) -> np.ndarray:
        """``model.users[user_rows]``; raises ``ValueError`` unless ``user_rows`` are integers in ``[0, m)``.

        Plain indexing would wrap a negative row to another user's vector and
        take a boolean array as a mask.
        """
        user_rows = np.asarray(user_rows)
        m = self.model.m
        if user_rows.size and user_rows.dtype.kind not in "iu":
            raise ValueError(f"user ids must be integers, got dtype {user_rows.dtype}")
        if user_rows.size and (user_rows.min() < 0 or user_rows.max() >= m):
            raise ValueError(f"user ids must lie in [0, {m})")
        return self.model.users[user_rows.astype(np.int64, copy=False)]  # [] reads as float
