"""Spans around the calls into each layer's public functions.

Tracing lives entirely in the benchmark process: ``Tracer.install`` patches
each public name where the program imports it (``repro.core.recdex.merge_topk``
and ``repro.indexes.lemp.merge_topk`` are two patches of one function) and
``Tracer.uninstall`` restores the originals.  Spans stay in memory until
``dump`` writes them out.  Spark executors import their own, unpatched copy
of the program, so only driver-side calls are traced.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.recdex
import repro.core.recopt
import repro.indexes.brute_force
import repro.indexes.fexipro
import repro.indexes.lemp
import repro.linalg.blocked_mm
import repro.linalg.kernels

_SELECT = "linalg.select"
_MERGE = "linalg.merge_topk"
_MM = "linalg.blocked_mm_topk"


def _scores_attrs(a, kw):  # topk_from_scores(scores, k)
    return {"cells": int(a[0].size)}


def _ids_scores_attrs(a, kw):  # topk_with_ids(ids, scores, k)
    return {"cells": int(a[1].size)}


def _merge_attrs(a, kw):
    return {"cells": int(a[3].size)}  # scores_b: the newly scored chunk


def _mm_attrs(a, kw):
    users, items = a[0], a[1]
    return {"flops": 2 * users.shape[0] * items.shape[0] * users.shape[1]}


def _query_attrs(a, kw):
    self, rows = a[0], a[1]
    return {"users": len(rows), "n": self.model.n}


# (owner, attribute, span name, attrs from (args, kwargs)).  Module-level
# functions are patched in every module that imports them by name.
_PATCHES = [
    (repro.linalg.blocked_mm, "topk_from_scores", _SELECT, _scores_attrs),
    (repro.linalg.kernels, "topk_with_ids", _SELECT, _ids_scores_attrs),
    (repro.core.recdex, "topk_with_ids", _SELECT, _ids_scores_attrs),
    (repro.core.recdex, "merge_topk", _MERGE, _merge_attrs),
    (repro.indexes.lemp, "merge_topk", _MERGE, _merge_attrs),
    (repro.indexes.brute_force, "blocked_mm_topk", _MM, _mm_attrs),
    (repro.core.recdex, "kmeans", "core.kmeans", None),
    (repro.core.recdex.RecdexIndex, "build", "recdex.build", None),
    (repro.core.recdex.RecdexIndex, "query", "recdex.query", _query_attrs),
    (repro.indexes.brute_force.BlockedMM, "query", "mm.query", _query_attrs),
    (repro.indexes.lemp.LempIndex, "build", "lemp.build", None),
    (repro.indexes.lemp.LempIndex, "query", "lemp.query", _query_attrs),
    (repro.indexes.fexipro.FexiproIndex, "build", "fexipro.build", None),
    (repro.indexes.fexipro.FexiproIndex, "query", "fexipro.query", _query_attrs),
    (repro.core.recopt.Recopt, "estimate", "recopt.estimate", None),
    (repro.core.recopt.Recopt, "run", "recopt.run", None),
]


class Tracer:
    """In-memory spans {name, start, end, parent, job_id, attrs}."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; a no-op unless a job id is set."""
        if self.job_id is None:
            yield
            return
        idx = len(self.spans)
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "job_id": self.job_id,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*a, **kw):
            if self.job_id is None:
                return fn(*a, **kw)
            with self.span(name, **(attrs_of(a, kw) if attrs_of else {})):
                return fn(*a, **kw)

        return traced

    def install(self) -> None:
        for owner, attr, name, attrs_of in _PATCHES:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, attrs_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append((rec["start"], rec["end"]))
    out = []
    for i, rec in enumerate(spans):
        covered, reach = 0.0, rec["start"]
        for s, e in sorted(children.get(i, [])):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append(rec["end"] - rec["start"] - covered)
    return out


def layer_totals(spans: list[dict], job_ids: list[str]) -> dict[str, float]:
    """Per-layer sums over the given jobs, divided by the number of jobs.

    Layers the jobs never called read 0.
    """
    jobs = set(job_ids)
    selft = self_times(spans)
    tot: defaultdict[str, float] = defaultdict(float)

    def add(key, v):
        tot[key] += v

    def under(i, name):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return p
            p = spans[p]["parent"]
        return None

    for i, rec in enumerate(spans):
        if rec["job_id"] not in jobs:
            continue
        name, dur = rec["name"], rec["end"] - rec["start"]
        parent = spans[rec["parent"]]["name"] if rec["parent"] is not None else None
        if name == _SELECT and parent != _SELECT:
            add("linalg.select_s", dur)
            add("linalg.select_calls", 1)
            if parent == _MM:
                add("linalg.mm_select_s", dur)
        elif name == _MERGE:
            add("linalg.merge_s", dur)
            add("linalg.merge_calls", 1)
        elif name == _MM:
            add("linalg.gemm_s", selft[i])
            add("linalg.gemm_flops", rec["attrs"]["flops"])
        elif name == "core.kmeans":
            add("core.kmeans_s", dur)
        elif name.endswith((".build", ".query")):
            add(name + "_s", dur)
            if name.endswith(".query"):
                add(name + "_users", rec["attrs"]["users"])
            if name == "recdex.query":
                add("recdex.user_items", rec["attrs"]["users"] * rec["attrs"]["n"])
        # Items RECDEX scored, read from the shapes of its linalg calls:
        # its prefix selections and the new chunk of each merge.
        if (name == _MERGE or (name == _SELECT and parent not in (_SELECT, _MERGE))) and under(
            i, "recdex.query"
        ) is not None:
            add("recdex.items_scored", rec["attrs"]["cells"])
    n_jobs = max(1, len(jobs))
    return defaultdict(float, {key: v / n_jobs for key, v in tot.items()})
