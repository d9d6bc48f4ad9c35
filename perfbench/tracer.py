"""Spans around the package's public functions, installed from outside.

The tracer replaces each listed function at every name it is bound to in
the ``walksearch`` modules (``sample_dfs`` is bound in ``samplers`` and
imported into ``coverage``, ``invariance`` and ``cli``), so every call
records one span whatever module it is called through. Methods are
wrapped on their class. ``uninstall`` puts the originals back; an
untraced run never installs anything.

A span is ``[name, layer, job, parent, start, end, work]``: ``parent`` is
the index of the innermost enclosing span, and ``work`` is an optional
dict of counts taken from the call's arguments and result. Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded and properly nested, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _dfs_work(args, kwargs, result):
    return {"nodes": args[0].n}


def _walk_work(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 1, "length")}


def _full_coverage_work(args, kwargs, result):
    return {
        "m": _arg(args, kwargs, 1, "m"),
        "trials": _arg(args, kwargs, 2, "trials"),
    }


def _covertime_work(args, kwargs, result):
    finished = result.trials - result.censored
    finished_steps = round(result.mean * finished) if finished else 0
    return {
        "steps": finished_steps + result.censored * result.cap,
        "trials": result.trials,
        "censored": result.censored,
    }


def _adjacency_work(args, kwargs, result):
    rows, cols = result.shape
    return {"cells": rows * cols}


def _reconstruct_work(args, kwargs, result):
    encodings = _arg(args, kwargs, 1, "encodings")
    return {"cells": sum(enc.shape[0] * enc.shape[1] for enc in encodings)}


def _refine_work(args, kwargs, result):
    nodes = sum(g.n for g in result.graphs)
    return {"rounds": result.rounds, "history_cells": (result.rounds + 1) * nodes}


def _count_result(key):
    def work(args, kwargs, result):
        return {key: len(result)}

    return work


# (module, attribute, layer, work); "Class.method" wraps a method.
TARGETS = (
    ("graphs", "read_edge_list", "graphs", None),
    ("graphs", "load_edge_list", "graphs", None),
    ("graphs", "save_edge_list", "graphs", None),
    ("graphs", "gen_family", "graphs", None),
    ("graphs", "relabel", "graphs", None),
    ("graphs", "Graph.is_connected", "graphs", None),
    ("samplers", "derive_rng", "samplers", None),
    ("samplers", "sample_dfs", "samplers", _dfs_work),
    ("samplers", "sample_walk", "samplers", _walk_work),
    ("samplers", "sample_set", "samplers", None),
    ("samplers", "enumerate_dfs", "samplers", _count_result("outcomes")),
    ("coverage", "bound_query", "coverage", None),
    ("coverage", "bound_check_report", "coverage", None),
    ("coverage", "full_coverage_probability", "coverage", _full_coverage_work),
    ("coverage", "cover_time_estimate", "coverage", _covertime_work),
    ("coverage", "coverage_curve", "coverage", None),
    ("coverage", "curve_rows_to_csv", "coverage", None),
    ("encodings", "adjacency_encoding", "encodings", _adjacency_work),
    ("reconstruct", "verify_reconstruction", "reconstruct", None),
    ("reconstruct", "reconstruct_from_searches", "reconstruct", _reconstruct_work),
    ("wl", "wl_refine", "wl", _refine_work),
    ("wl", "wwl_refine", "wl", _refine_work),
    ("wl", "terminating_walks", "wl", _count_result("walks")),
    ("wl", "distinguish", "wl", None),
    ("wl", "partition_of", "wl", None),
    ("wl", "Partition.sorted_blocks", "wl", None),
    ("invariance", "invariance_exact", "invariance", None),
    ("invariance", "dfs_distribution", "invariance", None),
    ("invariance", "pushforward", "invariance", None),
    ("invariance", "sup_discrepancy", "invariance", None),
    ("invariance", "invariance_sampled", "invariance", None),
    ("invariance", "sample_visit_orders", "invariance", None),
    ("invariance", "two_sample_tv", "invariance", None),
    ("invariance", "tv_permutation_pvalue", "invariance", None),
    ("cli", "main", "cli", None),
)

MODULES = (
    "graphs",
    "samplers",
    "coverage",
    "encodings",
    "reconstruct",
    "wl",
    "invariance",
    "cli",
)

NAME, LAYER, JOB, PARENT, START, END, WORK = range(7)


class Tracer:
    """Collects spans while a job or the set-up is marked as current.

    Calls made while ``job`` is None (the benchmark's own output checks)
    pass straight through without a span.
    """

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name: str, layer: str, work=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = [name, layer, job, parent, start, end, None]
            if work is not None:
                spans[sid][WORK] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every module-level name bound to it."""
        modules = [importlib.import_module("walksearch")] + [
            importlib.import_module(f"walksearch.{m}") for m in MODULES
        ]
        for mod_name, attr, layer, work in TARGETS:
            home = importlib.import_module(f"walksearch.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(original, name, layer, work))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, layer, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def rescale(spans, first: int, factor: float) -> None:
    """Scale the durations of spans[first:], the spans of one job, by the
    job's host-speed factor (see speed.py), keeping their nesting: every
    time moves proportionally away from the earliest start among them."""
    if first >= len(spans):
        return
    origin = min(s[START] for s in spans[first:])
    for s in spans[first:]:
        s[START] = origin + (s[START] - origin) * factor
        s[END] = origin + (s[END] - origin) * factor


def self_times(spans) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans) -> dict:
    """Per span name: call count, self seconds, and summed work counts."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "work": defaultdict(int)})
    for s, t in zip(spans, own):
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += t
        if s[WORK]:
            for k, v in s[WORK].items():
                row["work"][k] += v
    return out


def layer_self_times(spans) -> dict:
    totals: dict = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s[LAYER]] += t
    return totals


def parent_names(spans, name: str) -> dict:
    """Count spans called `name` by the name of their direct parent."""
    counts: dict = defaultdict(int)
    for s in spans:
        if s[NAME] == name:
            parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else None
            counts[parent] += 1
    return counts


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            row = {
                "id": i,
                "name": s[NAME],
                "layer": s[LAYER],
                "job": s[JOB],
                "parent": s[PARENT],
                "start": s[START],
                "end": s[END],
            }
            if s[WORK]:
                row["work"] = dict(s[WORK])
            fh.write(json.dumps(row) + "\n")
