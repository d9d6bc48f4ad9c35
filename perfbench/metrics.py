"""End-to-end metrics of the untraced passes and per-layer metrics of the
traced ones."""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import median

from tracer import NAME, WORK, aggregate, layer_self_times, parent_names

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

LAYERS = ("graphs", "samplers", "coverage", "encodings", "reconstruct", "wl",
          "invariance", "cli")


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it. At p=90 and 100 values, 10 lie above it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def job_latencies(passes) -> list[float]:
    """Each job's median latency over the passes (one list per pass, in
    job order)."""
    return [median(column) for column in zip(*passes)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, jobs: int, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass over `jobs` jobs that wrote
    `out_bytes` bytes of output. A layer's share is of the summed self time
    of all layers, which is the time spent inside the package."""
    agg = aggregate(spans)

    def self_s(*names):
        return sum(agg[n]["self_s"] for n in names if n in agg)

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def work(name, key):
        return agg[name]["work"].get(key, 0) if name in agg else 0

    dfs_s = self_s("samplers.sample_dfs")
    rng_s = self_s("samplers.derive_rng")
    walk_s = self_s("samplers.sample_walk")
    fcp = "coverage.full_coverage_probability"
    draws = parent_names(spans, "samplers.sample_dfs").get(fcp, 0)
    covertime_s = self_s("coverage.cover_time_estimate")
    covertime_steps = work("coverage.cover_time_estimate", "steps")
    adjacency_s = self_s("encodings.adjacency_encoding")
    adjacency_cells = work("encodings.adjacency_encoding", "cells")
    rec_cells = work("reconstruct.reconstruct_from_searches", "cells")
    refine_s = self_s("wl.wl_refine")
    rounds = work("wl.wl_refine", "rounds")
    # full_coverage_probability's work records one (m, trials) pair per call
    requested = sum(
        s[WORK]["m"] * s[WORK]["trials"] for s in spans if s[NAME] == fcp and s[WORK]
    )
    layers = layer_self_times(spans)
    out = {
        "graphs.parse_ms": 1e3 * _ratio(
            self_s("graphs.read_edge_list", "graphs.load_edge_list"), jobs),
        "graphs.is_connected_calls": calls("graphs.Graph.is_connected"),
        "graphs.is_connected_s": self_s("graphs.Graph.is_connected"),
        "samplers.dfs_calls": calls("samplers.sample_dfs"),
        "samplers.dfs_us_per_node": 1e6 * _ratio(dfs_s, work("samplers.sample_dfs", "nodes")),
        "samplers.rng_derive_calls": calls("samplers.derive_rng"),
        "samplers.rng_derive_us": 1e6 * _ratio(rng_s, calls("samplers.derive_rng")),
        "samplers.walk_us_per_step": 1e6 * _ratio(walk_s, work("samplers.sample_walk", "steps")),
        "samplers.enum_s": self_s("samplers.enumerate_dfs"),
        "samplers.enum_outcomes": work("samplers.enumerate_dfs", "outcomes"),
        "coverage.bound_self_s": self_s(fcp, "coverage.bound_check_report",
                                        "coverage.bound_query"),
        "coverage.draws_per_trial": _ratio(draws, requested),
        "coverage.covertime_steps": covertime_steps,
        "coverage.covertime_ns_per_step": 1e9 * _ratio(covertime_s, covertime_steps),
        "coverage.censored_frac": _ratio(work("coverage.cover_time_estimate", "censored"),
                                         work("coverage.cover_time_estimate", "trials")),
        "coverage.curve_self_s": self_s("coverage.coverage_curve"),
        "encodings.adjacency_cells": adjacency_cells,
        "encodings.adjacency_ns_per_cell": 1e9 * _ratio(adjacency_s, adjacency_cells),
        "reconstruct.self_s": self_s("reconstruct.verify_reconstruction",
                                     "reconstruct.reconstruct_from_searches"),
        "reconstruct.ns_per_cell": 1e9 * _ratio(
            self_s("reconstruct.reconstruct_from_searches"), rec_cells),
        "wl.refine_s": refine_s,
        "wl.rounds": rounds,
        "wl.ms_per_round": 1e3 * _ratio(refine_s, rounds),
        "wl.history_cells": work("wl.wl_refine", "history_cells"),
        "wl.wwl_s": self_s("wl.wwl_refine", "wl.terminating_walks"),
        "wl.terminating_walks": work("wl.terminating_walks", "walks"),
        "wl.partition_s": self_s("wl.partition_of", "wl.Partition.sorted_blocks"),
        "invariance.exact_s": self_s("invariance.invariance_exact",
                                     "invariance.dfs_distribution",
                                     "invariance.pushforward",
                                     "invariance.sup_discrepancy"),
        "invariance.sampled_self_s": self_s("invariance.invariance_sampled",
                                            "invariance.sample_visit_orders",
                                            "invariance.two_sample_tv",
                                            "invariance.tv_permutation_pvalue"),
        "cli.self_ms": 1e3 * _ratio(self_s("cli.main"), jobs),
        "cli.out_bytes": out_bytes,
    }
    inside = sum(layers.values())
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(layers.get(layer, 0.0), inside)
    return out


def end_to_end(setup_times, passes, trials: int, failed: int, attempted: int,
               rss_mb: float) -> dict:
    """End-to-end metrics, name -> value, of the untraced passes
    (per-job latency lists in job order) and the set-up repeats."""
    latencies = job_latencies(passes)
    wall = sum(latencies)
    return {
        "setup_s": median(setup_times),
        "wall_s": wall,
        "trials_per_s": trials / wall,
        "job_ms.p50": 1e3 * percentile(latencies, 50),
        "job_ms.p90": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(traced, untraced_passes, setup_spans) -> dict:
    """Per-layer metrics, name -> value: medians over the traced
    passes, each given as (latencies, out_bytes, spans)."""
    per_pass = [
        layer_metrics(spans, len(latencies), out_bytes)
        for latencies, out_bytes, spans in traced
    ]
    values = {name: median([m[name] for m in per_pass]) for name in per_pass[0]}
    gen = aggregate(setup_spans).get("graphs.gen_family")
    values["graphs.gen_s"] = gen["self_s"] if gen else 0.0
    traced_wall = sum(job_latencies([latencies for latencies, _, _ in traced]))
    values["trace.overhead_frac"] = traced_wall / sum(job_latencies(untraced_passes)) - 1.0
    return values
