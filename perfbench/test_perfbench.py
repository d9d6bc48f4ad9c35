"""Tests of the benchmark's own logic: output checks (with negative
controls), span arithmetic, percentiles, the tracer and the job lists.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from walksearch import cli, coverage, graphs, samplers  # noqa: E402

import workloads  # noqa: E402
from checks import (  # noqa: E402
    Checker,
    CheckError,
    StatisticalMiss,
    allowed_misses,
    load_references,
)
from metrics import end_to_end, layer_metrics, per_layer, percentile  # noqa: E402
from speed import REFERENCE_S, HostSpeed, reference_task  # noqa: E402
from tracer import Tracer, layer_self_times, rescale, self_times  # noqa: E402
from workloads import Job  # noqa: E402


def run_verb(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def write_graph(tmp_path, key, g) -> str:
    path = tmp_path / f"{key}.el"
    graphs.write_edge_list(g, path)
    return str(path)


# ---------------------------------------------------------------------------
# negative controls: each corrupted output must be rejected


def test_search_with_a_dropped_tree_edge_is_rejected(tmp_path):
    g = graphs.hex_chain(3)
    path = write_graph(tmp_path, "g", g)
    job = Job(("sample", "--graph", "@g", "--kind", "searches", "--m", "2", "--seed", "5"), 2)
    out = run_verb([path if a == "@g" else a for a in job.argv])
    checker = Checker({"g": g}, {})
    checker.check(job, out)
    payload = json.loads(out)
    payload["items"][1]["tree_edges"].pop(3)
    with pytest.raises(CheckError, match="tree edges"):
        checker.check(job, json.dumps(payload))


def test_walk_off_the_edges_is_rejected():
    g = graphs.cycle_graph(8)
    job = Job(("sample", "--graph", "@g", "--kind", "walks", "--m", "1", "--seed", "1",
               "--length", "3"), 1)
    checker = Checker({"g": g}, {})
    checker.check(job, json.dumps({"kind": "walks", "seed": 1,
                                   "items": [{"nodes": [0, 1, 2, 1], "start": 0}]}))
    with pytest.raises(CheckError, match="not an edge"):
        checker.check(job, json.dumps({"kind": "walks", "seed": 1,
                                       "items": [{"nodes": [0, 1, 3, 2], "start": 0}]}))


def test_wl_partition_with_two_blocks_merged_is_rejected(tmp_path):
    g, h = graphs.hex_chain(10), graphs.cycle_graph(70)
    argv = ["wl", "--graph", write_graph(tmp_path, "hex10", g),
            "--graph2", write_graph(tmp_path, "cyc70", h)]
    job = Job(("wl", "--graph", "@hex10", "--graph2", "@cyc70"), ref="wl hex10+cyc70")
    out = run_verb(argv)
    checker = Checker({"hex10": g, "cyc70": h}, load_references())
    checker.check(job, out)  # the stored reference matches the current source
    lines = out.split("\n")
    head, blocks = lines[6].split(" blocks=")
    blocks = json.loads(blocks)
    assert len(blocks) >= 2
    merged = [sorted(blocks[0] + blocks[1])] + blocks[2:]
    lines[6] = f"{head} blocks={json.dumps(sorted(merged))}"
    with pytest.raises(CheckError, match="stored reference"):
        checker.check(job, "\n".join(lines))


def test_wl_output_missing_or_broken_rows_is_rejected(tmp_path):
    g = graphs.path_graph(9)
    job = Job(("wl", "--graph", "@p"), ref="wl p")
    out = run_verb(["wl", "--graph", write_graph(tmp_path, "p", g)])
    checker = Checker({"p": g}, {"wl p": {"sha256": "", "stable_round": 3}})
    lines = out.split("\n")
    with pytest.raises(CheckError, match="out of order"):
        checker.check(job, "\n".join(lines[:1] + lines[2:]))
    with pytest.raises(CheckError, match="stable_round line"):
        checker.check(job, "\n".join(lines[:-2]))
    head, _ = lines[1].split(" blocks=")
    lines[1] = f"{head} blocks={json.dumps([list(range(8))])}"  # node 8 dropped
    with pytest.raises(CheckError, match="not a partition"):
        checker.check(job, "\n".join(lines))


def test_reconstruction_with_a_spurious_edge_is_rejected(tmp_path):
    g = graphs.hex_chain(4)
    path = write_graph(tmp_path, "g", g)
    job = Job(("reconstruct", "--graph", "@g", "--m", "1", "--window", "29", "--seed", "2"), 1)
    out = run_verb([path if a == "@g" else a for a in job.argv])
    checker = Checker({"g": g}, {})
    checker.check(job, out)
    report = json.loads(out)
    report.update(spurious_count=1, exact=False)
    with pytest.raises(CheckError, match="spurious"):
        checker.check(job, json.dumps(report))


def test_bound_below_its_floor_is_rejected(tmp_path):
    g = graphs.hex_chain(3)
    path = write_graph(tmp_path, "g", g)
    job = Job(("bound", "--graph", "@g", "--delta", "0.1", "--trials", "100",
               "--seed", "4"), 100)
    out = run_verb([path if a == "@g" else a for a in job.argv])
    checker = Checker({"g": g}, {})
    checker.check(job, out)
    report = json.loads(out)
    report["empirical_success"] = 0.8  # floor is 1 - 0.1 - 2*0.03 = 0.84
    with pytest.raises(CheckError, match="below"):
        checker.check(job, json.dumps(report))


def test_sampled_invariance_miss_is_statistical():
    job = Job(("invariance", "--graph", "@g", "--mode", "sampled", "--perm-seed", "1",
               "--trials", "10", "--seed", "2"), 10)
    report = {"mode": "sampled", "perm_seed": 1, "trials": 10, "tv": 0.9,
              "baseline_tv": 0.5, "pvalue": 0.01, "pass": False}
    with pytest.raises(StatisticalMiss):
        Checker({}, {}).check(job, json.dumps(report))


def test_allowed_misses_is_a_binomial_tail():
    assert allowed_misses(0) == 0
    assert allowed_misses(1) == 1  # one test: no count above 1 is possible
    # P(Bin(6, 0.05) > 3) = 8.7e-5 <= 1e-4 < P(Bin(6, 0.05) > 2) = 2.2e-3
    assert allowed_misses(6) == 3


# ---------------------------------------------------------------------------
# span and percentile arithmetic


def span(name, layer, parent, start, end, work=None):
    return [name, layer, 0, parent, start, end, work]


SYNTHETIC = [
    span("cli.main", "cli", None, 0.0, 10.0),
    span("coverage.bound_check_report", "coverage", 0, 1.0, 8.0),
    span("samplers.sample_dfs", "samplers", 1, 2.0, 3.0, {"nodes": 10}),
    span("samplers.sample_dfs", "samplers", 1, 4.0, 6.5, {"nodes": 10}),
    span("graphs.Graph.is_connected", "graphs", 3, 4.5, 5.0),
    span("graphs.read_edge_list", "graphs", 0, 8.5, 9.0),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(SYNTHETIC) == [
        10.0 - 7.0 - 0.5,  # main minus bound_check_report and read_edge_list
        7.0 - 1.0 - 2.5,  # report minus its two draws
        1.0,
        2.5 - 0.5,  # draw minus is_connected
        0.5,
        0.5,
    ]
    layers = layer_self_times(SYNTHETIC)
    assert layers == {"cli": 2.5, "coverage": 3.5, "samplers": 3.0, "graphs": 1.0}
    assert sum(layers.values()) == 10.0


def test_layer_metrics_from_synthetic_spans():
    m = layer_metrics(SYNTHETIC, jobs=2, out_bytes=7)
    assert m["samplers.dfs_calls"] == 2
    assert m["samplers.dfs_us_per_node"] == pytest.approx(3.0 / 20 * 1e6)
    assert m["graphs.is_connected_calls"] == 1
    assert m["graphs.parse_ms"] == pytest.approx(0.5 / 2 * 1e3)
    assert m["cli.self_ms"] == pytest.approx(2.5 / 2 * 1e3)
    assert m["coverage.bound_self_s"] == pytest.approx(3.5)
    assert m["samplers.self_share"] == pytest.approx(0.3)
    assert m["cli.out_bytes"] == 7


def test_run_metrics_are_the_declared_ones():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = end_to_end([0.3, 0.1, 0.2], [[1.0, 2.0], [3.0, 1.0], [2.0, 9.0]], trials=12,
                     failed=1, attempted=4, rss_mb=5.0)
    assert sorted(e2e) == sorted(m["name"] for m in bench["end_to_end"])
    assert e2e["wall_s"] == 4.0  # per-job medians 2.0 and 2.0; the 9.0 is dropped
    assert e2e["trials_per_s"] == 3.0 and e2e["ok_frac"] == 0.75
    assert e2e["setup_s"] == 0.2
    layers = per_layer([([5.0, 5.0], 7, SYNTHETIC)], [[4.0, 4.0]], [])
    assert sorted(layers) == sorted(m["name"] for m in bench["per_layer"])
    assert layers["trace.overhead_frac"] == pytest.approx(0.25)


def test_rescale_scales_one_jobs_self_times_and_keeps_nesting():
    other = span("cli.main", "cli", None, -5.0, -1.0)
    spans = [list(other)] + [list(s) for s in SYNTHETIC]
    for s in spans[1:]:
        if s[3] is not None:
            s[3] += 1  # parents shift by the span put in front
    before = self_times(spans)
    rescale(spans, 1, 0.5)
    assert spans[0] == other  # the earlier job is left alone
    assert self_times(spans) == pytest.approx([before[0]] + [t * 0.5 for t in before[1:]])
    assert spans[1][4] == 0.0 and spans[1][5] == 5.0  # from the job's first start
    for s in spans[2:]:
        parent = spans[s[3]]
        assert parent[4] <= s[4] <= s[5] <= parent[5]


def test_host_speed_scales_by_the_readings_around_and_in_the_call(monkeypatch):
    import speed as speed_module

    readings = iter([2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S, 4 * REFERENCE_S])
    monkeypatch.setattr(HostSpeed, "probe", lambda self: next(readings))
    clock = iter([10.0, 13.0])  # the call takes 3.0 CPU seconds
    monkeypatch.setattr(speed_module, "time", SimpleNamespace(process_time=lambda: next(clock)))
    speed = HostSpeed()  # reads 2x before the call

    def call():  # two readings during the call, as the timer would take them
        speed._on_alarm(None, None)
        speed._on_alarm(None, None)
        return "out"

    seconds, factor, result = speed.time(call)  # and 4x after it
    assert result == "out"
    assert factor == pytest.approx((1 / 2 + 1 / 4 + 1 + 1 / 4) / 4)
    in_call = 4 * REFERENCE_S + REFERENCE_S
    assert seconds == pytest.approx((3.0 - in_call) * factor)
    assert speed.readings == [4 * REFERENCE_S, REFERENCE_S, 4 * REFERENCE_S]
    speed._on_alarm(None, None)  # outside a call a timer signal reads nothing
    assert speed.readings == [4 * REFERENCE_S, REFERENCE_S, 4 * REFERENCE_S]


def test_reference_task_is_fixed_work():
    assert reference_task() == reference_task()


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert sum(v > percentile(values, 90) for v in values) == 10
    assert percentile([7.0], 90) == 7.0


# ---------------------------------------------------------------------------
# tracer


def test_tracer_wraps_every_binding_and_restores_them():
    original = samplers.sample_dfs
    assert coverage.sample_dfs is original and cli.sample_dfs is original
    tracer = Tracer()
    tracer.install()
    try:
        assert coverage.sample_dfs is not original
        assert coverage.sample_dfs is samplers.sample_dfs is cli.sample_dfs
        g = graphs.hex_chain(2)
        coverage.full_coverage_probability(g, m=2, trials=3, seed=1)  # untraced: job is None
        assert tracer.spans == []
        tracer.job = 0
        coverage.full_coverage_probability(g, m=2, trials=3, seed=1)
        tracer.job = None
        spans = tracer.take()
    finally:
        tracer.uninstall()
    assert samplers.sample_dfs is original and coverage.sample_dfs is original
    assert graphs.Graph.is_connected.__name__ == "is_connected"
    assert not hasattr(graphs.Graph.is_connected, "__wrapped__")
    names = [s[0] for s in spans]
    assert names.count("coverage.full_coverage_probability") == 1
    draws = [s for s in spans if s[0] == "samplers.sample_dfs"]
    assert 3 <= len(draws) <= 6
    assert all(spans[s[3]][0] == "coverage.full_coverage_probability" for s in draws)
    checks = [s for s in spans if s[0] == "graphs.Graph.is_connected"]
    assert all(spans[s[3]][0] == "samplers.sample_dfs" for s in checks)
    assert all(t >= 0 for t in self_times(spans))


# ---------------------------------------------------------------------------
# job lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_lists_are_seeded_and_large_enough(workload):
    specs, jobs = workloads.build(workload, 3)
    assert len(jobs) >= 100
    assert workloads.build(workload, 3) == (specs, jobs)
    assert workloads.build(workload, 4)[1] != jobs
    for job in jobs:
        for token in job.argv:
            if token.startswith("@"):
                assert token[1:] in specs
    refs = load_references()
    assert all(job.ref in refs for job in jobs if job.ref is not None)
