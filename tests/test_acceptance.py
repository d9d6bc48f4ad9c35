"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete. Statistical checks use fixed seeds so the suite is
deterministic.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest

from walksearch.cli import main
from walksearch.coverage import (
    coverage_curve,
    edge_inclusion_probs,
    escape_set,
    full_coverage_probability,
    sample_bound_m,
)
from walksearch.graphs import (
    cycle_graph,
    degree_stats,
    disjoint_union,
    er_connected,
    hex_chain,
    path_graph,
    random_permutation,
    star_graph,
)
from walksearch.invariance import (
    invariance_exact,
    invariance_sampled,
    sample_visit_orders,
    tv_permutation_pvalue,
    two_sample_tv,
)
from walksearch.samplers import (
    derive_rng,
    sample_dfs,
    sample_walk,
    validate_search_record,
)
from walksearch.wl import distinguish, leaf_paths, partition_refines, \
    terminating_walks, unfolding_tree, wl_refine, wwl_refine

from .corpus import (
    all_labeled_connected_graphs_upto,
    random_bounded_sparse_graph,
    random_connected_corpus,
)
from .test_samplers import edge_inclusion_reference


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {num} FAIL: {title}", flush=True)
        raise
    print(f"\n[acceptance] criterion {num} PASS: {title}", flush=True)


@pytest.fixture(scope="module")
def refinement_corpus():
    return random_connected_corpus(
        500, seed=2024, n_min=2, n_max=7, p_min=0.3, p_max=0.6
    )


@pytest.fixture(scope="module")
def refinement_runs(refinement_corpus):
    runs = []
    for g in refinement_corpus:
        entry = {"wl": wl_refine([g])}
        for ell in (1, 2, 3):
            entry[ell] = wwl_refine([g], ell)
        runs.append((g, entry))
    return runs


def test_criterion_1_spanning_tree_law():
    with criterion(1, "10,000 searches all pass spanning-tree validation"):
        graphs = (
            [path_graph(n) for n in (2, 17, 50)]
            + [cycle_graph(n) for n in (3, 6, 25)]
            + [star_graph(n) for n in (4, 9, 30)]
            + [hex_chain(k) for k in (1, 2, 4)]
            + [
                er_connected(30, 3.0, seed=1),
                er_connected(60, 3.0, seed=2),
                er_connected(120, 4.0, seed=3),
                er_connected(200, 6.0, seed=4),
            ]
        )
        total = 10_000
        per_graph, extra = divmod(total, len(graphs))
        start = time.perf_counter()
        sampled = 0
        for gi, g in enumerate(graphs):
            edge_set = g.edges()
            m = per_graph + (1 if gi < extra else 0)
            for i in range(m):
                rec = sample_dfs(g, derive_rng(77, gi, i))
                validate_search_record(g, rec)
                assert set(rec.visit_order) == set(range(g.n))
                assert rec.tree_edges <= edge_set
                sampled += 1
        elapsed = time.perf_counter() - start
        assert sampled == total
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_edge_inclusion_bound():
    with criterion(2, "exact edge-inclusion >= tau bound >= 1/d_max, zero violations"):
        corpus = random_connected_corpus(
            500, seed=555, n_min=2, n_max=6, p_min=0.3, p_max=0.9
        )
        violations = 0
        for g in corpus:
            reference = edge_inclusion_reference(g)
            d_max = degree_stats(g).d_max
            edges = sorted(g.edges())
            # run the public op end to end on every edge of every graph
            reports = edge_inclusion_probs(g)
            assert list(reports) == edges
            for e in edges:
                prob = reports[e].probability
                assert prob == reference[e]
                tau_u = escape_set(g, e, e[0]).tau
                tau_v = escape_set(g, e, e[1]).tau
                tau_bound = min(Fraction(1, tau_u + 1), Fraction(1, tau_v + 1))
                deg_bound = Fraction(1, max(g.degree(e[0]), g.degree(e[1])))
                if not prob >= tau_bound >= deg_bound >= Fraction(1, d_max):
                    violations += 1
        assert violations == 0
        # the triangle case is exact
        tri = edge_inclusion_probs(cycle_graph(3))[(0, 1)]
        assert tri.probability == Fraction(2, 3)


def test_criterion_3_log_sampling_bound():
    with criterion(3, "Monte-Carlo failure rate at m_required stays within delta"):
        rng = random.Random(31337)
        start = time.perf_counter()
        trials = 2000
        for idx in range(50):
            n = rng.randint(10, 60)
            g = random_bounded_sparse_graph(rng, n, d_max=4)
            stats = degree_stats(g)
            assert stats.d_max <= 4 and stats.sparsity_c <= 1.5
            for delta in (0.05, 0.1):
                m = sample_bound_m(stats.sparsity_c, g.n, stats.d_max, delta)
                success = full_coverage_probability(
                    g, m, trials=trials, seed=1000 + idx
                )
                failure = 1.0 - success
                slack = 2.0 * math.sqrt(delta * (1 - delta) / trials)
                assert failure <= delta + slack, (
                    f"graph {idx} (n={n}): failure {failure:.4f} vs "
                    f"delta {delta} + {slack:.4f}"
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_4_wl_wwl_equivalence(refinement_runs):
    with criterion(4, "stable WL and WWL partitions identical; verdicts agree"):
        disagreements = 0
        for g, runs in refinement_runs:
            stable_wl = runs["wl"].stable_partition(0)
            for ell in (1, 2, 3):
                if runs[ell].stable_partition(0) != stable_wl:
                    disagreements += 1
        assert disagreements == 0

        corpus = [g for g, _ in refinement_runs]
        rng = random.Random(99)
        pairs = [
            (corpus[rng.randrange(len(corpus))], corpus[rng.randrange(len(corpus))])
            for _ in range(200)
        ]
        pairs.append((disjoint_union(cycle_graph(3), cycle_graph(3)), cycle_graph(6)))
        verdict_mismatches = 0
        for g, h in pairs:
            wl_result = distinguish(g, h, test="wl").result
            for ell in (1, 2, 3):
                if distinguish(g, h, test="wwl", length=ell).result != wl_result:
                    verdict_mismatches += 1
        assert verdict_mismatches == 0
        classic_pair = distinguish(
            disjoint_union(cycle_graph(3), cycle_graph(3)),
            cycle_graph(6),
            test="wl",
        )
        assert classic_pair.result == "inconclusive"


def test_criterion_5_monotonicity(refinement_runs):
    with criterion(5, "refinement monotone in rounds, walk length, and init"):
        for g, runs in refinement_runs:
            for key in ("wl", 1, 2, 3):
                run = runs[key]
                for r in range(len(run.history) - 1):
                    assert partition_refines(
                        run.partition(r, 0), run.partition(r + 1, 0)
                    )
            stable = {ell: runs[ell].stable_partition(0) for ell in (1, 2, 3)}
            assert partition_refines(stable[1], stable[2])
            assert partition_refines(stable[2], stable[3])
            assert partition_refines(stable[1], stable[3])
        for g, _ in refinement_runs[:150]:
            uniform = wwl_refine([g], 2, rounds=3)
            finer = wwl_refine([g], 2, rounds=3, init=[g.degrees()])
            for r in range(4):
                assert partition_refines(
                    uniform.partition(r, 0), finer.partition(r, 0)
                )


def test_criterion_6_leaf_path_walk_bijection():
    with criterion(6, "leaf-to-root paths equal terminating walks, 100 graphs"):
        corpus = random_connected_corpus(
            100, seed=606, n_min=2, n_max=8, p_min=0.3, p_max=0.6
        )
        mismatches = 0
        for g in corpus:
            for u in range(g.n):
                walks = terminating_walks(g, u, 3)
                for depth in (1, 2, 3):
                    paths = Counter(leaf_paths(unfolding_tree(g, u, depth)))
                    wanted = Counter(
                        w for w in walks if len(w) == depth + 1
                    )
                    if paths != wanted:
                        mismatches += 1
        assert mismatches == 0


def test_criterion_7_probabilistic_invariance():
    with criterion(7, "exact DFS-law invariance; sampled check within baseline"):
        rng = random.Random(7007)
        for g in all_labeled_connected_graphs_upto(5):
            for _ in range(20):
                perm = random_permutation(g.n, rng)
                assert invariance_exact(g, perm) == 0

        g = hex_chain(2)
        perm = random_permutation(g.n, random.Random(12))
        rep = invariance_sampled(g, perm, trials=4000, seed=42)
        assert rep.passed, f"pvalue {rep.pvalue}, tv {rep.tv} vs {rep.baseline_tv}"

        # negative control: distributions of two structurally different
        # labeled graphs must separate clearly from the noise floor
        a = sample_visit_orders(path_graph(3), 2000, seed=88, tag="a")
        b = sample_visit_orders(star_graph(3), 2000, seed=88, tag="b")
        base = sample_visit_orders(path_graph(3), 2000, seed=88, tag="c")
        assert two_sample_tv(a, b) > two_sample_tv(a, base) + 0.3
        assert tv_permutation_pvalue(a, b, 200, random.Random(4)) < 0.05


def test_criterion_8_coverage_narrative():
    with criterion(8, "searches beat length-n walks at m=1 and reach full "
                      "coverage within the predicted m"):
        g = hex_chain(4)
        rows = coverage_curve(g, ["walks", "searches"], [1], trials=500, seed=8)
        by_kind = {r.kind: r.edge_frac_mean for r in rows}
        assert by_kind["searches"] > by_kind["walks"]

        stats = degree_stats(g)
        m_pred = sample_bound_m(stats.sparsity_c, g.n, stats.d_max, 0.1)
        edges = g.edges()
        within = 0
        trials = 500
        for t in range(trials):
            rng = derive_rng(4242, t)
            uncovered = set(edges)
            for m_star in range(1, m_pred + 1):
                uncovered -= sample_dfs(g, rng).tree_edges
                if not uncovered:
                    within += 1
                    break
        assert within / trials >= 0.9


def test_criterion_9_runtime_trend():
    with criterion(9, "per-sample cost scales ~linearly for both samplers"):
        m, repeats, seed = 200, 5, 9
        draw = {
            "walks": lambda g, rng: sample_walk(g, g.n, rng),
            "searches": sample_dfs,
        }
        cells = {
            (kind, n): (cycle_graph(n), derive_rng(seed, kind, n))
            for kind in ("walks", "searches")
            for n in (64, 128, 256)
        }
        # best of `repeats` batches per cell; the repeats sweep all cells
        # in turn, so a swing in host speed hits every size alike
        times = dict.fromkeys(cells, math.inf)
        for _ in range(repeats):
            for (kind, n), (g, rng) in cells.items():
                start = time.perf_counter()
                for _ in range(m):
                    draw[kind](g, rng)
                elapsed = (time.perf_counter() - start) / m
                times[(kind, n)] = min(times[(kind, n)], elapsed)
        for kind in ("walks", "searches"):
            for n1, n2 in ((64, 128), (128, 256)):
                ratio = times[(kind, n2)] / times[(kind, n1)]
                assert 1.5 <= ratio <= 3.0, f"{kind} {n1}->{n2}: {ratio:.2f}"
        for n in (64, 128, 256):
            assert times[("searches", n)] <= 3.0 * times[("walks", n)]


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "stochastic commands byte-identical under fixed seed"):
        graph = tmp_path / "hc.el"
        assert main(["gen", "--family", "hex_chain", "--k", "2",
                     "--out", str(graph)]) == 0
        cases = [
            ["gen", "--family", "er_connected", "--n", "30", "--avg-deg",
             "3.0", "--seed", "5"],
            ["sample", "--graph", str(graph), "--kind", "searches",
             "--m", "4", "--seed", "5"],
            ["sample", "--graph", str(graph), "--kind", "walks",
             "--m", "4", "--seed", "5", "--policy", "non_backtracking"],
            ["coverage", "--graph", str(graph), "--kinds", "walks,searches",
             "--m-list", "1,2,4", "--trials", "30", "--seed", "5"],
            ["bound", "--graph", str(graph), "--delta", "0.1",
             "--trials", "150", "--seed", "5"],
            ["covertime", "--graph", str(graph), "--trials", "40",
             "--seed", "5"],
            ["wl", "--graph", str(graph)],
            ["wwl", "--graph", str(graph), "--length", "2"],
            ["distinguish", "--graph", str(graph), "--graph2", str(graph),
             "--test", "wwl", "--length", "2"],
            ["invariance", "--graph", str(graph), "--mode", "sampled",
             "--perm-seed", "3", "--trials", "300", "--seed", "5"],
            ["reconstruct", "--graph", str(graph), "--m", "2",
             "--window", "15", "--seed", "5"],
        ]
        for idx, argv in enumerate(cases):
            blobs = []
            for rep in range(2):
                out = tmp_path / f"case{idx}_{rep}.out"
                assert main(argv + ["--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"case {idx} differs across runs"
