import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from walksearch.coverage import (
    CURVE_CSV_HEADER,
    bound_check_report,
    bound_query,
    cover_time_estimate,
    coverage_curve,
    coverage_report,
    curve_rows_to_csv,
    edge_inclusion_probs,
    escape_set,
    full_coverage_probability,
    sample_bound_m,
)
from walksearch.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    degree_stats,
    hex_chain,
    path_graph,
    random_tree,
    star_graph,
)
from walksearch.samplers import (
    DEFAULT_ENUM_BUDGET,
    POLICIES,
    EnumerationBudgetError,
    SampleSet,
    SearchRecord,
    WalkPolicy,
    WalkRecord,
    _enumerate,
    derive_rng,
    sample_dfs,
    sample_set,
    sample_walk,
)

from .corpus import all_connected_graphs_upto, all_labeled_connected_graphs_upto
from .test_samplers import BULL, ORACLE_GRAPHS, PAW, DrawCounter, stdlib_cover_time

DISCONNECTED_TWO_EDGES = Graph.from_edges(4, [(0, 1), (2, 3)])
# one search of the tree part covers every edge before the isolated node
# shows the graph is disconnected
EDGE_PLUS_NODE = Graph.from_edges(3, [(0, 1)])


def full_coverage_law(g: Graph):
    """The exact chance that m independent searches cover every edge, as
    a function of m.

    One `_enumerate` pass groups the DFS law by tree, each tree a bitmask
    T over the sorted edges, with p(T) = w[T] / L in integers. One
    subset-sum pass over the 2^|E| masks turns w into f(U) = the sum of
    p(T) over trees T inside U. By inclusion-exclusion over the set S of
    edges that no search covers, P(m searches cover E) = sum over S of
    (-1)^|S| f(E minus S)^m, exact in a `Fraction`.
    """
    edges = sorted(g.edges())
    bit = {e: 1 << i for i, e in enumerate(edges)}
    tree_dens: dict[int, list[int]] = {}
    for order, parent, den in _enumerate(g, DEFAULT_ENUM_BUDGET):
        mask = 0
        for v in order[1:]:
            u = parent[v]
            mask |= bit[(u, v) if u < v else (v, u)]
        tree_dens.setdefault(mask, []).append(den)
    lcm = math.lcm(*(den for dens in tree_dens.values() for den in dens))
    f = [0] * (1 << len(edges))
    for mask, dens in tree_dens.items():
        f[mask] = sum(lcm // den for den in dens)
    for b in bit.values():
        for mask in range(len(f)):
            if mask & b:
                f[mask] += f[mask ^ b]
    full = len(f) - 1

    def probability(m: int) -> Fraction:
        total = 0
        for missed in range(len(f)):
            term = f[full ^ missed] ** m
            total += -term if missed.bit_count() % 2 else term
        return Fraction(total, lcm**m)

    return probability


# at most 12 edges each; the hexagon with its pendant (`hex_chain(1)`)
# jumps from 0 at m = 1 to 0.83 at m = 2, so it has no m with a law in
# [0.2, 0.8] for the Monte-Carlo half
LAW_GRAPHS = {
    "paw": PAW,
    "bull": BULL,
    "k4": complete_graph(4),
    "c5": cycle_graph(5),
    "c6_chord": Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)]
    ),
    "k5": complete_graph(5),
    "seven_ten": Graph.from_edges(
        7,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (0, 3),
         (1, 5), (2, 6)],
    ),
}


def walk_avoidance(g: Graph, length: int, nodes: set, edges: set) -> Fraction:
    """The exact chance that a uniform walk of `length` steps from a
    uniform start visits no node in `nodes` and crosses no edge in
    `edges` (pairs u < v): the mass of the start law left after `length`
    steps of the walk's transition matrix with those nodes and edges
    removed, each removed step absorbing its mass."""
    mass = [Fraction(0) if v in nodes else Fraction(1, g.n) for v in range(g.n)]
    for _ in range(length):
        step = [Fraction(0)] * g.n
        for u, p in enumerate(mass):
            if p:
                share = p / len(g.adjacency[u])
                for w in g.adjacency[u]:
                    if w not in nodes and ((u, w) if u < w else (w, u)) not in edges:
                        step[w] += share
        mass = step
    return sum(mass)


def walk_fraction_law(g: Graph, length: int, items):
    """The exact mean and variance, as floats, of the fraction of `items`
    that m independent uniform walks of `length` steps cover, as a
    function of m. An item is a (nodes, edges) pair that a walk covers by
    visiting one of the nodes or crossing one of the edges.

    With a_ij the chance that one walk covers neither item i nor item j
    (a_ii for item i alone), both stay uncovered after m walks with chance
    a_ij^m, so the mean is the average of 1 - a_ii^m and the variance is
    the sum over all i, j of a_ij^m - a_ii^m a_jj^m, over k^2.
    """
    k = len(items)
    avoid = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            avoid[i][j] = avoid[j][i] = walk_avoidance(
                g, length, items[i][0] | items[j][0], items[i][1] | items[j][1]
            )

    def law(m: int) -> tuple[float, float]:
        alone = [avoid[i][i] ** m for i in range(k)]
        mean = sum(1 - a for a in alone) / k
        var = sum(
            avoid[i][j] ** m - alone[i] * alone[j] for i in range(k) for j in range(k)
        ) / (k * k)
        return float(mean), float(var)

    return law


class TestCoverageReport:
    def test_tree_single_search_full(self):
        g = star_graph(4)
        rep = coverage_report(g, sample_set(g, "searches", 1, seed=0))
        assert rep.node_fraction == 1.0 and rep.edge_fraction == 1.0

    def test_cycle6_single_search_misses_one_edge(self):
        g = cycle_graph(6)
        rep = coverage_report(g, sample_set(g, "searches", 1, seed=0))
        assert rep.node_fraction == 1.0
        assert rep.edge_fraction == pytest.approx(5 / 6)

    def test_short_walk_counts(self):
        g = cycle_graph(6)
        ss = SampleSet(
            kind="walks",
            items=(WalkRecord(nodes=(0, 1, 0), policy="uniform", start=0),),
            seed=0,
        )
        rep = coverage_report(g, ss)
        assert rep.node_fraction == pytest.approx(2 / 6)
        assert rep.edge_fraction == pytest.approx(1 / 6)
        assert rep.covered_edges == frozenset({(0, 1)})
        assert rep.occurrence_counts == (2, 1, 0, 0, 0, 0)

    def test_id_out_of_range_rejected(self):
        g = cycle_graph(3)
        ss = SampleSet(
            kind="walks",
            items=(WalkRecord(nodes=(0, 7), policy="uniform", start=0),),
            seed=0,
        )
        with pytest.raises(ValueError, match="out of range"):
            coverage_report(g, ss)

    def test_search_tree_edges_must_be_edges(self):
        g = path_graph(3)

        def searches(*tree_edges):
            rec = SearchRecord(
                visit_order=(0, 1, 2), tree_edges=frozenset(tree_edges), root=0
            )
            return SampleSet(kind="searches", items=(rec,), seed=0)

        with pytest.raises(ValueError, match=r"tree edge \(0, 2\) is not an edge"):
            coverage_report(g, searches((0, 2)))
        with pytest.raises(ValueError, match="node id 5 out of range for n=3"):
            coverage_report(g, searches((0, 1), (5, 7)))
        with pytest.raises(ValueError, match="node id -1 out of range for n=3"):
            coverage_report(g, searches((-1, 0)))
        # a tree edge given either way round covers the one edge
        rep = coverage_report(g, searches((1, 0), (1, 2)))
        assert rep.covered_edges == frozenset({(0, 1), (1, 2)})
        assert rep.edge_fraction == 1.0

    def test_empty_graph_rejected(self):
        g = Graph.from_edges(0, ())
        for kind in ("walks", "searches"):
            with pytest.raises(ValueError, match="^empty graph$"):
                coverage_report(g, SampleSet(kind=kind, items=(), seed=0))

    def test_unknown_kind_rejected(self):
        # the set refuses the kind when built, so no report can see it
        rec = sample_dfs(path_graph(3), random.Random(0))
        with pytest.raises(ValueError, match="unknown kind 'search'"):
            SampleSet(kind="search", items=(rec,), seed=0)


class TestEscapeSets:
    def test_triangle(self):
        g = cycle_graph(3)
        es = escape_set(g, (0, 1), side=0)
        assert es.members == frozenset({2}) and es.tau == 1

    def test_tree_edges_have_no_escape(self):
        for seed in range(4):
            t = random_tree(7, seed=seed)
            for e in t.edges():
                for side in e:
                    assert escape_set(t, e, side).tau == 0

    def test_cycle6_single_detour(self):
        g = cycle_graph(6)
        for e in g.edges():
            for side in e:
                assert escape_set(g, e, side).tau == 1

    def test_dead_end_neighbor_excluded(self):
        # u's pendant neighbor cannot start a detour to v
        from walksearch.graphs import Graph

        g = Graph.from_edges(4, [(0, 1), (0, 2), (2, 1), (0, 3)])
        es = escape_set(g, (0, 1), side=0)
        assert es.members == frozenset({2})

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not in graph"):
            escape_set(path_graph(3), (0, 2), side=0)

    def test_tau_bounded_by_degree(self):
        for g in all_labeled_connected_graphs_upto(5):
            for u, v in g.edges():
                assert escape_set(g, (u, v), u).tau <= g.degree(u) - 1
                assert escape_set(g, (u, v), v).tau <= g.degree(v) - 1


class TestEdgeInclusion:
    def test_triangle_exact(self):
        rep = edge_inclusion_probs(cycle_graph(3))[(0, 1)]
        assert rep.probability == Fraction(2, 3)
        assert rep.tau_bound == Fraction(1, 2)
        # triangle degrees are all 2, so the degree bound is 1/2 as well
        assert rep.dmax_bound == Fraction(1, 2)

    def test_path_edges_always_included(self):
        rep = edge_inclusion_probs(path_graph(3))[(0, 1)]
        assert rep.probability == 1
        assert rep.tau_bound == 1
        assert rep.dmax_bound == Fraction(1, 2)

    def test_cycle6_every_edge_five_sixths(self):
        reports = edge_inclusion_probs(cycle_graph(6))
        assert {rep.probability for rep in reports.values()} == {Fraction(5, 6)}

    @pytest.mark.parametrize(
        "g", [DISCONNECTED_TWO_EDGES, EDGE_PLUS_NODE], ids=["two_edges", "edge_plus_node"]
    )
    def test_refuses_disconnected(self, g):
        with pytest.raises(
            ValueError, match="^exact enumeration requires a connected graph$"
        ):
            edge_inclusion_probs(g)

    def test_refuses_empty_graph(self):
        with pytest.raises(ValueError, match="^empty graph$"):
            edge_inclusion_probs(Graph.from_edges(0, ()))

    def test_refuses_a_graph_past_the_budget(self):
        # n + 2m(n - 1) is past DEFAULT_ENUM_BUDGET: refused before any outcome
        with pytest.raises(EnumerationBudgetError):
            edge_inclusion_probs(path_graph(1000))

    def test_one_node_has_no_edge(self):
        assert edge_inclusion_probs(Graph.from_edges(1, ())) == {}

    @pytest.mark.parametrize("e", [(-1, 1), (1, -1), (-3, 1), (0, 3), (3, 2), (1, 9)])
    def test_ids_outside_the_graph_are_no_edge(self, e):
        # a negative id must not read a row from the end of the adjacency
        g = path_graph(3)
        for side in e:
            with pytest.raises(ValueError, match=r"^edge \(.*\) not in graph$"):
                escape_set(g, e, side)

    def test_bound_chain_exhaustive_small(self):
        for g in all_labeled_connected_graphs_upto(5):
            d_max = degree_stats(g).d_max
            for (u, v), rep in edge_inclusion_probs(g).items():
                deg_bound = Fraction(1, max(g.degree(u), g.degree(v)))
                assert (
                    rep.probability
                    >= rep.tau_bound
                    >= deg_bound
                    >= Fraction(1, d_max)
                )

    def test_keys_are_the_edges_and_the_sum_is_n_minus_1(self):
        # every DFS tree has n - 1 edges, so the p_e sum to n - 1 exactly
        for g in all_labeled_connected_graphs_upto(5) + (hex_chain(2),):
            reports = edge_inclusion_probs(g)
            assert list(reports) == sorted(g.edges())
            assert all(rep.edge == e for e, rep in reports.items())
            total = sum((rep.probability for rep in reports.values()), Fraction(0))
            assert total == g.n - 1

    def test_one_enumeration_pass(self, monkeypatch):
        calls = []

        def counted(g, budget):
            calls.append(budget)
            return _enumerate(g, budget)

        monkeypatch.setattr("walksearch.coverage._enumerate", counted)
        for g in (hex_chain(2), BULL, cycle_graph(6)):
            calls.clear()
            edge_inclusion_probs(g)
            assert calls == [DEFAULT_ENUM_BUDGET]


class TestSampleBound:
    def test_worked_values(self):
        assert sample_bound_m(1.0, 30, 3, 0.05) == 16
        assert sample_bound_m(1.0, 7, 3, 0.01) == 17

    def test_degenerate_tree_case(self):
        q = bound_query(0.5, 2, 1, 0.05)
        assert q.m_required == 1 and q.degenerate

    def test_delta_monotonicity(self):
        for delta in (0.01, 0.05, 0.2, 0.4):
            assert sample_bound_m(1.2, 40, 4, 2 * delta) <= sample_bound_m(
                1.2, 40, 4, delta
            )

    def test_n_and_dmax_monotonicity(self):
        assert sample_bound_m(1.0, 80, 3, 0.1) >= sample_bound_m(1.0, 40, 3, 0.1)
        assert sample_bound_m(1.0, 40, 4, 0.1) >= sample_bound_m(1.0, 40, 3, 0.1)

    def test_delta_near_one_clamps_to_one(self):
        assert sample_bound_m(1.0, 1, 2, 0.99) >= 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_bound_m(1.0, 10, 3, 0.0)
        with pytest.raises(ValueError):
            sample_bound_m(0.001, 10, 3, 0.1)

    def test_inputs_past_float_range_are_value_errors(self):
        with pytest.raises(ValueError, match="n must convert to a finite float"):
            bound_query(3.0, 10**309, 3, 0.1)
        with pytest.raises(ValueError, match="d_max must be at most 2"):
            bound_query(3.0, 10, 10**16, 0.1)
        # the largest d_max whose ratio is not rounded to 1, and a
        # degenerate query, still get their answers
        assert bound_query(3.0, 10, 2**53, 0.1).m_required > 2**53
        assert bound_query(3.0, 10**309, 1, 0.1).degenerate


class TestFullCoverage:
    def test_tree_always_covered(self):
        assert full_coverage_probability(random_tree(8, 1), 1, 50, seed=0) == 1.0

    def test_cycle_single_search_never_covers(self):
        assert full_coverage_probability(cycle_graph(6), 1, 50, seed=0) == 0.0

    @pytest.mark.parametrize(
        "g, m", [(Graph.from_edges(1, ()), 0), (cycle_graph(6), 0), (PAW, -2)],
        ids=["one-node", "cycle6", "paw"],
    )
    def test_refuses_m_below_1_before_any_draw(self, g, m, monkeypatch):
        # zero searches do cover a one-node graph's empty edge set, but m
        # is refused as `sample_set` and `coverage_curve` refuse it
        monkeypatch.setattr("walksearch.coverage.derive_rng", None)
        with pytest.raises(ValueError, match="^m must be >= 1$"):
            full_coverage_probability(g, m, 3, 0)

    def test_union_monotone_in_m(self):
        g = hex_chain(2)
        rng = derive_rng(3, 0)
        covered = set()
        sizes = []
        for _ in range(10):
            covered |= sample_dfs(g, rng).tree_edges
            sizes.append(len(covered))
        assert sizes == sorted(sizes)

    def test_bound_check_report_shape(self):
        rep = bound_check_report(hex_chain(1), 0.1, trials=100, seed=0)
        assert set(rep) == {
            "C",
            "n",
            "d_max",
            "delta",
            "m_required",
            "empirical_success",
            "trials",
        }
        assert rep["empirical_success"] >= 0.9

    @pytest.mark.parametrize(
        "g, m",
        [(cycle_graph(6), 2), (hex_chain(2), 3), (BULL, 1), (random_tree(8, 1), 2)],
        ids=["cycle6", "hex2", "bull", "tree8"],
    )
    def test_matches_per_record_sampler(self, g, m):
        # the trials draw their searches in turn from one generator, and a
        # trial draws no search after the one that covers every edge
        trials = 40
        for seed in (0, 7, 12):
            rng = derive_rng(seed)
            covered = 0
            for _ in range(trials):
                uncovered = set(g.edges())
                for _ in range(m):
                    uncovered -= sample_dfs(g, rng).tree_edges
                    if not uncovered:
                        covered += 1
                        break
            assert full_coverage_probability(g, m, trials, seed) == covered / trials

    def test_hex_chain3_failure_rate_within_delta(self):
        g = hex_chain(3)
        stats = degree_stats(g)
        delta, trials = 0.1, 2000
        m = sample_bound_m(stats.sparsity_c, g.n, stats.d_max, delta)
        failure = 1.0 - full_coverage_probability(g, m, trials, seed=17)
        slack = 2.0 * math.sqrt(delta * (1 - delta) / trials)
        assert failure <= delta + slack


class TestFullCoverageLaw:
    def test_law_on_known_graphs(self):
        # one search covers a tree; a hexagon's search misses one edge,
        # uniform over the six, so two searches cover it w.p. 5/6
        for m in (1, 3):
            assert full_coverage_law(random_tree(7, 2))(m) == 1
        law = full_coverage_law(cycle_graph(6))
        assert law(1) == 0 and law(2) == Fraction(5, 6)
        assert law(3) == 1 - 6 * Fraction(1, 6) ** 3

    @pytest.mark.parametrize("name", sorted(LAW_GRAPHS))
    def test_monte_carlo_matches_the_law(self, name):
        # at the least m whose exact law lies in [0.2, 0.8], the success
        # fraction of 2000 trials lies within 5 sd of it; a trial that
        # runs fewer searches than asked falls far outside
        g = LAW_GRAPHS[name]
        law = full_coverage_law(g)
        m = 1
        while law(m) < 0.2:
            m += 1
        p = law(m)
        assert p <= 0.8
        trials = 2000
        sd = math.sqrt(p * (1 - p) / trials)
        assert abs(full_coverage_probability(g, m, trials, seed=11) - p) <= 5 * sd

    def test_exact_failure_at_the_bound_is_within_delta(self):
        graphs = list(LAW_GRAPHS.values()) + [hex_chain(1)]
        graphs += all_connected_graphs_upto(5)
        delta = 0.1
        for g in graphs:
            stats = degree_stats(g)
            q = bound_query(stats.sparsity_c, g.n, stats.d_max, delta)
            assert 1 - full_coverage_law(g)(q.m_required) <= delta, g.adjacency


class TestCoverTime:
    def test_single_edge_always_one_step(self):
        rep = cover_time_estimate(complete_graph(2), trials=20, seed=1)
        assert rep.mean == 1.0 and rep.censored == 0

    def test_path3_needs_at_least_two_steps(self):
        rep = cover_time_estimate(path_graph(3), trials=50, seed=2)
        assert rep.quantiles["p25"] >= 2

    def test_cycle_cover_time_superlinear(self):
        means = []
        for n in (8, 16, 32):
            rep = cover_time_estimate(
                cycle_graph(n), target="node", trials=150, seed=3
            )
            assert rep.censored == 0
            means.append(rep.mean)
        assert means[1] / means[0] > 2.5
        assert means[2] / means[1] > 2.5

    def test_edge_target_counts_traversals(self):
        rep = cover_time_estimate(
            complete_graph(2), target="edge", trials=10, seed=0
        )
        assert rep.mean == 1.0

    def test_censoring_reported(self):
        rep = cover_time_estimate(
            cycle_graph(12), trials=30, cap=3, seed=0
        )
        assert rep.censored == 30 and rep.mean is None


class TestCoverTimeOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_trials_share_one_stream(self, policy):
        # each trial starts where the one before stopped drawing, whether
        # it covered or was censored at its cap
        trials = 30
        for g, target, cap in (
            (hex_chain(2), "edge", None),
            (cycle_graph(8), "node", 12),
            (BULL, "node", None),
        ):
            rng = derive_rng(4)
            steps = 50 * g.n * g.n if cap is None else cap
            results = [
                stdlib_cover_time(g, policy, rng, target, steps)
                for _ in range(trials)
            ]
            finished = sorted(r for r in results if r is not None)
            rep = cover_time_estimate(g, policy, target, trials, cap, seed=4)
            assert rep.censored == trials - len(finished)
            assert rep.mean == sum(finished) / len(finished)
            assert rep.quantiles["p50"] == finished[len(finished) // 2]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_stdlib_cover_time(self, policy):
        outcomes = Counter()
        for g in ORACLE_GRAPHS:
            pol = WalkPolicy(g, policy)
            for target in ("node", "edge"):
                for cap in sorted({1, 2, g.n, 50 * g.n * g.n}):
                    for seed in range(3):
                        rng, ref_rng = random.Random(seed), random.Random(seed)
                        got = pol.cover_time(rng, target, cap)
                        expected = stdlib_cover_time(
                            g, policy, ref_rng, target, cap
                        )
                        assert got == expected, (g.adjacency, target, cap, seed)
                        assert rng.getstate() == ref_rng.getstate()
                        outcomes["censored" if got is None else got == cap] += 1
        # censored trials occur, and so do trials covered exactly at their
        # cap (True) and before it (False)
        assert outcomes["censored"] and outcomes[True] and outcomes[False]

    @pytest.mark.parametrize("target", ("node", "edge"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_draws_without_stdlib_wrappers(self, policy, target):
        rng = DrawCounter(5)
        steps = WalkPolicy(hex_chain(3), policy).cover_time(rng, target, 10**4)
        assert steps is not None
        # only the start
        assert rng.draws["randrange"] == 1
        assert rng.draws["choices"] == 0
        if policy == "local_rule":
            assert rng.draws["random"] == steps
        else:
            assert rng.draws["random"] == 0
            assert rng.draws["getrandbits"] >= steps

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bad_target_or_cap_rejected_before_any_draw(self, policy):
        pol = WalkPolicy(path_graph(3), policy)
        rng = DrawCounter(0)
        with pytest.raises(ValueError, match="target must be 'node' or 'edge'"):
            pol.cover_time(rng, "edges", 5)
        for cap in (0, -1):
            with pytest.raises(ValueError, match="cap must be >= 1"):
                pol.cover_time(rng, "edge", cap)
        assert sum(rng.draws.values()) == 0


class TestCoverageCurve:
    def test_search_node_fraction_always_one(self):
        rows = coverage_curve(
            cycle_graph(6), ["searches"], [1, 2, 4], trials=40, seed=0
        )
        assert all(r.node_frac_mean == 1.0 for r in rows)

    def test_edge_fraction_nondecreasing_in_m(self):
        rows = coverage_curve(
            hex_chain(2), ["walks", "searches"], [1, 2, 4, 8], trials=500, seed=1
        )
        for kind in ("walks", "searches"):
            fracs = [r.edge_frac_mean for r in rows if r.kind == kind]
            for a, b in zip(fracs, fracs[1:]):
                assert b >= a - 1e-12

    def test_hex_chain_search_beats_walk_at_m1(self):
        rows = coverage_curve(
            hex_chain(4), ["walks", "searches"], [1], trials=200, seed=2
        )
        by_kind = {r.kind: r.edge_frac_mean for r in rows}
        assert by_kind["searches"] > by_kind["walks"]

    def test_csv_format(self):
        rows = coverage_curve(cycle_graph(6), ["searches"], [1], trials=8, seed=0)
        text = curve_rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CURVE_CSV_HEADER
        assert lines[1].startswith("searches,1,1.0,")

    @pytest.mark.parametrize(
        "g", [cycle_graph(6), hex_chain(2), PAW, BULL], ids=["cycle6", "hex2", "paw", "bull"]
    )
    def test_search_rows_follow_exact_inclusion(self, g):
        # a row's mean edge fraction estimates (1/|E|) sum_e P(e in one of m
        # independent trees) = (1/|E|) sum_e (1 - (1 - p_e)^m); a trial's
        # fraction lies in [0, 1], so its sd is at most 1/2 and the mean
        # stays within 4 sd of the law
        trials = 1000
        p = [rep.probability for rep in edge_inclusion_probs(g).values()]
        rows = coverage_curve(g, ["searches"], [1, 2, 4], trials=trials, seed=3)
        for row in rows:
            law = sum(1 - (1 - pe) ** row.m for pe in p) / g.edge_count
            assert row.node_frac_mean == 1.0
            assert abs(row.edge_frac_mean - float(law)) <= 4 * 0.5 / math.sqrt(trials)

    @pytest.mark.parametrize(
        "g",
        [PAW, BULL, cycle_graph(6), hex_chain(1), random_tree(8, 3)],
        ids=["paw", "bull", "cycle6", "hex1", "tree8"],
    )
    def test_walk_rows_follow_exact_avoidance(self, g):
        # a row's mean node (edge) fraction estimates the exact mean of one
        # trial's fraction after m walks, and must lie within 5 sd of it
        trials = 2000
        for length in range(3, 7):
            rows = coverage_curve(g, ["walks"], [1, 2, 4], trials, 11, length=length)
            nodes = [({v}, set()) for v in range(g.n)]
            edges = [(set(), {e}) for e in sorted(g.edges())]
            for items, frac in ((nodes, "node_frac_mean"), (edges, "edge_frac_mean")):
                law = walk_fraction_law(g, length, items)
                for row in rows:
                    mean, var = law(row.m)
                    sd = math.sqrt(var / trials)
                    assert abs(getattr(row, frac) - mean) <= 5 * sd + 1e-12, (
                        length, row.m, frac,
                    )

    @pytest.mark.parametrize(
        "g", [cycle_graph(6), hex_chain(2), BULL], ids=["cycle6", "hex2", "bull"]
    )
    def test_matches_per_record_samplers(self, g):
        # each kind draws its trials in turn from its own generator; a
        # search trial draws no search once its trees cover every edge
        m_list, trials, seed, length = [1, 2, 5], 12, 8, 4
        rows = coverage_curve(
            g, ["searches", "walks"], m_list, trials, seed, length=length
        )
        expected = []
        for kind in ("searches", "walks"):
            rng = derive_rng(seed, kind)
            totals = {m: [0.0, 0.0] for m in m_list}
            for _ in range(trials):
                nodes, edges = set(), set()
                for j in range(1, m_list[-1] + 1):
                    if kind == "walks":
                        walk = sample_walk(g, length, rng).nodes
                        nodes.update(walk)
                        edges.update(
                            (a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:])
                        )
                    elif len(edges) < g.edge_count:
                        rec = sample_dfs(g, rng)
                        nodes.update(rec.visit_order)
                        edges |= rec.tree_edges
                    if j in totals:
                        totals[j][0] += len(nodes) / g.n
                        totals[j][1] += len(edges) / g.edge_count
            expected += [
                (kind, m, node_total / trials, edge_total / trials)
                for m, (node_total, edge_total) in totals.items()
            ]
        assert [
            (r.kind, r.m, r.node_frac_mean, r.edge_frac_mean) for r in rows
        ] == expected

    @pytest.mark.parametrize(
        "g", [DISCONNECTED_TWO_EDGES, EDGE_PLUS_NODE], ids=["two_edges", "edge_plus_node"]
    )
    def test_searches_refuse_disconnected(self, g):
        with pytest.raises(ValueError, match="^searches require a connected graph$"):
            coverage_curve(g, ["searches"], [1, 2], trials=3, seed=0)

    def test_empty_m_list_rejected(self):
        with pytest.raises(ValueError):
            coverage_curve(cycle_graph(6), ["searches"], [], trials=5, seed=0)
