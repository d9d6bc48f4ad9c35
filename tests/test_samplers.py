import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings

from walksearch.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hex_chain,
    path_graph,
    random_tree,
    star_graph,
)
from walksearch.samplers import (
    POLICIES,
    EnumerationBudgetError,
    SampleSet,
    WalkPolicy,
    derive_rng,
    derive_seed,
    enumerate_dfs,
    min_degree_weight,
    sample_dfs,
    sample_set,
    sample_walk,
    validate_search_record,
)

from .corpus import (
    all_labeled_connected_graphs_upto,
    counting_graph,
    random_connected_corpus,
)
from .strategies import connected_graphs

PAW = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
BULL = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)])


class ScriptedRng:
    """Answers `randrange(k)` from `script`, then with 0; records each k."""

    def __init__(self, script):
        self.script = script
        self.ks = []

    def randrange(self, k):
        i = len(self.ks)
        self.ks.append(k)
        return self.script[i] if i < len(self.script) else 0


def exact_sampler_law(g):
    """Law of `sample_dfs` over (visit order, tree edges), run once per
    draw sequence: each run branches on every draw past its script."""
    law = Counter()
    scripts = [[]]
    while scripts:
        script = scripts.pop()
        rng = ScriptedRng(script)
        rec = sample_dfs(g, rng)
        weight = Fraction(1)
        for k in rng.ks:
            weight /= k
        law[rec.visit_order, rec.tree_edges] += weight
        # past the root draw, a draw is made only among >= 2 candidates
        assert all(k >= 2 for k in rng.ks[1:])
        for j in range(len(script), len(rng.ks)):
            zeros = [0] * (j - len(script))
            scripts.extend(script + zeros + [a] for a in range(1, rng.ks[j]))
    return law


class DrawCounter(random.Random):
    """A `random.Random` that counts calls to its draw methods by name."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = Counter()

    def randrange(self, *args):
        self.draws["randrange"] += 1
        return super().randrange(*args)

    def choices(self, *args, **kwargs):
        self.draws["choices"] += 1
        return super().choices(*args, **kwargs)

    def getrandbits(self, k):
        self.draws["getrandbits"] += 1
        return super().getrandbits(k)

    def random(self):
        self.draws["random"] += 1
        return super().random()


def stdlib_walk(g, policy, rng, start=None, weight_fn=None):
    """Reference walk that calls the stdlib per step: `randrange` over the
    row (a non-backtracking step filters the previous node out of it,
    unless it is the only neighbor) and `choices` over cumulative weights.
    `WalkPolicy.walk` must yield the same nodes from the same generator."""
    adjacency = g.adjacency
    if policy == "local_rule":
        fn = weight_fn if weight_fn is not None else min_degree_weight
        cum_weights = [
            list(accumulate(fn(g, u, v) for v in adjacency[u]))
            for u in range(g.n)
        ]
    cur = rng.randrange(g.n) if start is None else start
    yield cur
    prev = None
    while True:
        nbrs = adjacency[cur]
        if policy == "uniform":
            nxt = nbrs[rng.randrange(len(nbrs))]
        elif policy == "non_backtracking":
            if prev is not None and len(nbrs) > 1:
                nbrs = [v for v in nbrs if v != prev]
            nxt = nbrs[rng.randrange(len(nbrs))]
        else:
            nxt = rng.choices(nbrs, cum_weights=cum_weights[cur])[0]
        prev, cur = cur, nxt
        yield cur


def skewed_weight(g, u, v):
    return 1.0 + (3 * u + v) % 4


def one_zero_edge_weight(g):
    """The default weights with one edge set to 0, on an edge whose ends
    both keep a positive total; None when every edge has a leaf end."""
    for u, v in sorted(g.edges()):
        if len(g.adjacency[u]) > 1 and len(g.adjacency[v]) > 1:
            zero = {(u, v), (v, u)}
            return lambda graph, a, b: (
                0.0 if (a, b) in zero else min_degree_weight(graph, a, b)
            )
    return None


ORACLE_GRAPHS = [g for g in all_labeled_connected_graphs_upto(5) if g.n >= 2]
ORACLE_GRAPHS += [
    path_graph(10),
    star_graph(8),
    complete_graph(6),
    hex_chain(3),
    random_tree(20, 4),
]


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(3, 1) == derive_seed(3, 1)
        assert derive_seed(3, 1) != derive_seed(3, 2)
        assert derive_seed(3, 1) != derive_seed(4, 1)

    def test_string_keys_separate_streams(self):
        assert derive_seed(0, "a", 1) != derive_seed(0, "b", 1)


class TestWalks:
    def test_path2_alternates(self):
        w = sample_walk(path_graph(2), 3, random.Random(1))
        assert w.nodes in {(0, 1, 0, 1), (1, 0, 1, 0)}
        assert w.start == w.nodes[0]

    def test_cycle3_non_backtracking_rotates(self):
        g = cycle_graph(3)
        for seed in range(10):
            w = sample_walk(g, 5, random.Random(seed), "non_backtracking")
            for prev, cur, nxt in zip(w.nodes, w.nodes[1:], w.nodes[2:]):
                assert nxt != prev
            step = (w.nodes[1] - w.nodes[0]) % 3
            assert [(x - w.nodes[0]) % 3 for x in w.nodes] == [
                (i * step) % 3 for i in range(6)
            ]

    def test_uniform_kernel_on_cycle4(self):
        # long walk; empirical next-step split at node 0 should be ~(1/2, 1/2)
        g = cycle_graph(4)
        w = sample_walk(g, 40000, random.Random(12345), "uniform")
        moves = Counter(
            nxt for cur, nxt in zip(w.nodes, w.nodes[1:]) if cur == 0
        )
        total = moves[1] + moves[3]
        assert total > 5000
        assert abs(moves[1] / total - 0.5) < 0.02

    def test_degree_one_fallback_backtracks(self):
        w = sample_walk(path_graph(2), 4, random.Random(0), "non_backtracking")
        assert w.nodes in {(0, 1, 0, 1, 0), (1, 0, 1, 0, 1)}

    def test_local_rule_custom_weights_steer(self):
        g = cycle_graph(5)
        clockwise = lambda graph, u, v: 1.0 if v == (u + 1) % 5 else 0.0
        w = sample_walk(g, 10, random.Random(3), "local_rule", weight_fn=clockwise)
        for cur, nxt in zip(w.nodes, w.nodes[1:]):
            assert nxt == (cur + 1) % 5

    def test_local_rule_default_runs(self):
        w = sample_walk(star_graph(5), 20, random.Random(2), "local_rule")
        assert len(w.nodes) == 21

    def test_rejects_disconnected_and_zero_length(self):
        broken = disjoint_union(path_graph(2), path_graph(2))
        with pytest.raises(ValueError, match="connected"):
            sample_walk(broken, 3, random.Random(0))
        with pytest.raises(ValueError, match="length"):
            sample_walk(path_graph(3), 0, random.Random(0))

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_consecutive_adjacency_all_policies(self, g):
        for policy in ("uniform", "non_backtracking", "local_rule"):
            w = sample_walk(g, 12, random.Random(7), policy)
            assert len(w.nodes) == 13
            for a, b in zip(w.nodes, w.nodes[1:]):
                assert g.has_edge(a, b)

    @pytest.mark.parametrize("n", [4, 5, 8, 11])
    def test_non_backtracking_cycle_no_early_revisit(self, n):
        g = cycle_graph(n)
        for seed in range(5):
            w = sample_walk(g, n - 1, random.Random(seed), "non_backtracking")
            assert len(set(w.nodes)) == n

    @pytest.mark.parametrize(
        "bad",
        [0.0, -1.0, math.inf, math.nan],
        ids=["zero", "neg", "inf", "nan"],
    )
    def test_local_rule_rejects_bad_weight_total_at_construction(self, bad):
        # one node of the path is bad; no walk needs to reach it
        g = path_graph(5)
        fn = lambda graph, u, v: bad if u == 4 else 1.0
        with pytest.raises(ValueError, match="node 4 must have a positive"):
            WalkPolicy(g, "local_rule", fn)
        WalkPolicy(g, "uniform", fn)
        WalkPolicy(g, "local_rule")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_steps_draw_without_stdlib_wrappers(self, policy):
        rng = DrawCounter(5)
        walk = WalkPolicy(hex_chain(3), policy).walk(rng)
        assert len(list(islice(walk, 501))) == 501
        # the start, plus the first non-backtracking step
        first_steps = 1 if policy == "non_backtracking" else 0
        assert rng.draws["randrange"] == 1 + first_steps
        assert rng.draws["choices"] == 0
        if policy == "local_rule":
            assert rng.draws["random"] == 500
        else:
            assert rng.draws["random"] == 0
            assert rng.draws["getrandbits"] >= 500


class TestWalkOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_stdlib_walk(self, policy):
        zero_edge_graphs = 0
        for g in ORACLE_GRAPHS:
            weight_fns = [None]
            if policy == "local_rule":
                zero_edge = one_zero_edge_weight(g)
                weight_fns.append(skewed_weight)
                if zero_edge is not None:
                    weight_fns.append(zero_edge)
                    zero_edge_graphs += 1
            nodes = 4 * g.n + 1
            for weight_fn in weight_fns:
                pol = WalkPolicy(g, policy, weight_fn)
                for seed in range(3):
                    for start in (None, (5 * seed + 1) % g.n):
                        expected = stdlib_walk(
                            g, policy, random.Random(seed), start, weight_fn
                        )
                        got = pol.walk(random.Random(seed), start)
                        assert list(islice(got, nodes)) == list(
                            islice(expected, nodes)
                        ), (g.adjacency, seed, start)
        if policy == "local_rule":
            assert zero_edge_graphs > len(ORACLE_GRAPHS) // 2


class TestRandomDfs:
    def test_path3_forced_root(self):
        rec = sample_dfs(path_graph(3), random.Random(0), root=0)
        assert rec.visit_order == (0, 1, 2)
        assert rec.tree_edges == frozenset({(0, 1), (1, 2)})

    def test_star_has_unique_spanning_tree(self):
        g = star_graph(4)
        for seed in range(10):
            rec = sample_dfs(g, random.Random(seed), root=0)
            assert rec.visit_order[0] == 0
            assert sorted(rec.visit_order[1:]) == [1, 2, 3]
            assert rec.tree_edges == g.edges()

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            sample_dfs(disjoint_union(path_graph(2), path_graph(2)), random.Random(0))

    @settings(max_examples=60)
    @given(connected_graphs(min_n=1, max_n=9))
    def test_search_invariants(self, g):
        rec = sample_dfs(g, random.Random(11))
        validate_search_record(g, rec)
        assert set(rec.visit_order) == set(range(g.n))

    @pytest.mark.parametrize(
        "g",
        [star_graph(400), complete_graph(40), hex_chain(6), path_graph(50)],
        ids=["star400", "K40", "hex6", "path50"],
    )
    def test_reads_each_neighbor_list_once(self, g):
        # a hub that the search keeps coming back to must not be rescanned
        counted, reads = counting_graph(g)
        for seed in range(5):
            reads[:] = [0] * g.n
            rng = DrawCounter(seed)
            validate_search_record(g, sample_dfs(counted, rng))
            assert reads == g.degrees()
            assert rng.draws["randrange"] <= 2 * g.edge_count + 1


class TestExactEnumeration:
    def test_path3_distribution(self):
        outs = enumerate_dfs(path_graph(3))
        dist = {o.record.visit_order: o.probability for o in outs}
        assert dist == {
            (0, 1, 2): Fraction(1, 3),
            (2, 1, 0): Fraction(1, 3),
            (1, 0, 2): Fraction(1, 6),
            (1, 2, 0): Fraction(1, 6),
        }

    def test_cycle3_six_equiprobable_orders(self):
        outs = enumerate_dfs(cycle_graph(3))
        assert len(outs) == 6
        assert all(o.probability == Fraction(1, 6) for o in outs)

    def test_single_node(self):
        outs = enumerate_dfs(Graph.from_edges(1, ()))
        assert len(outs) == 1
        assert outs[0].probability == 1
        assert outs[0].record.visit_order == (0,)

    def test_cycle3_edge_inclusion_two_thirds(self):
        outs = enumerate_dfs(cycle_graph(3))
        for e in cycle_graph(3).edges():
            p = sum(o.probability for o in outs if e in o.record.tree_edges)
            assert p == Fraction(2, 3)

    def test_budget_error(self):
        with pytest.raises(EnumerationBudgetError, match="too large"):
            enumerate_dfs(cycle_graph(6), budget=5)

    def test_deep_search_takes_budget_error(self):
        # a long path has more visit-order prefixes than the default
        # budget, so the budget refuses it
        with pytest.raises(EnumerationBudgetError, match="too large"):
            enumerate_dfs(path_graph(1200))

    def test_refusal_reads_nothing_past_connectivity(self):
        # 1200 * 1200 prefixes exceed the default budget, so the refusal
        # comes before the enumeration reads a neighbor list: the only
        # reads are those of the connectivity check
        g, reads = counting_graph(path_graph(1200))
        with pytest.raises(
            EnumerationBudgetError, match="budget 1000000 exceeded"
        ):
            enumerate_dfs(g)
        h, connectivity_reads = counting_graph(path_graph(1200))
        assert h.is_connected()
        assert reads == connectivity_reads

    def test_search_deeper_than_recursion_limit(self):
        # the enumerator is a loop, so a search deeper than the recursion
        # limit is enumerated: a path's law has a closed form
        n = 120
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            outs = enumerate_dfs(path_graph(n))
        finally:
            sys.setrecursionlimit(limit)
        # an end root has one order; an interior root r goes left or right
        # first, each with probability 1/2
        expected = {
            tuple(range(n)): Fraction(1, n),
            tuple(range(n - 1, -1, -1)): Fraction(1, n),
        }
        for r in range(1, n - 1):
            left, right = tuple(range(r - 1, -1, -1)), tuple(range(r + 1, n))
            expected[(r,) + left + right] = Fraction(1, 2 * n)
            expected[(r,) + right + left] = Fraction(1, 2 * n)
        assert len(outs) == 2 * n - 2
        assert {o.record.visit_order: o.probability for o in outs} == expected

    @pytest.mark.parametrize(
        "g, prefixes",
        [
            (cycle_graph(6), 66),
            (hex_chain(2), 2164),
            (path_graph(8), 106),
            (complete_graph(5), 325),
            (star_graph(6), 656),
        ],
        ids=["C6", "hex2", "P8", "K5", "star6"],
    )
    def test_budget_counts_visit_order_prefixes(self, g, prefixes):
        # the budget trips exactly past the number of distinct nonempty
        # visit-order prefixes of the outcomes
        outs = enumerate_dfs(g, budget=prefixes)
        seen = {
            o.record.visit_order[:k] for o in outs for k in range(1, g.n + 1)
        }
        assert len(seen) == prefixes
        with pytest.raises(
            EnumerationBudgetError, match=f"budget {prefixes - 1} exceeded"
        ):
            enumerate_dfs(g, budget=prefixes - 1)

    def test_probabilities_sum_to_one_on_small_corpus(self):
        for g in all_labeled_connected_graphs_upto(5):
            outs = enumerate_dfs(g)
            assert sum(o.probability for o in outs) == 1
            for o in outs:
                validate_search_record(g, o.record)
            orders = [o.record.visit_order for o in outs]
            assert all(a < b for a, b in zip(orders, orders[1:]))

    @pytest.mark.parametrize("g", [PAW, BULL], ids=["paw", "bull"])
    def test_sampler_matches_enumeration(self, g):
        # total-variation distance between 1e5 sampled orders and the
        # exact law must be within 0.01
        outs = enumerate_dfs(g)
        exact = {o.record.visit_order: float(o.probability) for o in outs}
        trials = 100_000
        counts = Counter(
            sample_dfs(g, derive_rng(99, i)).visit_order for i in range(trials)
        )
        assert set(counts) <= set(exact)
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / trials - p) for k, p in exact.items()
        )
        assert tv <= 0.01

    def test_sampler_law_is_exact(self):
        # every draw sequence of the sampler, weighted by its probability,
        # gives exactly the enumerated law
        corpus = all_labeled_connected_graphs_upto(5) + tuple(
            random_connected_corpus(20, seed=3)
        )
        for g in corpus:
            exact = Counter(
                {
                    (o.record.visit_order, o.record.tree_edges): o.probability
                    for o in enumerate_dfs(g)
                }
            )
            assert exact_sampler_law(g) == exact


class TestSampleSets:
    def test_byte_identical_given_seed(self):
        g = cycle_graph(6)
        a = sample_set(g, "searches", 3, seed=1)
        b = sample_set(g, "searches", 3, seed=1)
        assert a == b and a.to_dict() == b.to_dict()

    def test_walk_outcomes_on_single_edge(self):
        ss = sample_set(path_graph(2), "walks", 2, seed=0, length=1)
        for rec in ss.items:
            assert rec.nodes in {(0, 1), (1, 0)}

    def test_single_search_union_on_cycle6(self):
        ss = sample_set(cycle_graph(6), "searches", 1, seed=4)
        assert len(ss.items[0].tree_edges) == 5

    @pytest.mark.parametrize(
        "policy", ["uniform", "non_backtracking", "local_rule"]
    )
    def test_walks_match_per_record_sampler(self, policy, monkeypatch):
        g = BULL
        calls = []
        is_connected = Graph.is_connected

        def counted(self):
            calls.append(self)
            return is_connected(self)

        monkeypatch.setattr(Graph, "is_connected", counted)
        for length in (None, 1, 7):
            calls.clear()
            ss = sample_set(g, "walks", 6, 21, length=length, policy=policy)
            assert len(calls) == 1
            ell = g.n if length is None else length
            expected = SampleSet(
                kind="walks",
                items=tuple(
                    sample_walk(g, ell, derive_rng(21, i), policy)
                    for i in range(6)
                ),
                seed=21,
            )
            assert json.dumps(ss.to_dict()) == json.dumps(expected.to_dict())

    def test_walk_length_must_be_positive(self):
        for length in (0, -1):
            with pytest.raises(ValueError, match="walk length must be >= 1"):
                sample_set(PAW, "walks", 2, 0, length=length)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be"):
            sample_set(path_graph(2), "walks", 0, seed=0, length=1)
