import json
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations, islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksearch.coverage import edge_inclusion_probs
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
    DEFAULT_ENUM_BUDGET,
    POLICIES,
    EnumerationBudgetError,
    SampleSet,
    SearchGraph,
    SearchRecord,
    WalkPolicy,
    WalkRecord,
    _budget_error,
    _enumerate,
    derive_rng,
    derive_seed,
    enumerate_dfs,
    min_degree_weight,
    sample_dfs,
    sample_set,
    sample_walk,
    search_set_dict,
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


def stdlib_dfs(g: Graph, rng) -> SearchRecord:
    """Reference search that calls `rng.randrange` at every draw, over
    the candidate lists and swap-removes of `sample_dfs`, and stops
    popping once all n nodes are visited. `sample_dfs` must return the
    same record and leave the generator in the same state
    (`TestDfsOracle`), so the exact law checked on this reference is the
    law of `sample_dfs`."""
    if g.n < 1:
        raise ValueError("empty graph")
    adjacency = g.adjacency
    randrange = rng.randrange
    root = randrange(g.n)
    visited = bytearray(g.n)
    visited[root] = 1
    order = [root]
    tree: list[tuple[int, int]] = []
    stack = [(root, list(adjacency[root]))]
    while stack:
        u, candidates = stack[-1]
        while candidates:
            # swap-remove a uniform candidate; a lone one needs no draw
            r = randrange(len(candidates)) if len(candidates) > 1 else 0
            candidates[r], candidates[-1] = candidates[-1], candidates[r]
            v = candidates.pop()
            if not visited[v]:
                visited[v] = 1
                order.append(v)
                tree.append((u, v) if u < v else (v, u))
                stack.append((v, [w for w in adjacency[v] if not visited[w]]))
                break
        else:
            if len(order) == g.n:
                break
            stack.pop()
    if len(order) != g.n:
        raise ValueError("searches require a connected graph")
    return SearchRecord(
        visit_order=tuple(order), tree_edges=frozenset(tree), root=root
    )


def union_find_validate(g: Graph, rec: SearchRecord) -> None:
    """`validate_search_record` plus explicit cycle and connectivity checks
    by union-find over the tree edges, which its parent-count rule implies."""
    validate_search_record(g, rec)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in rec.tree_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("tree edges contain a cycle")
        parent[ru] = rv
    if len({find(v) for v in range(g.n)}) != 1:
        raise ValueError("tree edges do not connect all nodes")


def accepts(validate, g: Graph, rec: SearchRecord) -> bool:
    try:
        validate(g, rec)
    except ValueError:
        return False
    return True


@st.composite
def search_records(draw, max_n: int = 7):
    """A graph on 1..max_n nodes and a record that passes every check
    before the parent counts: a visit order, its first node as root, and
    n - 1 graph edges as tree edges, which may hold a cycle."""
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    order = tuple(draw(st.permutations(range(n))))
    tree: set = set()
    edges: set = set()
    if pairs:
        tree = draw(st.sets(st.sampled_from(pairs), min_size=n - 1, max_size=n - 1))
        edges = tree | draw(st.sets(st.sampled_from(pairs)))
    record = SearchRecord(
        visit_order=order, tree_edges=frozenset(tree), root=order[0]
    )
    return Graph.from_edges(n, edges), record


def frame_per_state_enumerate(g: Graph, budget: int):
    """Reference exact loop that opens a frame at every visited node,
    forced or not, and unwinds `order` one entry per frame. `_enumerate`,
    which opens a frame only at a branch, must yield the same
    ``(order, parent, den)`` sequence and refuse at the same prefix
    (`TestExactEnumeration`)."""
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("exact enumeration requires a connected graph")
    n = g.n
    if n + 2 * g.edge_count * (n - 1) > budget:
        raise _budget_error(budget)
    adjacency = g.adjacency
    visited = bytearray(n)
    order: list[int] = []
    parent = [0] * n
    # [stack top, its unvisited neighbors, next index, child denominator]
    frames: list[list] = []
    states = 0
    for root in range(n):
        w, den = root, n
        while True:
            states += 1
            if states > budget:
                raise _budget_error(budget)
            visited[w] = 1
            order.append(w)
            if len(order) < n:
                u = w
                while True:
                    cands = [v for v in adjacency[u] if not visited[v]]
                    if cands:
                        break
                    u = parent[u]
                frames.append([u, cands, 0, den * len(cands)])
            else:
                yield order, parent, den
                visited[order.pop()] = 0
                while frames and frames[-1][2] == len(frames[-1][1]):
                    frames.pop()
                    visited[order.pop()] = 0
                if not frames:
                    break
            frame = frames[-1]
            u, cands, i, den = frame
            frame[2] = i + 1
            w = cands[i]
            parent[w] = u


def enumerated_trees(g: Graph) -> dict[tuple[int, ...], frozenset]:
    """``{visit order: tree edges}`` over the exact DFS law of g, the
    edges (u, v) pairs with u < v as in a `SearchRecord`, read off the
    parent array of one `_enumerate` pass (the root's entry is stale).
    `enumerate_dfs` keeps only the visit orders; the tests that need a
    law's trees read them here."""
    trees = {}
    for order, parent, _ in _enumerate(g, DEFAULT_ENUM_BUDGET):
        trees[tuple(order)] = frozenset(
            tuple(sorted((parent[v], v))) for v in order[1:]
        )
    return trees


def edge_inclusion_reference(g: Graph) -> dict[tuple[int, int], Fraction]:
    """Each edge's chance of lying in one random DFS tree, summed in
    ``Fraction``s over the outcomes of `enumerate_dfs` whose tree holds it."""
    law, trees = enumerate_dfs(g), enumerated_trees(g)
    return {
        e: sum(
            (Fraction(1, den) for order, den in law.items() if e in trees[order]),
            start=Fraction(0),
        )
        for e in sorted(g.edges())
    }


def row_limited(g: Graph, limit: int) -> Graph:
    """A copy of `g` that fails once more than `limit` of its neighbor
    lists have been read, so a loop that never ends fails instead."""
    reads = 0

    class Row(tuple):
        def __iter__(self):
            nonlocal reads
            reads += 1
            assert reads <= limit, f"more than {limit} neighbor lists read"
            return tuple.__iter__(self)

    return Graph(
        n=g.n, adjacency=tuple(map(Row, g.adjacency)), edge_count=g.edge_count
    )


def enumeration_yields(enumerate_, g: Graph, budget: int, limit: int | None = None):
    """The ``(order, parents of order[1:], den)`` snapshots an exact loop
    yields before it ends, and the error that ended it, if any. Past
    `limit` yields it stops, with the error ``"limit"``, so a loop that
    yields too much fails without filling memory."""
    out = []
    try:
        for order, parent, den in enumerate_(g, budget):
            if len(out) == limit:
                return out, "limit"
            out.append((tuple(order), tuple(parent[v] for v in order[1:]), den))
    except EnumerationBudgetError as exc:
        return out, str(exc)
    return out, None


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
    """Law of `stdlib_dfs`, and so of `sample_dfs`, over (visit order,
    tree edges), run once per draw sequence: each run branches on every
    draw past its script."""
    law = Counter()
    scripts = [[]]
    while scripts:
        script = scripts.pop()
        rng = ScriptedRng(script)
        rec = stdlib_dfs(g, rng)
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

    def shuffle(self, x):
        self.draws["shuffle"] += 1
        return super().shuffle(x)


def stdlib_walk(g, policy, rng):
    """Reference walk that calls the stdlib per step: `randrange` over the
    row (a non-backtracking step filters the previous node out of it,
    unless it is the only neighbor) and `choices` over cumulative weights.
    `WalkPolicy.walk(rng, length)` must return its first length + 1
    nodes from the same generator."""
    adjacency = g.adjacency
    if policy == "local_rule":
        cum_weights = [
            list(accumulate(min_degree_weight(g, u, v) for v in adjacency[u]))
            for u in range(g.n)
        ]
    cur = rng.randrange(g.n)
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


def stdlib_cover_time(g, policy, rng, target, cap):
    """Reference cover trial: the steps of `stdlib_walk` until every node
    (target "node") or every edge ("edge") has been seen, or None past
    `cap` steps. `WalkPolicy.cover_time` must return the same and leave
    the generator in the same state."""
    walk = stdlib_walk(g, policy, rng)
    cur = next(walk)
    nodes, edges = {cur}, set()
    for step in range(1, cap + 1):
        nxt = next(walk)
        nodes.add(nxt)
        edges.add((cur, nxt) if cur < nxt else (nxt, cur))
        cur = nxt
        if (len(nodes) == g.n) if target == "node" else (len(edges) == g.edge_count):
            return step
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

    @pytest.mark.parametrize("policy", POLICIES)
    def test_steps_draw_without_stdlib_wrappers(self, policy):
        rng = DrawCounter(5)
        walk = WalkPolicy(hex_chain(3), policy).walk(rng, 500)
        assert len(walk) == 501
        # only the start
        assert rng.draws["randrange"] == 1
        assert rng.draws["choices"] == 0
        if policy == "local_rule":
            assert rng.draws["random"] == 500
        else:
            assert rng.draws["random"] == 0
            assert rng.draws["getrandbits"] >= 500


    @pytest.mark.parametrize("policy", POLICIES)
    def test_bad_length_rejected_before_any_draw(self, policy):
        pol = WalkPolicy(path_graph(3), policy)
        rng = random.Random(3)
        state = rng.getstate()
        for length in (0, -1):
            with pytest.raises(ValueError, match="^walk length must be >= 1$"):
                pol.walk(rng, length)
        assert rng.getstate() == state


class TestWalkOracle:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_stdlib_walk(self, policy):
        for g in ORACLE_GRAPHS:
            nodes = 4 * g.n + 1
            pol = WalkPolicy(g, policy)
            for seed in range(6):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                expected = stdlib_walk(g, policy, ref_rng)
                got = pol.walk(rng, nodes - 1)
                assert got == list(islice(expected, nodes)), (
                    g.adjacency, seed,
                )
                # no draw for a step that is not taken
                assert rng.getstate() == ref_rng.getstate(), (g.adjacency, seed)


def mark_walk(nodes, edge_ids, node_seen: bytearray, edge_seen: bytearray) -> None:
    """Mark every node of a walk and the id of every edge it crosses."""
    for v in nodes:
        node_seen[v] = 1
    for a, b in zip(nodes, nodes[1:]):
        edge_seen[edge_ids[a][b]] = 1


class TestWalkCoverOracle:
    def test_marks_the_walk_of_a_twin_generator(self):
        outcomes = Counter()
        for g in ORACLE_GRAPHS:
            pol = WalkPolicy(g, "uniform")
            edge_ids = SearchGraph(g).edge_ids
            for length in sorted({1, 2, 4 * g.n + 1}):
                for seed in range(3):
                    for fresh in (True, False):
                        node_seen, edge_seen = bytearray(g.n), bytearray(g.edge_count)
                        if not fresh:
                            # an earlier walk's marks, so both ends of each
                            # marked edge are marked
                            prior = pol.walk(random.Random(f"prior:{seed}"), 2)
                            mark_walk(prior, edge_ids, node_seen, edge_seen)
                        expected_nodes = bytearray(node_seen)
                        expected_edges = bytearray(edge_seen)
                        rng, twin = random.Random(seed), random.Random(seed)
                        walk = pol.walk(twin, length)
                        mark_walk(walk, edge_ids, expected_nodes, expected_edges)
                        left = pol.cover(
                            rng, length, node_seen, edge_seen,
                            node_seen.count(0), edge_seen.count(0),
                        )
                        case = (g.adjacency, length, seed, fresh)
                        assert node_seen == expected_nodes, case
                        assert edge_seen == expected_edges, case
                        assert left == (
                            expected_nodes.count(0), expected_edges.count(0)
                        ), case
                        # every step draws, even past the last new mark
                        assert rng.getstate() == twin.getstate(), case
                        outcomes[left == (0, 0)] += 1
        # walks that cover the whole graph and walks that do not both occur
        assert set(outcomes) == {True, False}

    @pytest.mark.parametrize(
        "policy, length, message",
        [
            ("non_backtracking", 3, "cover walks the uniform policy only"),
            ("local_rule", 3, "cover walks the uniform policy only"),
            ("uniform", 0, "walk length must be >= 1"),
        ],
        ids=["non_backtracking", "local_rule", "length0"],
    )
    def test_refuses_before_any_draw(self, policy, length, message):
        g = cycle_graph(5)
        rng = DrawCounter(0)
        node_seen, edge_seen = bytearray(g.n), bytearray(g.edge_count)
        with pytest.raises(ValueError, match=f"^{message}$"):
            WalkPolicy(g, policy).cover(
                rng, length, node_seen, edge_seen, g.n, g.edge_count
            )
        assert sum(rng.draws.values()) == 0
        assert not any(node_seen) and not any(edge_seen)


DFS_ORACLE_GRAPHS = list(all_labeled_connected_graphs_upto(5)) + [
    hex_chain(6),
    star_graph(400),
    complete_graph(40),
    random_tree(200, 8),
    path_graph(50),
]


class TestDfsOracle:
    def test_matches_stdlib_dfs(self):
        assert len(DFS_ORACLE_GRAPHS) == 772 + 5
        for g in DFS_ORACLE_GRAPHS:
            for seed in range(10):
                expected_rng, rng = random.Random(seed), random.Random(seed)
                expected = stdlib_dfs(g, expected_rng)
                assert sample_dfs(g, rng) == expected, (g.adjacency, seed)
                assert rng.getstate() == expected_rng.getstate()

    def test_draws_without_stdlib_wrappers(self):
        for g in (hex_chain(3), complete_graph(12), star_graph(30)):
            rng = DrawCounter(4)
            sample_dfs(g, rng)
            assert rng.draws["randrange"] == 1
            assert rng.draws["getrandbits"] > 0
            for name in ("shuffle", "choices", "random"):
                assert rng.draws[name] == 0


def preseen(g: Graph, seed: int) -> bytearray:
    """A `seen` array for `cover` with about a third of the edge ids
    marked (none for seed 0), always leaving at least one unmarked."""
    mark = random.Random(f"preseen:{seed}")
    seen = bytearray(
        0 if seed == 0 else int(mark.random() < 1 / 3) for _ in range(g.edge_count)
    )
    if all(seen):
        seen[mark.randrange(g.edge_count)] = 0
    return seen


class TestSearchGraph:
    def test_cover_matches_stdlib_dfs(self):
        outcomes = Counter()
        for g in DFS_ORACLE_GRAPHS:
            if g.edge_count == 0:
                continue
            search_graph = SearchGraph(g)
            edge_ids = search_graph.edge_ids
            for seed in range(5):
                seen = preseen(g, seed)
                before = bytes(seen)
                expected_rng, rng = random.Random(seed), random.Random(seed)
                tree = {
                    edge_ids[u][v] for u, v in stdlib_dfs(g, expected_rng).tree_edges
                }
                left = search_graph.cover(rng, seen, before.count(0))
                expected_seen = bytes(
                    1 if b or e in tree else 0 for e, b in enumerate(before)
                )
                assert left == expected_seen.count(0), (g.adjacency, seed)
                assert bytes(seen) == expected_seen
                # every search makes all its draws up to its last visit,
                # even one that marks the last id
                assert rng.getstate() == expected_rng.getstate(), (g.adjacency, seed)
                outcomes[left > 0] += 1
        # searches that leave an id unmarked and searches that mark the
        # last one both occur
        assert set(outcomes) == {True, False}

    def test_edge_ids_number_the_edges(self):
        for g in (PAW, BULL, hex_chain(3), complete_graph(6)):
            edge_ids = SearchGraph(g).edge_ids
            ids = {(u, v): edge_ids[u][v] for u, v in g.edges()}
            assert sorted(ids.values()) == list(range(g.edge_count))
            for u, row in enumerate(g.adjacency):
                assert sorted(edge_ids[u]) == list(row)
                for v in row:
                    assert edge_ids[u][v] == edge_ids[v][u]

    def test_draws_without_stdlib_wrappers(self):
        for g in (hex_chain(3), complete_graph(12), star_graph(30)):
            rng = DrawCounter(4)
            SearchGraph(g).cover(rng, bytearray(g.edge_count), g.edge_count)
            assert rng.draws["randrange"] == 1
            assert rng.draws["getrandbits"] > 0
            for name in ("shuffle", "choices", "random"):
                assert rng.draws[name] == 0

    @pytest.mark.parametrize(
        "g, message",
        [
            (Graph.from_edges(0, []), "empty graph"),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), "searches require a connected graph"),
            (Graph.from_edges(3, [(0, 1)]), "searches require a connected graph"),
        ],
        ids=["empty", "two_edges", "edge_plus_node"],
    )
    def test_checks_the_graph_like_sample_dfs(self, g, message):
        with pytest.raises(ValueError, match=message):
            sample_dfs(g, random.Random(0))
        with pytest.raises(ValueError, match=message):
            SearchGraph(g)


class TestRandomDfs:
    def test_path3_visit_orders(self):
        # a search from an end walks the path; one from the middle turns
        # back once, and every search's tree is the path itself
        g = path_graph(3)
        orders = Counter()
        for seed in range(40):
            rec = sample_dfs(g, random.Random(seed))
            assert rec.root == rec.visit_order[0]
            assert rec.tree_edges == frozenset({(0, 1), (1, 2)})
            orders[rec.visit_order] += 1
        assert set(orders) == {(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)}

    def test_star_has_unique_spanning_tree(self):
        g = star_graph(4)
        roots = set()
        for seed in range(20):
            rec = sample_dfs(g, random.Random(seed))
            roots.add(rec.root)
            # the hub is first, or second after the leaf the search starts at
            hub_at = 0 if rec.root == 0 else 1
            assert rec.visit_order[hub_at] == 0
            assert sorted(rec.visit_order) == [0, 1, 2, 3]
            assert rec.tree_edges == g.edges()
        assert roots == {0, 1, 2, 3}

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            sample_dfs(disjoint_union(path_graph(2), path_graph(2)), random.Random(0))

    @settings(max_examples=60)
    @given(connected_graphs(min_n=1, max_n=9))
    def test_search_invariants(self, g):
        rec = sample_dfs(g, random.Random(11))
        validate_search_record(g, rec)
        assert set(rec.visit_order) == set(range(g.n))

    def test_validator_refuses_an_empty_graph(self):
        rec = SearchRecord(visit_order=(), tree_edges=frozenset(), root=0)
        with pytest.raises(ValueError, match="^empty graph$"):
            validate_search_record(Graph.from_edges(0, []), rec)

    @settings(max_examples=300)
    @given(search_records())
    def test_validator_decides_like_union_find(self, case):
        # exactly one earlier-visited tree neighbor per non-root node makes
        # the n - 1 edges a spanning tree, so no cycle or split is left over
        g, rec = case
        assert accepts(validate_search_record, g, rec) == accepts(
            union_find_validate, g, rec
        )

    def test_validator_rejects_every_cycle_on_four_nodes(self):
        g = complete_graph(4)
        decided = Counter()
        for order in permutations(range(4)):
            for tree in combinations(sorted(g.edges()), 3):
                rec = SearchRecord(
                    visit_order=order, tree_edges=frozenset(tree), root=order[0]
                )
                trimmed = accepts(validate_search_record, g, rec)
                assert trimmed == accepts(union_find_validate, g, rec)
                decided[trimmed] += 1
        # in a visit order, the i-th node after the root picks its parent
        # from the i nodes before it: 1 * 2 * 3 trees pass per order, and
        # the rest of the 20 triples (the 4 triangles among them) fail
        assert decided == {True: 24 * 6, False: 24 * 14}

    @pytest.mark.parametrize(
        "g",
        [star_graph(400), complete_graph(40), hex_chain(6), path_graph(50)],
        ids=["star400", "K40", "hex6", "path50"],
    )
    def test_reads_each_neighbor_list_once(self, g):
        # a hub that the search keeps coming back to must not be rescanned;
        # the reference makes the same draws, one randrange call each
        counted, reads = counting_graph(g)
        for seed in range(5):
            reads[:] = [0] * g.n
            rng, reference_rng = DrawCounter(seed), DrawCounter(seed)
            rec = sample_dfs(counted, rng)
            validate_search_record(g, rec)
            assert reads == g.degrees()
            assert rec == stdlib_dfs(g, reference_rng)
            assert rng.draws["getrandbits"] == reference_rng.draws["getrandbits"]
            assert reference_rng.draws["randrange"] <= 2 * g.edge_count + 1


    def test_no_draw_after_the_last_visit(self):
        # on K40 the stack still holds hundreds of candidates, all visited,
        # when the last node is reached; the search reads that node's list
        # and ends there, with no draw to drop them
        g = complete_graph(40)
        events: list[str] = []

        class Row(tuple):
            def __iter__(self):
                events.append("read")
                return tuple.__iter__(self)

        class LoggedRng(random.Random):
            def getrandbits(self, k):
                events.append("draw")
                return super().getrandbits(k)

        logged = Graph(
            n=g.n,
            adjacency=tuple(Row(row) for row in g.adjacency),
            edge_count=g.edge_count,
        )
        for seed in range(50):
            events.clear()
            rec = sample_dfs(logged, LoggedRng(seed))
            validate_search_record(g, rec)
            assert events.count("read") == g.n
            last_visit = len(events) - events[::-1].index("read")
            assert "draw" not in events[last_visit:], seed


class TestExactEnumeration:
    def test_path3_distribution(self):
        law = enumerate_dfs(path_graph(3))
        assert law == {(0, 1, 2): 3, (2, 1, 0): 3, (1, 0, 2): 6, (1, 2, 0): 6}
        assert list(law) == [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]

    def test_cycle3_six_equiprobable_orders(self):
        law = enumerate_dfs(cycle_graph(3))
        assert len(law) == 6
        assert set(law.values()) == {6}

    def test_single_node(self):
        assert enumerate_dfs(Graph.from_edges(1, ())) == {(0,): 1}

    def test_cycle3_edge_inclusion_two_thirds(self):
        reference = edge_inclusion_reference(cycle_graph(3))
        assert reference == dict.fromkeys(cycle_graph(3).edges(), Fraction(2, 3))

    def test_exact_edge_inclusion_sums_the_records(self):
        # exact `edge_inclusion_probs` sums each edge's dens in integers;
        # the reference sums Fractions over the law's trees: same Fraction
        for g in all_labeled_connected_graphs_upto(4) + (hex_chain(2), BULL):
            reports = edge_inclusion_probs(g)
            assert set(reports) == g.edges()
            reference = edge_inclusion_reference(g)
            for e, rep in reports.items():
                assert rep.probability == reference[e]

    def test_law_keeps_every_yield(self):
        # one key per yield of the loop, with its den, in yield order
        for g in all_labeled_connected_graphs_upto(5) + (hex_chain(2),):
            yields = [
                (tuple(order), den)
                for order, _, den in _enumerate(g, DEFAULT_ENUM_BUDGET)
            ]
            assert list(enumerate_dfs(g).items()) == yields

    @staticmethod
    def assert_same_yields(g: Graph):
        # the yield sequence, parents included, is the frame-per-state
        # reference's; at one prefix short of the count both refuse
        # after the same yields, with the same message
        ref, error = enumeration_yields(
            frame_per_state_enumerate, g, DEFAULT_ENUM_BUDGET
        )
        assert error is None
        prefixes = len({order[:k] for order, _, _ in ref for k in range(1, g.n + 1)})
        short = enumeration_yields(frame_per_state_enumerate, g, prefixes - 1)
        assert short[1] == (
            f"too large for exact enumeration (budget {prefixes - 1} exceeded)"
        )

        def run(budget):
            # the connectivity check reads n lists and each prefix at most
            # n, up the tree path; past that, or past the reference's
            # yields, the loop under test fails instead of running on
            bounded = row_limited(g, g.n * (prefixes + 1))
            return enumeration_yields(_enumerate, bounded, budget, len(ref))

        assert run(DEFAULT_ENUM_BUDGET) == (ref, None)
        assert run(prefixes) == (ref, None)
        assert run(prefixes - 1) == short

    def test_yields_match_frame_per_state_reference(self):
        for g in all_labeled_connected_graphs_upto(5):
            self.assert_same_yields(g)
        for g in random_connected_corpus(20, seed=3) + [
            hex_chain(2), cycle_graph(12), path_graph(8), complete_graph(5),
            *(random_tree(8, 2000 + i) for i in range(3)),
        ]:
            self.assert_same_yields(g)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_n=1, max_n=8))
    def test_yields_match_frame_per_state_reference_on_random_graphs(self, g):
        self.assert_same_yields(g)

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

    def test_path_past_budget_refused_before_enumerating(self):
        # 720 * 720 prefixes fit the default budget, but a path has
        # 2n^2 - 3n + 2 of them, which the refusal floor counts exactly
        g, reads = counting_graph(path_graph(720))
        with pytest.raises(
            EnumerationBudgetError, match="budget 1000000 exceeded"
        ):
            enumerate_dfs(g)
        h, connectivity_reads = counting_graph(path_graph(720))
        assert h.is_connected()
        assert reads == connectivity_reads

    def test_refusal_floor_never_exceeds_prefix_count(self):
        # a budget of exactly the prefix count enumerates every graph, so
        # the floor checked before enumerating never refuses one that fits
        for g in all_labeled_connected_graphs_upto(5):
            law = enumerate_dfs(g)
            prefixes = {order[:k] for order in law for k in range(1, g.n + 1)}
            assert g.n + 2 * g.edge_count * (g.n - 1) <= len(prefixes)
            assert enumerate_dfs(g, budget=len(prefixes)) == law

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
            law = enumerate_dfs(path_graph(n))
        finally:
            sys.setrecursionlimit(limit)
        # an end root has one order; an interior root r goes left or right
        # first, each with probability 1/2
        expected = {tuple(range(n)): n, tuple(range(n - 1, -1, -1)): n}
        for r in range(1, n - 1):
            left, right = tuple(range(r - 1, -1, -1)), tuple(range(r + 1, n))
            expected[(r,) + left + right] = 2 * n
            expected[(r,) + right + left] = 2 * n
        assert len(law) == 2 * n - 2
        assert law == expected

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
        law = enumerate_dfs(g, budget=prefixes)
        seen = {order[:k] for order in law for k in range(1, g.n + 1)}
        assert len(seen) == prefixes
        with pytest.raises(
            EnumerationBudgetError, match=f"budget {prefixes - 1} exceeded"
        ):
            enumerate_dfs(g, budget=prefixes - 1)

    def test_probabilities_sum_to_one_on_small_corpus(self):
        for g in all_labeled_connected_graphs_upto(5):
            law = enumerate_dfs(g)
            assert sum(Fraction(1, den) for den in law.values()) == 1
            trees = enumerated_trees(g)
            assert trees.keys() == law.keys()
            for order, tree in trees.items():
                validate_search_record(
                    g, SearchRecord(visit_order=order, tree_edges=tree, root=order[0])
                )
            orders = list(law)
            assert all(a < b for a, b in zip(orders, orders[1:]))

    @pytest.mark.parametrize("g", [PAW, BULL], ids=["paw", "bull"])
    def test_sampler_matches_enumeration(self, g):
        # total-variation distance between 1e5 sampled orders and the
        # exact law must be within 0.01
        exact = {order: 1 / den for order, den in enumerate_dfs(g).items()}
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
            trees = enumerated_trees(g)
            exact = Counter(
                {
                    (order, trees[order]): Fraction(1, den)
                    for order, den in enumerate_dfs(g).items()
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
            # the records are drawn in turn from one generator
            rng = derive_rng(21)
            expected = SampleSet(
                kind="walks",
                items=tuple(sample_walk(g, ell, rng, policy) for _ in range(6)),
                seed=21,
            )
            assert json.dumps(ss.to_dict()) == json.dumps(expected.to_dict())

    @pytest.mark.parametrize(
        "g", [PAW, hex_chain(3), complete_graph(7)], ids=["paw", "hex3", "K7"]
    )
    def test_searches_match_per_record_sampler(self, g):
        # `sample_set` and the writer behind `sample --kind searches` both
        # draw their searches in turn from one generator
        for seed, m in ((0, 1), (5, 4), (21, 9)):
            rng = derive_rng(seed)
            expected = SampleSet(
                kind="searches",
                items=tuple(sample_dfs(g, rng) for _ in range(m)),
                seed=seed,
            )
            assert sample_set(g, "searches", m, seed) == expected
            assert json.dumps(search_set_dict(g, m, seed)) == json.dumps(
                expected.to_dict()
            )

    def test_walk_length_must_be_positive(self):
        for length in (0, -1):
            with pytest.raises(ValueError, match="walk length must be >= 1"):
                sample_set(PAW, "walks", 2, 0, length=length)

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be"):
            sample_set(path_graph(2), "walks", 0, seed=0, length=1)

    def test_kind_and_records_checked_when_built(self):
        search = sample_dfs(path_graph(3), random.Random(0))
        walk = WalkRecord(nodes=(0, 1), policy="uniform", start=0)
        with pytest.raises(ValueError, match="unknown kind 'search'"):
            SampleSet(kind="search", items=(search,), seed=0)
        with pytest.raises(ValueError, match="holds SearchRecords, got a WalkRecord"):
            SampleSet(kind="searches", items=(search, walk), seed=0)
        with pytest.raises(ValueError, match="holds WalkRecords, got a SearchRecord"):
            SampleSet(kind="walks", items=(walk, search), seed=0)
        assert SampleSet(kind="searches", items=(), seed=0).to_dict()["items"] == []
