import json
import math
import tracemalloc
from collections import Counter, defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walksearch.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    hex_chain,
    path_graph,
    random_tree,
    relabel,
    star_graph,
)
from walksearch import wl as wlmod
from walksearch.wl import (
    DistinguishVerdict,
    Partition,
    RefinementGuardError,
    RefinementRun,
    distinguish,
    leaf_paths,
    partition_of,
    partition_refines,
    terminating_walks,
    unfolding_tree,
    wl_refine,
    wwl_refine,
)

from .corpus import (
    all_labeled_connected_graphs_upto,
    counting_graph,
    random_connected_corpus,
)
from .strategies import connected_graphs

TWO_TRIANGLES = disjoint_union(cycle_graph(3), cycle_graph(3))


def fan_graph(k):
    """A path on nodes 0..k-1 plus a hub, node k, joined to all of them."""
    return Graph.from_edges(
        k + 1, [(u, u + 1) for u in range(k - 1)] + [(k, u) for u in range(k)]
    )


def _naive_refinement(graphs, payload, rounds, init):
    """Reference law: every round's payloads interned into one run-wide
    dictionary, stability tested as equality of frozenset partitions."""
    dictionary: dict = {}

    def intern(p):
        return dictionary.setdefault(p, len(dictionary))

    def joint(cols):
        groups = defaultdict(set)
        for gi, colseq in enumerate(cols):
            for u, c in enumerate(colseq):
                groups[c].add((gi, u))
        return frozenset(frozenset(b) for b in groups.values())

    labels = init if init is not None else [[0] * g.n for g in graphs]
    history = [tuple(tuple(intern(("init", x)) for x in lab) for lab in labels)]
    max_rounds = rounds if rounds is not None else sum(g.n for g in graphs) + 1
    stable_round = None
    for _ in range(max_rounds):
        cur = history[-1]
        history.append(tuple(
            tuple(intern(payload(g, cur[gi], u)) for u in range(g.n))
            for gi, g in enumerate(graphs)
        ))
        if stable_round is None and joint(history[-2]) == joint(history[-1]):
            stable_round = len(history) - 2
            if rounds is None:
                break
    return tuple(history), stable_round


def naive_wl(graphs, rounds=None, init=None):
    def payload(g, cur, u):
        return ("wl", cur[u], tuple(sorted(cur[v] for v in g.adjacency[u])))

    return _naive_refinement(graphs, payload, rounds, init)


def naive_wwl(graphs, length, rounds=None, init=None):
    def payload(g, cur, u):
        walks = terminating_walks(g, u, length)
        colored = sorted(tuple(cur[w] for w in walk) for walk in walks)
        return ("wwl", cur[u], tuple(colored))

    return _naive_refinement(graphs, payload, rounds, init)


class TestPartitions:
    def test_refines_extremes(self):
        one = Partition(blocks=frozenset({frozenset({0, 1, 2})}))
        singletons = Partition(
            blocks=frozenset({frozenset({0}), frozenset({1}), frozenset({2})})
        )
        assert partition_refines(one, singletons)
        assert not partition_refines(singletons, one)

    def test_reflexive(self):
        p = partition_of([0, 0, 1, 2])
        assert partition_refines(p, p)

    def test_node_set_mismatch(self):
        with pytest.raises(ValueError, match="different node sets"):
            partition_refines(partition_of([0]), partition_of([0, 1]))


class TestClassicRefinement:
    def test_vertex_transitive_cycle_stays_monochrome(self):
        run = wl_refine([cycle_graph(6)])
        for r in range(len(run.history)):
            assert len(run.partition(r, 0).blocks) == 1

    def test_path3_separates_middle(self):
        run = wl_refine([path_graph(3)])
        assert run.stable_round == 1
        assert run.stable_partition(0).sorted_blocks() == [[0, 2], [1]]

    def test_classic_indistinguishable_pair(self):
        run = wl_refine([TWO_TRIANGLES, cycle_graph(6)])
        assert run.stable_color_multiset(0) == run.stable_color_multiset(1)

    def test_fixed_round_budget(self):
        run = wl_refine([path_graph(5)], rounds=1)
        assert run.rounds == 1



class TestNaiveOracle:
    """History (the color ids themselves) and stable round match the
    run-wide-dictionary reference law exactly."""

    @staticmethod
    def check(graphs, rounds=None, init=None):
        run = wl_refine(graphs, rounds=rounds, init=init)
        assert (run.history, run.stable_round) == naive_wl(graphs, rounds, init)
        for ell in (1, 2):
            run = wwl_refine(graphs, ell, rounds=rounds, init=init)
            assert (run.history, run.stable_round) == naive_wwl(
                graphs, ell, rounds, init
            )

    def test_single_graphs(self):
        for g in random_connected_corpus(25, seed=15, n_max=7):
            self.check([g])

    def test_joint_pairs(self):
        corpus = random_connected_corpus(16, seed=16, n_max=6)
        for g, h in zip(corpus[::2], corpus[1::2]):
            self.check([g, h])
        self.check([TWO_TRIANGLES, cycle_graph(6)])
        self.check([path_graph(7), path_graph(7), cycle_graph(4)])

    def test_init_labels(self):
        for g in random_connected_corpus(10, seed=17, n_max=7):
            self.check([g], init=[g.degrees()])
            self.check([g, g], init=[[u % 2 for u in range(g.n)], g.degrees()])

    def test_round_budgets(self):
        for g in random_connected_corpus(8, seed=18, n_max=7):
            for rounds in (0, 1, 3):
                self.check([g], rounds=rounds)
                init = [g.degrees(), [1, 0, 0, 1]]
                self.check([g, path_graph(4)], rounds=rounds, init=init)

    def test_long_path(self):
        self.check([path_graph(30)])

    # wl_refine derives each round from the previous round's splits; the
    # cases below stretch that logic against the naive law

    @staticmethod
    def check_wl(graphs, rounds=None, init=None):
        run = wl_refine(graphs, rounds=rounds, init=init)
        assert (run.history, run.stable_round) == naive_wl(graphs, rounds, init)
        return run

    def test_long_chains(self):
        self.check_wl([path_graph(61)])
        self.check_wl([hex_chain(7)])
        self.check_wl([cycle_graph(9), path_graph(9)])

    def test_isolated_nodes_and_empty_graphs(self):
        scattered = Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)])
        empty = Graph.from_edges(0, [])
        self.check_wl([scattered])
        self.check_wl([empty, scattered])
        self.check_wl([path_graph(4), empty, cycle_graph(3)])
        self.check_wl([empty])

    def test_rounds_past_stable(self):
        for gs in ([path_graph(12)], [hex_chain(3)],
                   [cycle_graph(9), path_graph(9)]):
            stable = self.check_wl(gs).stable_round
            self.check_wl(gs, rounds=stable + 3)

    def test_many_class_init(self):
        graphs = [path_graph(20), hex_chain(4), cycle_graph(12)]
        graphs += random_connected_corpus(6, seed=19, n_min=8, n_max=12)
        for g in graphs:
            parity = [u % 2 for u in range(g.n)]
            self.check_wl([g], init=[g.degrees()])
            self.check_wl([g], init=[parity])
            self.check_wl([g, g], init=[g.degrees(), parity])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(connected_graphs(1, 9), min_size=1, max_size=3))
    def test_random_graphs_and_unions(self, graphs):
        self.check_wl(graphs)
        union = graphs[0]
        for g in graphs[1:]:
            union = disjoint_union(union, g)
        self.check_wl([union])

    def test_reads_are_m_log_n(self):
        # every round of a naive update reads all 2m entries; splitting
        # by the smaller pieces reads O(m log N) over the whole run
        fan = Graph.from_edges(
            301,
            [(u, u + 1) for u in range(299)] + [(300, u) for u in range(300)],
        )
        for g in (path_graph(400), hex_chain(60), fan):
            counted, reads = counting_graph(g)
            run = wl_refine([counted])
            assert run.history == wl_refine([g]).history
            bound = 2 * g.edge_count * (math.ceil(math.log2(g.n)) + 3)
            assert sum(reads) <= bound


class TestSplitLog:
    """The run keeps a split log: rounds past stability cost nothing,
    `history` is built once on demand, and the blocks render from the log."""

    CASES = (
        [path_graph(12)],
        [hex_chain(3)],
        [cycle_graph(9), path_graph(9)],
        [Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)]),
         Graph.from_edges(0, [])],
    )

    def test_wl_reads_nothing_past_stable(self):
        for g in (path_graph(40), hex_chain(5)):
            stable = wl_refine([g]).stable_round
            counts = []
            for rounds in (stable + 1, stable + 1000):
                counted, reads = counting_graph(g)
                run = wl_refine([counted], rounds=rounds)
                assert (run.rounds, run.stable_round) == (rounds, stable)
                counts.append(sum(reads))
            assert counts[0] == counts[1]

    def test_wwl_stops_updating_at_stable(self, monkeypatch):
        calls = []
        real = wlmod._round

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(wlmod, "_round", counting)
        g = path_graph(12)
        stable = wwl_refine([g], 2).stable_round
        for rounds in (stable + 1, stable + 1000):
            calls.clear()
            run = wwl_refine([g], 2, rounds=rounds)
            assert (run.rounds, run.stable_round) == (rounds, stable)
            assert len(calls) == stable + 1
        assert run.history == naive_wwl([g], 2, rounds=stable + 1000)[0]

    def test_history_is_built_once(self):
        run = wl_refine([path_graph(9)])
        assert run.history is run.history
        run = wwl_refine([hex_chain(2)], 2, rounds=6)
        assert run.history is run.history

    @settings(max_examples=40, deadline=None)
    @given(st.lists(connected_graphs(1, 9), min_size=1, max_size=3),
           st.sampled_from(["uniform", "degree", "parity"]))
    @example([path_graph(12)], "uniform")
    @example([hex_chain(3)], "uniform")
    @example([cycle_graph(9), path_graph(9)], "uniform")
    @example([Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)]),
              Graph.from_edges(0, [])], "uniform")
    # long remainders: each round deletes the two path ends from one class
    @example([path_graph(300)], "uniform")
    # round 1 moves the path's ends out of the one class, node 4 among
    # them, the least node of the class's block in the second graph
    @example([cycle_graph(4), path_graph(4)], "uniform")
    @example([hex_chain(3), path_graph(6)], "parity")
    # rounds where a class loses dozens of nodes, and rounds rendering
    # more than wl._FEW_CLASSES classes followed by rounds rendering fewer
    @example([random_tree(150, 0)], "uniform")
    @example([random_tree(150, 0), path_graph(40)], "uniform")
    def test_blocks_json_renders_sorted_blocks(self, graphs, labels):
        init = None
        if labels == "degree":
            init = [g.degrees() for g in graphs]
        elif labels == "parity":
            init = [[u % 2 for u in range(g.n)] for g in graphs]
        refinements = (
            lambda rounds: wl_refine(graphs, rounds=rounds, init=init),
            lambda rounds: wwl_refine(graphs, 2, rounds=rounds, init=init),
        )
        for refine in refinements:
            stable = refine(None).stable_round
            # rounds past the stable round render its blocks again
            for rounds in (None, 0, 1, stable + 3):
                run = refine(rounds)
                assert list(run.blocks_json()) == [
                    (r, gi, json.dumps(run.partition(r, gi).sorted_blocks()))
                    for r in range(run.rounds + 1)
                    for gi in range(len(graphs))
                ]

    def test_stable_reads_build_no_history(self, monkeypatch):
        runs = [wl_refine(graphs) for graphs in self.CASES]
        runs += [wwl_refine(graphs, 2) for graphs in self.CASES]
        want = [
            [(Counter(run.history[run.stable_round][gi]),
              run.partition(run.stable_round, gi))
             for gi in range(len(run.graphs))]
            for run in runs
        ]

        def refuse(self):
            raise AssertionError("history was built")

        monkeypatch.setattr(RefinementRun, "_build_history", refuse)
        runs = [wl_refine(graphs) for graphs in self.CASES]
        runs += [wwl_refine(graphs, 2) for graphs in self.CASES]
        assert want == [
            [(run.stable_color_multiset(gi), run.stable_partition(gi))
             for gi in range(len(run.graphs))]
            for run in runs
        ]


class TestSharedUpdate:
    """`wl_refine` and `wwl_refine` run one split-driven round. At length
    3 walks visit a node twice before their end and pass through several
    nodes that moved in one round; each such walk is recolored once."""

    REVISITING = (complete_graph(4), complete_graph(5), star_graph(6),
                  fan_graph(9))

    @staticmethod
    def check(graphs, rounds=None, init=None):
        run = wwl_refine(graphs, 3, rounds=rounds, init=init)
        assert (run.history, run.stable_round) == naive_wwl(
            graphs, 3, rounds, init
        )

    # a length-3 walk changes color when a node two or three steps before
    # its owner moved, though the node next to the owner did not
    FAR_MOVES = (
        path_graph(12),
        Graph.from_edges(8, [(0, 2), (0, 6), (0, 7), (1, 3), (1, 5), (2, 3),
                             (3, 5), (4, 7), (6, 7)]),
    )

    def test_single_graphs(self):
        corpus = random_connected_corpus(12, seed=20, n_max=7)
        for g in [*corpus, *self.REVISITING, *self.FAR_MOVES, hex_chain(2)]:
            self.check([g])

    def test_joint_runs(self):
        corpus = random_connected_corpus(8, seed=21, n_max=6)
        for g, h in zip(corpus[::2], corpus[1::2]):
            self.check([g, h])
        self.check([complete_graph(4), complete_graph(5)])
        self.check([star_graph(6), fan_graph(9), path_graph(5)])
        self.check([TWO_TRIANGLES, cycle_graph(6)])
        scattered = Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)])
        self.check([scattered, Graph.from_edges(0, []), star_graph(4)])

    def test_init_labels(self):
        graphs = [*self.REVISITING, *random_connected_corpus(6, seed=22, n_max=7)]
        for g in graphs:
            parity = [u % 2 for u in range(g.n)]
            self.check([g], init=[g.degrees()])
            self.check([g], init=[parity])
            self.check([g, g], init=[parity, g.degrees()])

    def test_round_budgets(self):
        graphs = [*self.REVISITING, *random_connected_corpus(4, seed=23, n_max=7)]
        for g in graphs:
            for rounds in (0, 1, 2, 5):
                self.check([g], rounds=rounds)
                init = [g.degrees(), [1, 0, 0, 1, 1]]
                self.check([g, star_graph(5)], rounds=rounds, init=init)

    def test_nodes_move_at_most_log2_n_times(self):
        # the largest group keeps the class index, so a node that moves
        # lands in a class at most half the size of the one it left
        skewed = Graph.from_edges(7, [(0, 1), (0, 2), (0, 6), (1, 4), (1, 6),
                                      (2, 5), (3, 4), (3, 5), (5, 6)])
        graphs = [skewed, *random_connected_corpus(30, seed=24, n_max=12)]
        for g in graphs:
            for ell in (1, 2, 3):
                run = wwl_refine([g], ell)
                moves = Counter(
                    y for split in run.splits for _, nodes in split for y in nodes
                )
                assert max(moves.values(), default=0) <= int(math.log2(g.n))

    WORK_CASES = pytest.mark.parametrize(
        "graph, lengths",
        [
            (path_graph(400), (1, 2, 3)),
            (hex_chain(60), (1, 2, 3)),
            (fan_graph(300), (1, 2, 3)),
            (path_graph(2000), (3,)),
        ],
        ids=["path400", "hex60", "fan300", "path2000"],
    )

    @WORK_CASES
    def test_recolors_each_walk_once_per_move(self, monkeypatch, graph, lengths):
        # a walk is recolored in round 1 and then at most once per move of
        # one of its nodes before the end, and a node moves at most
        # floor(log2 N) times; a recoloring reads the classes along the
        # walk and, at most once per recolored walk, its owner's class
        reads = [0]

        class CountingList(list):
            def __getitem__(self, i):
                if isinstance(i, slice):
                    reads[0] += len(range(*i.indices(len(self))))
                else:
                    reads[0] += 1
                return list.__getitem__(self, i)

            def __iter__(self):
                reads[0] += len(self)
                return list.__iter__(self)

        real = wlmod._round

        def counting(adjacency, length, cls, members, moved):
            return real(adjacency, length, CountingList(cls), members, moved)

        monkeypatch.setattr(wlmod, "_round", counting)
        moves = int(math.log2(graph.n))
        # ends[u]: walks of the current length that end at u
        ends, bound = [1] * graph.n, 0
        for ell in range(1, max(lengths) + 1):
            ends = [sum(ends[v] for v in row) for row in graph.adjacency]
            # a length-ell walk has ell + 1 nodes, ell of them before its end
            bound += sum(ends) * (ell + 2) * (1 + ell * moves)
            if ell in lengths:
                reads[0] = 0
                assert wwl_refine([graph], ell).stable_round is not None
                assert 0 < reads[0] <= bound
            if ell == 1 and 1 in lengths:
                reads[0] = 0
                assert wl_refine([graph]).stable_round is not None
                assert 0 < reads[0] <= bound

    @WORK_CASES
    def test_pushes_each_walk_id_once_per_move(self, monkeypatch, graph, lengths):
        # the update's work is the walk ids it pushes to neighbors: a walk's
        # id is pushed in round 1 and then at most once per move of one of
        # its nodes before the end, and a node moves at most floor(log2 N)
        # times
        pushed = [0]
        real = wlmod._push

        def counting(adjacency, changed):
            received = real(adjacency, changed)
            pushed[0] += sum(map(len, received.values()))
            return received

        monkeypatch.setattr(wlmod, "_push", counting)
        moves = int(math.log2(graph.n))
        # ends[u]: walks of the current length that end at u
        ends, bound = [1] * graph.n, 0
        for ell in range(1, max(lengths) + 1):
            ends = [sum(ends[v] for v in row) for row in graph.adjacency]
            # a length-ell walk has ell nodes before its end
            bound += sum(ends) * (1 + ell * moves)
            if ell in lengths:
                pushed[0] = 0
                assert wwl_refine([graph], ell).stable_round is not None
                assert 0 < pushed[0] <= bound
            if ell == 1 and 1 in lengths:
                pushed[0] = 0
                assert wl_refine([graph]).stable_round is not None
                assert 0 < pushed[0] <= bound

    def test_classic_refinement_has_no_walk_guard(self, monkeypatch):
        # a hub past the guard stops the walk refinement at that node (by
        # its index within its own graph) but not 1-WL, which lists the
        # same length-1 walks
        monkeypatch.setattr(wlmod, "DEFAULT_WALK_GUARD", 5)
        graphs = [path_graph(4), star_graph(8)]
        with pytest.raises(
            RefinementGuardError, match="more than 5 terminating walks at node 0"
        ):
            wwl_refine(graphs, 1)
        assert wl_refine(graphs).history == naive_wl(graphs)[0]


class TestWalkGuard:
    """A refinement counts walks instead of listing them, and trips its
    guard before any round at the node where listing them would."""

    @staticmethod
    def listing_trip(graphs, length, guard):
        """The message `terminating_walks` raises first, graph by graph and
        node by node, or None."""
        for g in graphs:
            for u in range(g.n):
                try:
                    terminating_walks(g, u, length, guard)
                except RefinementGuardError as exc:
                    return str(exc)
        return None

    @staticmethod
    def counting_trip(graphs, length, monkeypatch, guard):
        monkeypatch.setattr(wlmod, "DEFAULT_WALK_GUARD", guard)
        try:
            wwl_refine(graphs, length)
        except RefinementGuardError as exc:
            return str(exc)
        return None

    GRAPH_LISTS = (
        [path_graph(2)],
        [Graph.from_edges(3, [])],
        [Graph.from_edges(5, [(3, 4)]), star_graph(5)],
        [Graph.from_edges(7, [(1, 2), (2, 3), (5, 6)])],
        [Graph.from_edges(0, []), fan_graph(6)],
        [disjoint_union(path_graph(2), path_graph(4)), complete_graph(4)],
        [cycle_graph(5), hex_chain(2)],
        *([g] for g in random_connected_corpus(12, seed=25, n_max=8)),
    )

    def test_trips_where_listing_would(self, monkeypatch):
        trips = 0
        for graphs in self.GRAPH_LISTS:
            for guard in (1, 3, 7, 20, 60):
                for length in range(1, 8):
                    want = self.listing_trip(graphs, length, guard)
                    got = self.counting_trip(graphs, length, monkeypatch, guard)
                    assert got == want, (graphs, length, guard)
                    trips += want is not None
        assert trips > 100

    def test_lengths_past_the_guard_trip_at_the_first_edge(self, monkeypatch):
        # every node on an edge ends at least one walk of each length, and
        # a node without one ends none
        for graphs in self.GRAPH_LISTS:
            first = next(
                (u for g in graphs for u in range(g.n) if g.adjacency[u]), None
            )
            for length in (61, 10**4, 10**30):
                got = self.counting_trip(graphs, length, monkeypatch, 60)
                if first is None:
                    assert got is None
                else:
                    assert got == f"more than 60 terminating walks at node {first}"

    def test_edgeless_graphs_take_any_length(self):
        graphs = [Graph.from_edges(3, []), Graph.from_edges(0, [])]
        for length in (10**8, 10**30):
            run = wwl_refine(graphs, length, init=[[0, 1, 0], []])
            assert (run.history, run.stable_round) == (
                naive_wwl(graphs, 1, init=[[0, 1, 0], []])
            )


class TestWalkMemory:
    """A run holds one round's pushed ids and one length's walks near the
    moved nodes, never a list of walks (peaks under tracemalloc)."""

    @staticmethod
    def traced_peak(refine):
        tracemalloc.start()
        try:
            result = refine()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fan_at_length_three(self):
        # 638,000 terminating walks, 92,000 of them at the hub
        g = fan_graph(300)
        run, peak = self.traced_peak(lambda: wwl_refine([g], 3))
        assert run.stable_round is not None
        assert peak < 20 * 2**20

    def test_long_walks_on_an_edge(self):
        # a two-node path ends one walk of every length at each node
        run, peak = self.traced_peak(lambda: wwl_refine([path_graph(2)], 1000))
        assert run.stable_round == 0
        assert peak < 2 * 2**20

    def test_length_ten_thousand_completes(self):
        # round 1 parts node 0 of the first graph, whose walks all start
        # or end at the other label, from the second graph's two nodes
        graphs = [path_graph(2), path_graph(2)]
        run = wwl_refine(graphs, 10**4, init=[[0, 1], [0, 0]])
        assert run.splits == (((0, (0,)),),) and run.stable_round == 1
        assert run.stable_color_multiset(0) != run.stable_color_multiset(1)


class TestTerminatingWalks:
    def test_length_two_at_path_middle(self):
        walks = terminating_walks(path_graph(3), 1, 2)
        level2 = [w for w in walks if len(w) == 3]
        assert sorted(level2) == [(1, 0, 1), (1, 2, 1)]

    def test_length_one_is_neighbor_set(self):
        g = cycle_graph(5)
        walks = terminating_walks(g, 0, 1)
        assert sorted(walks) == [(1, 0), (4, 0)]

    def test_cycle3_counts(self):
        # triangle: 2 length-1 walks end at each node, and 4 of length 2
        # (either neighbor, then either of its two neighbors)
        walks = terminating_walks(cycle_graph(3), 0, 2)
        assert sum(1 for w in walks if len(w) == 2) == 2
        assert sum(1 for w in walks if len(w) == 3) == 4

    def test_guard_exceeded(self):
        with pytest.raises(RefinementGuardError, match="terminating walks"):
            terminating_walks(complete_graph(8), 0, 4, guard=100)

    def test_guard_trips_before_building_the_level(self):
        # on K_{100,100}, 100 walks of length 1 and 10**4 of length 2 end
        # at node 0, and the 10**6 of length 3 would pass the default
        # guard: it trips on their count, reading no row for length 3
        g = Graph.from_edges(
            200, [(a, b) for a in range(100) for b in range(100, 200)]
        )
        counted, reads = counting_graph(g)
        with pytest.raises(
            RefinementGuardError,
            match="^more than 100000 terminating walks at node 0$",
        ):
            terminating_walks(counted, 0, 3)
        assert sum(reads) == 100 + 100 * 100

    def test_all_walks_end_at_target(self):
        for u in range(4):
            for w in terminating_walks(complete_graph(4), u, 3):
                assert w[-1] == u


class TestWalkRefinement:
    def test_length_one_matches_classic_round_for_round(self):
        for g in random_connected_corpus(25, seed=10, n_max=6):
            classic = wl_refine([g])
            walk = wwl_refine([g], 1)
            rounds = min(len(classic.history), len(walk.history))
            for r in range(rounds):
                assert classic.partition(r, 0) == walk.partition(r, 0)

    def test_classic_pair_still_indistinguishable(self):
        for ell in (1, 2, 3):
            run = wwl_refine([TWO_TRIANGLES, cycle_graph(6)], ell)
            assert run.stable_color_multiset(0) == run.stable_color_multiset(1)

    def test_path3_stable_partition_matches_classic(self):
        run = wwl_refine([path_graph(3)], 2)
        assert run.stable_partition(0).sorted_blocks() == [[0, 2], [1]]

    def test_time_monotonicity(self):
        for g in random_connected_corpus(20, seed=11, n_max=6):
            for run in (wl_refine([g]), wwl_refine([g], 2)):
                for r in range(len(run.history) - 1):
                    assert partition_refines(
                        run.partition(r, 0), run.partition(r + 1, 0)
                    )

    def test_length_monotonicity(self):
        for g in random_connected_corpus(15, seed=12, n_max=6):
            stables = {
                ell: wwl_refine([g], ell).stable_partition(0)
                for ell in (1, 2, 3)
            }
            assert partition_refines(stables[1], stables[2])
            assert partition_refines(stables[2], stables[3])
            assert partition_refines(stables[1], stables[3])

    def test_initialization_monotonicity(self):
        for g in random_connected_corpus(15, seed=13, n_max=6):
            uniform = wwl_refine([g], 2, rounds=3)
            finer = wwl_refine([g], 2, rounds=3, init=[g.degrees()])
            for r in range(4):
                assert partition_refines(
                    uniform.partition(r, 0), finer.partition(r, 0)
                )

    def test_init_shape_validated(self):
        with pytest.raises(ValueError, match="one label per node"):
            wwl_refine([path_graph(3)], 1, init=[[0, 1]])

    @pytest.mark.parametrize(
        "graphs, length, rounds, init, message",
        [
            ([], 0, -1, [[0]], "need at least one graph"),
            ([path_graph(3)], 0, -1, [[0]], "walk length must be >= 1"),
            ([Graph.from_edges(0, [])] * 2, 0, None, None,
             "walk length must be >= 1"),
            ([path_graph(3)], -2, None, None, "walk length must be >= 1"),
            ([path_graph(3)], 1, -1, [[0]], "rounds must be >= 0"),
            ([path_graph(3), path_graph(2)], 1, 2, [[0, 0, 0]],
             "one label per node"),
            ([path_graph(3)], 2, None, [[0, 1]], "one label per node"),
        ],
    )
    def test_inputs_rejected_before_any_walk(
        self, graphs, length, rounds, init, message
    ):
        counted = [counting_graph(g) for g in graphs]
        graphs = [g for g, _ in counted]
        refiners = [lambda: wwl_refine(graphs, length, rounds, init)]
        if length == 1:
            refiners.append(lambda: wl_refine(graphs, rounds, init))
        for refine in refiners:
            with pytest.raises(ValueError, match=message):
                refine()
        assert all(sum(reads) == 0 for _, reads in counted)

    def test_wl_fixed_point_of_wwl(self):
        # initializing the walk refinement at the stable classic coloring
        # must not split anything further
        for g in random_connected_corpus(10, seed=14, n_max=6):
            classic = wl_refine([g])
            stable = classic.history[classic.stable_round][0]
            run = wwl_refine([g], 3, rounds=1, init=[stable])
            assert run.partition(1, 0) == partition_of(stable)


def nested_preorder(g, u, depth):
    """The unfolding tree by its recursive definition, a root and one
    depth-(d-1) subtree per neighbor, as pre-order (label, depth) pairs."""
    yield u, depth
    if depth:
        for v in g.adjacency[u]:
            yield from nested_preorder(g, v, depth - 1)


def nested_leaf_paths(g, u, depth):
    """Leaf-to-root label paths of the recursive tree, leaves in pre-order."""
    if depth == 0:
        return [(u,)]
    return [
        path + (u,)
        for v in g.adjacency[u]
        for path in nested_leaf_paths(g, v, depth - 1)
    ]


class TestUnfoldingTrees:
    def test_depth_zero(self):
        t = unfolding_tree(cycle_graph(4), 2, 0)
        assert t.labels == (2,) and t.depths == (0,) and t.node_count == 1

    def test_path_middle_depth_one(self):
        # the root, then its two children, which are depth-0 leaves
        t = unfolding_tree(path_graph(3), 1, 1)
        assert t.labels[0] == 1 and sorted(t.labels[1:]) == [0, 2]
        assert t.depths == (1, 0, 0)

    def test_path_middle_depth_two(self):
        # each child of the root has the single child 1, a leaf
        t = unfolding_tree(path_graph(3), 1, 2)
        assert t.node_count == 5
        assert t.labels == (1, 0, 1, 2, 1) and t.depths == (2, 1, 0, 1, 0)

    def test_node_count_is_walk_count_plus_one(self):
        g = cycle_graph(5)
        for u in range(g.n):
            for depth in (1, 2, 3):
                t = unfolding_tree(g, u, depth)
                walks = terminating_walks(g, u, depth)
                assert t.node_count == len(walks) + 1

    def test_guard(self):
        with pytest.raises(RefinementGuardError, match="unfolding tree"):
            unfolding_tree(complete_graph(8), 0, 5, guard=50)

    def test_matches_the_recursive_definition(self):
        """Labels, depths, node count and leaf paths equal the recursive
        tree's; a guard of exactly the node count holds, and a guard k
        below it trips at pre-order node k, having read from each row only
        the entries of nodes 1..k."""
        graphs = all_labeled_connected_graphs_upto(5)
        graphs += tuple(random_connected_corpus(20, seed=3))
        cases = 0
        for g in graphs:
            counted, reads = counting_graph(g)
            for u in range(g.n):
                for depth in range(4):
                    nodes = list(nested_preorder(g, u, depth))
                    t = unfolding_tree(g, u, depth, guard=len(nodes))
                    assert list(zip(t.labels, t.depths)) == nodes
                    assert t.node_count == len(nodes)
                    assert leaf_paths(t) == nested_leaf_paths(g, u, depth)
                    k = len(nodes) // 2
                    want = [0] * g.n
                    # latest[d]: the label of the last node of depth d so
                    # far, the parent of a next node of depth d - 1
                    latest = [None] * (depth + 2)
                    for label, d in nodes[: k + 1]:
                        if latest[d + 1] is not None:
                            want[latest[d + 1]] += 1
                        latest[d] = label
                    reads[:] = [0] * g.n
                    with pytest.raises(
                        RefinementGuardError,
                        match=f"^unfolding tree exceeds {k} nodes$",
                    ):
                        unfolding_tree(counted, u, depth, guard=k)
                    assert reads == want, (g, u, depth)
                    cases += 1
        assert cases == 15_592

    def test_deep_tree_without_recursion(self):
        # 3001 nodes, far under the default guard, but deeper than a
        # recursive build, or a nested tree's `==`, `hash` or `repr`, can go
        t = unfolding_tree(path_graph(2), 0, 3000)
        same = unfolding_tree(path_graph(2), 0, 3000)
        assert t == same and hash(t) == hash(same) and repr(t) == repr(same)
        assert t != unfolding_tree(path_graph(2), 1, 3000)
        assert repr(t).startswith("UnfoldingTree(labels=(0, 1, 0, 1, ")
        assert t.node_count == 3001
        assert leaf_paths(t) == [tuple(i % 2 for i in range(3001))]
        with pytest.raises(RefinementGuardError, match="exceeds 3000 nodes$"):
            unfolding_tree(path_graph(2), 0, 3000, guard=3000)
        # an isolated root has no child to expand at any depth
        t = unfolding_tree(Graph.from_edges(1, ()), 0, 10**18)
        assert (t.labels, t.depths, t.node_count, leaf_paths(t)) == (
            (0,), (10**18,), 1, []
        )


class TestLeafPaths:
    def test_depth_two_matches_terminating_walks(self):
        g = path_graph(3)
        t = unfolding_tree(g, 1, 2)
        assert sorted(leaf_paths(t)) == [(1, 0, 1), (1, 2, 1)]

    def test_depth_one_is_neighbor_pairs(self):
        g = cycle_graph(4)
        t = unfolding_tree(g, 0, 1)
        assert sorted(leaf_paths(t)) == [(1, 0), (3, 0)]

    def test_depth_zero_is_root_only(self):
        t = unfolding_tree(cycle_graph(4), 3, 0)
        assert leaf_paths(t) == [(3,)]

    @settings(max_examples=30)
    @given(connected_graphs(min_n=2, max_n=6))
    def test_bijection_with_walks(self, g):
        for u in range(g.n):
            for depth in (1, 2, 3):
                paths = leaf_paths(unfolding_tree(g, u, depth))
                walks = [
                    w
                    for w in terminating_walks(g, u, depth)
                    if len(w) == depth + 1
                ]
                assert Counter(paths) == Counter(walks)


class TestDistinguish:
    def test_path_vs_triangle(self):
        v = distinguish(path_graph(3), cycle_graph(3), test="wl")
        assert v == DistinguishVerdict("wl", "distinguished", v.rounds_to_stable)
        assert v.result == "distinguished"

    def test_classic_blind_spot(self):
        for test, ell in (("wl", None), ("wwl", 1), ("wwl", 2), ("wwl", 3)):
            v = distinguish(TWO_TRIANGLES, cycle_graph(6), test=test, length=ell)
            assert v.result == "inconclusive"

    def test_isomorphic_graphs_inconclusive(self):
        g = complete_graph(4)
        h = relabel(g, [3, 1, 0, 2])
        assert distinguish(g, h, test="wl").result == "inconclusive"
        assert distinguish(g, h, test="wwl", length=2).result == "inconclusive"

    def test_wwl_requires_length(self):
        with pytest.raises(ValueError, match="length"):
            distinguish(path_graph(3), cycle_graph(3), test="wwl")

    def test_agreement_on_exhaustive_small_classes(self):
        reps = [g for g in all_labeled_connected_graphs_upto(4) if g.n >= 2]
        for i, g in enumerate(reps):
            for h in reps[i + 1 :]:
                if g.n != h.n:
                    continue
                wl_verdict = distinguish(g, h, test="wl").result
                for ell in (1, 2):
                    assert (
                        distinguish(g, h, test="wwl", length=ell).result
                        == wl_verdict
                    )
