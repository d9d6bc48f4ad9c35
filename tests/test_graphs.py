import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksearch import graphs
from walksearch.graphs import (
    ER_MAX_RETRIES,
    FAMILIES,
    Graph,
    GraphParseError,
    complete_graph,
    cycle_graph,
    degree_stats,
    disjoint_union,
    er_connected,
    gen_family,
    hex_chain,
    inverse_permutation,
    load_edge_list,
    path_graph,
    random_tree,
    relabel,
    save_edge_list,
    star_graph,
)

from .strategies import connected_graphs, graphs_with_permutation


class TestEdgeListParsing:
    def test_path_from_text(self):
        g = load_edge_list("0 1\n1 2")
        assert g.n == 3 and g.edge_count == 2
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_duplicate_orientations_merge(self):
        g = load_edge_list("0 1\n1 0")
        assert g.n == 2 and g.edge_count == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            load_edge_list("0 0")

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_edge_list("0 1\n0 1 2")

    def test_non_integer_rejected(self):
        with pytest.raises(GraphParseError, match="non-integer"):
            load_edge_list("a b")

    def test_header_declares_isolated_nodes(self):
        g = load_edge_list("# n=5\n0 1")
        assert g.n == 5 and g.degree(4) == 0

    def test_header_too_small(self):
        with pytest.raises(GraphParseError, match="smaller than largest"):
            load_edge_list("# n=2\n0 5")

    def test_node_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_FILE_NODES", 5)
        assert load_edge_list("# n=5\n0 1").n == 5
        assert load_edge_list("0 4").n == 5
        for text in ("# n=6\n0 1", "0 5", "# n=6"):
            with pytest.raises(GraphParseError, match="n=6 exceeds the graph-file cap of 5"):
                load_edge_list(text)

    def test_comments_and_blank_lines_skipped(self):
        g = load_edge_list("# a comment\n\n0 1\n")
        assert g.edge_count == 1

    @settings(max_examples=60)
    @given(connected_graphs(min_n=1, max_n=8))
    def test_save_load_roundtrip(self, g):
        assert load_edge_list(save_edge_list(g)) == g

    @settings(max_examples=60)
    @given(connected_graphs(min_n=1, max_n=12))
    def test_writer_emits_sorted_edges(self, g):
        # the writer walks the sorted rows; the pairs must come out as a
        # sort of the edge set would give them
        lines = [f"# n={g.n}"] + [f"{u} {v}" for u, v in sorted(g.edges())]
        assert save_edge_list(g) == "\n".join(lines) + "\n"


class TestConstruction:
    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (2, 2), (0, 5)], "self-loop"),
            ([(0, 1), (0, 5), (2, 2)], "out of range"),
            ([(1, 0), (3, 3)], "self-loop"),
            ([(-1, 0), (1, 1)], "out of range"),
        ],
    )
    def test_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_edges(3, edges)

    @settings(max_examples=60)
    @given(connected_graphs(min_n=2, max_n=10), st.randoms(use_true_random=False))
    def test_repeated_edges_merge(self, g, rnd):
        # every edge once more, in either orientation, in any order
        edges = sorted(g.edges()) * 2
        rnd.shuffle(edges)
        h = Graph.from_edges(g.n, [e[::-1] if rnd.random() < 0.5 else e for e in edges])
        assert h == g
        h.validate()

    def test_has_edge_takes_only_node_ids(self):
        # a negative id would otherwise read a row from the end of the list
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(2, 1)
        assert not g.has_edge(0, 2)
        for u, v in ((-1, 1), (1, -1), (-2, -1), (0, 3), (3, 2), (0, 9)):
            assert not g.has_edge(u, v)
        assert not Graph.from_edges(0, []).has_edge(0, 0)

    def test_edge_count_matches_half_degree_sum(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 0)])
        assert g.edge_count == 4
        assert sum(g.degrees()) == 2 * g.edge_count
        g.validate()


class TestGenerators:
    def test_cycle6(self):
        g = cycle_graph(6)
        assert g.n == 6 and g.edge_count == 6
        assert all(d == 2 for d in g.degrees())

    def test_hex_chain_single_unit(self):
        g = hex_chain(1)
        assert g.n == 7 and g.edge_count == 7
        assert sorted(g.degrees(), reverse=True) == [3, 2, 2, 2, 2, 2, 1]

    def test_hex_chain_is_connected_with_pendants(self):
        # k units: 7k nodes, 6k cycle edges + k pendants + k-1 bridges
        for k in (1, 2, 3, 4):
            g = hex_chain(k)
            assert g.n == 7 * k
            assert g.edge_count == 8 * k - 1
            assert g.is_connected()
            assert degree_stats(g).d_max == 3
            assert g.degrees().count(1) == k

    def test_er_deterministic_given_seed(self):
        a = er_connected(20, 2.5, seed=7)
        b = er_connected(20, 2.5, seed=7)
        assert a == b

    def test_er_is_connected(self):
        for seed in range(5):
            assert er_connected(16, 3.0, seed=seed).is_connected()

    @pytest.mark.parametrize("avg_deg", [math.nan, math.inf, -1.0, 0.0])
    def test_er_rejects_degree_before_sampling(self, monkeypatch, avg_deg):
        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(random, "Random", no_sampling)
        with pytest.raises(ValueError, match="avg_deg must be finite and > 0"):
            er_connected(200, avg_deg, 1)

    def test_er_retry_cap_is_exposed(self):
        assert ER_MAX_RETRIES == 1000

    def test_star_and_complete(self):
        assert star_graph(4).degrees() == [3, 1, 1, 1]
        k4 = complete_graph(4)
        assert k4.edge_count == 6
        assert all(d == 3 for d in k4.degrees())

    def test_random_tree_properties(self):
        for seed in range(8):
            t = random_tree(9, seed=seed)
            assert t.edge_count == t.n - 1
            assert t.is_connected()

    def test_random_tree_on_two_nodes_is_the_edge(self):
        # an empty Pruefer sequence decodes to the edge (0, 1)
        for seed in range(8):
            assert random_tree(2, seed) == path_graph(2)

    def test_too_small_families_error(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            star_graph(1)
        with pytest.raises(ValueError):
            hex_chain(0)

    def test_gen_family_dispatch(self):
        assert gen_family("path", n=3) == path_graph(3)
        assert gen_family("hex_chain", k=2) == hex_chain(2)
        values = {"n": 9, "avg_deg": 3.0, "seed": 5, "k": 2}
        for family, (generator, names) in FAMILIES.items():
            params = {name: values[name] for name in names}
            assert gen_family(family, **params) == generator(**params)
        with pytest.raises(ValueError, match="unknown family") as err:
            gen_family("petersen", n=10)
        assert str(err.value).endswith(f"choose from {tuple(FAMILIES)}")

    @pytest.mark.parametrize(
        "family, params, missing",
        [("path", {}, "'n'"), ("random_tree", {"k": 3}, "'n'"),
         ("er_connected", {"n": 10}, "'avg_deg'"), ("hex_chain", {"n": 3}, "'k'")],
    )
    def test_gen_family_names_a_missing_parameter(self, family, params, missing):
        with pytest.raises(ValueError, match=missing):
            gen_family(family, seed=1, **params)

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_generated_invariants_hold(self, g):
        g.validate()
        assert g.is_connected()


class TestDegreeStats:
    def test_star5_hub(self):
        assert degree_stats(star_graph(5)).d_max == 4

    def test_cycle6_sparsity(self):
        st_ = degree_stats(cycle_graph(6))
        assert st_.d_max == 2 and st_.sparsity_c == 1.0

    def test_hex_chain_unit(self):
        st_ = degree_stats(hex_chain(1))
        assert st_.d_max == 3 and st_.sparsity_c == 1.0
        assert st_.avg_deg == 2.0


class TestRelabel:
    def test_identity(self):
        g = path_graph(3)
        assert relabel(g, [0, 1, 2]) == g

    def test_reversal_keeps_degree_sequence(self):
        g = path_graph(3)
        h = relabel(g, [2, 1, 0])
        assert sorted(h.degrees()) == sorted(g.degrees())
        assert h.edges() == frozenset({(1, 2), (0, 1)})

    def test_non_bijective_rejected(self):
        with pytest.raises(ValueError, match="not a permutation"):
            relabel(path_graph(3), [0, 0, 2])

    @settings(max_examples=60)
    @given(graphs_with_permutation())
    def test_relabel_preserves_structure_and_inverts(self, gp):
        g, perm = gp
        h = relabel(g, perm)
        assert sorted(h.degrees()) == sorted(g.degrees())
        assert h.edge_count == g.edge_count
        assert relabel(h, inverse_permutation(perm)) == g


class TestDisjointUnion:
    def test_two_triangles(self):
        u = disjoint_union(cycle_graph(3), cycle_graph(3))
        assert u.n == 6 and u.edge_count == 6
        assert not u.is_connected()

    def test_empty_identity(self):
        g = path_graph(2)
        empty = Graph.from_edges(0, ())
        assert disjoint_union(g, empty) == g

    def test_degree_sequence_of_two_paths(self):
        u = disjoint_union(path_graph(2), path_graph(2))
        assert sorted(u.degrees()) == [1, 1, 1, 1]
