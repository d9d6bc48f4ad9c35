import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksearch.encodings import (
    adjacency_encoding,
    anonymous_encoding,
    anonymous_tags,
    identity_encoding,
)
from walksearch.graphs import (
    complete_graph,
    hex_chain,
    path_graph,
    relabel,
    star_graph,
)
from walksearch.samplers import (
    derive_rng,
    enumerate_dfs,
    sample_dfs,
    sample_walk,
)

from .corpus import all_labeled_connected_graphs_upto, counting_graph
from .strategies import connected_graphs, graphs_with_permutation


def window_scan_adjacency(g, nodes, s):
    """Reference fill: test every windowed pair of positions."""
    nbr = g.neighbor_sets()
    rows = [[0] * (s - 1) for _ in nodes]
    for i in range(1, len(nodes)):
        for j in range(1, min(s - 1, i) + 1):
            if nodes[i - j] in nbr[nodes[i]]:
                rows[i][j - 1] = 1
    return rows


class TestIdentityEncoding:
    def test_repetition_window(self):
        mat = identity_encoding((0, 1, 0), 3)
        assert mat.tolist() == [[0, 0, 0], [1, 0, 0], [1, 0, 1]]

    def test_row_zero_all_zeros(self):
        mat = identity_encoding((4, 4, 4, 4), 4)
        assert mat.tolist()[0] == [0, 0, 0, 0]

    def test_distinct_nodes_only_self_column(self):
        mat = identity_encoding((0, 1, 2, 3), 4)
        rows = mat.tolist()
        assert [row[0] for row in rows] == [0, 1, 1, 1]
        assert not any(any(row[1:]) for row in rows)

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            identity_encoding((0, 1), 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty sequence"):
            identity_encoding((), 3)


class TestAdjacencyEncoding:
    def test_dfs_sequence_on_path(self):
        g = path_graph(3)
        mat = adjacency_encoding(g, (0, 1, 2), 3)
        # (1,0) and (2,1) are edges; (2,0) is not
        assert mat.tolist() == [[0, 0], [1, 0], [1, 0]]

    def test_consecutive_but_disconnected_flagged(self):
        g = path_graph(3)
        mat = adjacency_encoding(g, (0, 2), 2)
        assert mat.tolist() == [[0], [0]]

    def test_complete_graph_all_ones_in_range(self):
        g = complete_graph(4)
        mat = adjacency_encoding(g, (0, 1, 2, 3), 4)
        for i in range(4):
            for j in range(1, 4):
                expected = 1 if i - j >= 0 else 0
                assert mat[i, j - 1] == expected

    def test_shape_law(self):
        g = path_graph(4)
        w = sample_walk(g, 5, random.Random(0))
        s = 3
        ident = identity_encoding(w, s)
        adj = adjacency_encoding(g, w.nodes, s)
        assert ident.shape == (6, s)
        assert adj.shape == (6, s - 1)
        assert ident.shape[1] + adj.shape[1] == 2 * s - 1

    def test_window_lower_bound(self):
        with pytest.raises(ValueError):
            adjacency_encoding(path_graph(2), (0, 1), 1)

    def test_node_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            adjacency_encoding(path_graph(2), (0, 5), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty sequence"):
            adjacency_encoding(path_graph(2), (), 3)

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_walk_first_column_all_ones(self, g):
        w = sample_walk(g, 10, random.Random(5))
        mat = adjacency_encoding(g, w.nodes, 4)
        assert all(row[0] for row in mat.tolist()[1:])

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_search_first_column_zero_exactly_at_backjumps(self, g):
        rec = sample_dfs(g, random.Random(5))
        mat = adjacency_encoding(g, rec.visit_order, 3)
        for i in range(1, g.n):
            adjacent = g.has_edge(rec.visit_order[i], rec.visit_order[i - 1])
            assert bool(mat[i, 0]) == adjacent

    def test_matches_window_scan_on_searches_and_walks(self):
        # searches visit each node once; walks of 2n steps revisit nodes
        for idx, g in enumerate(all_labeled_connected_graphs_upto(5)):
            seqs = [sample_dfs(g, derive_rng(idx, "search")).visit_order]
            if g.n >= 2:
                walk = sample_walk(g, 2 * g.n, derive_rng(idx, "walk"))
                seqs.append(walk.nodes)
            for nodes in seqs:
                for s in range(2, len(nodes) + 3):
                    mat = adjacency_encoding(g, nodes, s)
                    assert mat.tolist() == window_scan_adjacency(g, nodes, s)

    @pytest.mark.parametrize(
        "g",
        [star_graph(60), complete_graph(20), hex_chain(4)],
        ids=["star60", "K20", "hex4"],
    )
    def test_row_reads_at_most_min_degree_window(self, g):
        # a high-degree node in a small window is scanned, not looked up;
        # a walk on a star comes back to the hub every other step
        counted, reads = counting_graph(g)
        seqs = [
            sample_dfs(g, derive_rng(1, "search")).visit_order,
            sample_walk(g, 3 * g.n, derive_rng(1, "walk")).nodes,
        ]
        for nodes in seqs:
            for s in (2, 3, 10, len(nodes) + 1):
                reads[:] = [0] * g.n
                mat = adjacency_encoding(counted, nodes, s)
                assert mat.tolist() == window_scan_adjacency(g, nodes, s)
                bound = 2 * g.edge_count + sum(
                    min(g.degree(w), s - 1, i) for i, w in enumerate(nodes)
                )
                assert sum(reads) <= bound

class TestAnonymousEncoding:
    def test_basic_relabeling(self):
        assert anonymous_encoding((7, 8, 7, 9)).labels == (1, 2, 1, 3)

    def test_single_node_repeated(self):
        assert anonymous_encoding((3, 3, 3)).labels == (1, 1, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            anonymous_encoding(())

    def test_labels_form_prefix_in_first_appearance_order(self):
        labels = anonymous_encoding((5, 1, 5, 2, 1, 0)).labels
        assert labels == (1, 2, 1, 3, 2, 4)
        firsts = []
        for lab in labels:
            if lab not in firsts:
                firsts.append(lab)
        assert firsts == sorted(firsts)

    @settings(max_examples=80)
    @given(graphs_with_permutation(min_n=2, max_n=7), st.integers(0, 10**6))
    def test_invariant_under_relabeling(self, gp, seed):
        g, perm = gp
        w = sample_walk(g, 8, random.Random(seed))
        mapped = tuple(perm[v] for v in w.nodes)
        assert anonymous_encoding(w.nodes) == anonymous_encoding(mapped)


class TestAnonymousTags:
    def test_definition(self):
        rec = sample_dfs(path_graph(3), random.Random(0), root=1)
        tags = anonymous_tags(rec)
        assert tags.tags == {
            rec.visit_order[0]: 1,
            rec.visit_order[1]: 2,
            rec.visit_order[2]: 3,
        }

    def test_identity_visit_order(self):
        rec = sample_dfs(path_graph(4), random.Random(0), root=0)
        assert rec.visit_order == (0, 1, 2, 3)
        tags = anonymous_tags(rec)
        assert all(tags.tags[v] == v + 1 for v in range(4))

    def test_apply_to_other_sequences(self):
        rec = sample_dfs(path_graph(3), random.Random(0), root=2)
        tags = anonymous_tags(rec)
        assert tags.apply(rec) == (1, 2, 3)

    def test_tag_distribution_pushes_forward_exactly(self):
        # tag-tuple law of a relabeled graph equals the pushforward of the
        # original law, via exact enumeration
        g = path_graph(4)
        perm = [2, 0, 3, 1]
        h = relabel(g, perm)

        def tag_law(graph):
            law = Counter()
            for o in enumerate_dfs(graph):
                tags = anonymous_tags(o.record).tags
                key = tuple(tags[v] for v in range(graph.n))
                law[key] += o.probability
            return law

        g_law = tag_law(g)
        # node v of g becomes perm[v] of h: tag vector permutes accordingly
        pushed = Counter()
        for key, p in g_law.items():
            inverse = [0] * len(perm)
            for v, pv in enumerate(perm):
                inverse[pv] = v
            pushed[tuple(key[inverse[w]] for w in range(h.n))] += p
        assert pushed == tag_law(h)
        assert sum(pushed.values()) == Fraction(1)


class TestByteMatrices:
    @pytest.mark.parametrize("s", [1, 2, 4])
    def test_identity_is_read_only_byte_view(self, s):
        mat = identity_encoding((0, 1, 0, 2, 1), s)
        assert isinstance(mat, memoryview)
        assert mat.readonly
        assert mat.format == "b"
        assert mat.shape == (5, s)
        with pytest.raises(TypeError):
            mat[1, 0] = 0

    @pytest.mark.parametrize("s", [2, 3, 6])
    def test_adjacency_is_read_only_byte_view(self, s):
        g = path_graph(4)
        mat = adjacency_encoding(g, (0, 1, 2, 3, 2), s)
        assert isinstance(mat, memoryview)
        assert mat.readonly
        assert mat.format == "b"
        assert mat.shape == (5, s - 1)
        with pytest.raises(TypeError):
            mat[1, 0] = 0

    def test_cells_are_row_major_bytes(self):
        mat = adjacency_encoding(path_graph(3), (0, 1, 2), 3)
        assert mat.tobytes() == bytes([0, 0, 1, 0, 1, 0])
        assert mat == adjacency_encoding(path_graph(3), (0, 1, 2), 3)
