import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksearch.coverage import sample_bound_m
from walksearch.encodings import adjacency_encoding
from walksearch.graphs import (
    complete_graph,
    cycle_graph,
    degree_stats,
    hex_chain,
    random_tree,
    star_graph,
)
from walksearch.reconstruct import (
    reconstruct_from_searches,
    verify_reconstruction,
)
from walksearch.samplers import sample_set

from .strategies import connected_graphs


def per_cell_decode(seqs, encodings, s):
    """Reference decode: read every in-window cell, one at a time."""
    recovered = set()
    for seq, enc in zip(seqs, encodings):
        seq = tuple(seq)
        for i in range(1, len(seq)):
            for j in range(1, min(s - 1, i) + 1):
                if enc[i, j - 1]:
                    a, b = seq[i], seq[i - j]
                    recovered.add((a, b) if a < b else (b, a))
    return frozenset(recovered)


def byte_view(cells, rows, cols):
    return memoryview(bytearray(cells)).cast("b", (rows, cols)).toreadonly()


class TestSingleSearchWindows:
    def test_star_full_window_exact(self):
        g = star_graph(4)
        rep = verify_reconstruction(g, sample_set(g, "searches", 1, seed=0), g.n + 1)
        assert rep.exact and not rep.missing and not rep.spurious

    def test_cycle6_full_window_sees_back_edge(self):
        # the one non-tree edge is revealed through the window even though
        # a single tree union misses it
        g = cycle_graph(6)
        ss = sample_set(g, "searches", 1, seed=3)
        assert len(ss.items[0].tree_edges) == 5
        rep = verify_reconstruction(g, ss, g.n + 1)
        assert rep.exact
        assert rep.recovered_edges == g.edges()

    def test_cycle6_window_two_misses(self):
        g = cycle_graph(6)
        rep = verify_reconstruction(g, sample_set(g, "searches", 1, seed=3), 2)
        assert not rep.exact
        assert len(rep.missing) >= 1
        assert not rep.spurious

    def test_complete5_dense_case(self):
        g = complete_graph(5)
        rep = verify_reconstruction(g, sample_set(g, "searches", 1, seed=1), g.n + 1)
        assert rep.exact

    def test_any_tree_single_search(self):
        for seed in range(4):
            t = random_tree(8, seed=seed)
            rep = verify_reconstruction(
                t, sample_set(t, "searches", 1, seed=seed), t.n + 1
            )
            assert rep.exact


class TestDecodeOracle:
    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8), st.integers(0, 10**6))
    def test_matches_per_cell_decode(self, g, seed):
        for m in range(1, 4):
            ss = sample_set(g, "searches", m, seed=seed)
            seqs = [rec.visit_order for rec in ss.items]
            for s in range(2, g.n + 2):
                encs = [adjacency_encoding(g, seq, s) for seq in seqs]
                assert reconstruct_from_searches(
                    seqs, encs, s, n=g.n
                ) == per_cell_decode(seqs, encs, s)

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_per_cell_decode_on_arbitrary_cells(self, data):
        rows = data.draw(st.integers(1, 8))
        s = data.draw(st.integers(2, 10))
        seq = data.draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows))
        cells = data.draw(st.lists(
            st.integers(0, 1), min_size=rows * (s - 1), max_size=rows * (s - 1)
        ))
        enc = byte_view(cells, rows, s - 1)
        assert reconstruct_from_searches([seq], [enc], s, 6) == per_cell_decode(
            [seq], [enc], s
        )

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_per_cell_decode_on_views_of_other_buffers(self, data):
        # a view of a whole `bytes` is scanned in place; a view cut from a
        # larger buffer must be copied, or its cells would be misplaced
        rows = data.draw(st.integers(1, 6))
        s = data.draw(st.integers(2, 8))
        seq = data.draw(st.lists(st.integers(0, 5), min_size=rows, max_size=rows))
        size = rows * (s - 1)
        cells = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        before = data.draw(st.lists(st.integers(0, 1), max_size=5))
        after = data.draw(st.lists(st.integers(0, 1), max_size=5))
        whole = bytes(cells)
        cut = bytearray(before + cells + after)
        for enc in (
            memoryview(whole).cast("b", (rows, s - 1)),
            memoryview(cut)[len(before):len(before) + size].cast("b", (rows, s - 1)),
        ):
            assert reconstruct_from_searches([seq], [enc], s, 6) == per_cell_decode(
                [seq], [enc], s
            )

    def test_cells_before_the_sequence_start_are_ignored(self):
        # cell [i, col] names seq[i - col - 1]; with col >= i that lies
        # before position 0, so the cell names no pair
        seq = (0, 1, 2)
        enc = byte_view([1, 1, 1,
                         0, 1, 1,
                         1, 1, 1], 3, 3)
        assert reconstruct_from_searches([seq], [enc], 4, 3) == {(1, 2), (0, 2)}


class TestReportAndErrors:
    def test_report_json_fields(self):
        g = cycle_graph(5)
        rep = verify_reconstruction(g, sample_set(g, "searches", 2, seed=0), 3)
        payload = rep.to_dict(g.n, 2, 3)
        assert set(payload) == {
            "n",
            "m",
            "s",
            "missing_count",
            "spurious_count",
            "exact",
        }

    def test_shape_mismatch(self):
        g = cycle_graph(5)
        seq = sample_set(g, "searches", 1, seed=0).items[0].visit_order
        enc = adjacency_encoding(g, seq, 4)
        with pytest.raises(ValueError, match="shape"):
            reconstruct_from_searches([seq], [enc], 5, g.n)

    def test_node_id_out_of_range(self):
        g = cycle_graph(5)
        seq = (0, 1, 2, 3, 9)
        enc = adjacency_encoding(cycle_graph(10), seq, 3)
        with pytest.raises(ValueError, match="out of range"):
            reconstruct_from_searches([seq], [enc], 3, n=5)

    @pytest.mark.parametrize("s", [16, 10**14, 10**30])
    def test_window_past_n_plus_one_is_clamped(self, s):
        g = hex_chain(2)  # n = 14
        ss = sample_set(g, "searches", 3, seed=4)
        assert verify_reconstruction(g, ss, s) == verify_reconstruction(
            g, ss, g.n + 1
        )

    def test_peak_memory_holds_one_encoding(self):
        # each encoding (n * n cells at s = n + 1) is decoded before the
        # next is built, so the peak does not grow with m
        g = hex_chain(100)
        peaks = {}
        for m in (1, 8):
            sset = sample_set(g, "searches", m, seed=4)
            tracemalloc.start()
            try:
                verify_reconstruction(g, sset, g.n + 1)
                peaks[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 2 * peaks[1]

    def test_decode_reads_the_encoding_in_place(self):
        # at s = n + 1 one encoding is n * n bytes; a decode that copied it
        # would hold it twice
        g = hex_chain(300)
        sset = sample_set(g, "searches", 1, seed=4)
        tracemalloc.start()
        try:
            verify_reconstruction(g, sset, g.n + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * g.n * g.n

    def test_walk_sets_rejected(self):
        g = cycle_graph(5)
        ss = sample_set(g, "walks", 1, seed=0, length=4)
        with pytest.raises(ValueError, match="search"):
            verify_reconstruction(g, ss, 3)


class TestRecoveryProperties:
    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8), st.integers(1, 4))
    def test_never_spurious(self, g, m):
        rep = verify_reconstruction(g, sample_set(g, "searches", m, seed=5), 4)
        assert rep.recovered_edges <= g.edges()
        assert not rep.spurious

    @settings(max_examples=25)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_monotone_in_window(self, g):
        ss = sample_set(g, "searches", 2, seed=8)
        previous = frozenset()
        for s in range(2, g.n + 2):
            recovered = verify_reconstruction(g, ss, s).recovered_edges
            assert previous <= recovered
            previous = recovered

    @settings(max_examples=25)
    @given(connected_graphs(min_n=2, max_n=7))
    def test_monotone_in_m(self, g):
        full = sample_set(g, "searches", 4, seed=9)
        previous = frozenset()
        for m in range(1, 5):
            prefix = sample_set(g, "searches", m, seed=9)
            assert [r.visit_order for r in prefix.items] == [
                r.visit_order for r in full.items[:m]
            ]
            recovered = verify_reconstruction(g, prefix, 3).recovered_edges
            assert previous <= recovered
            previous = recovered

    @settings(max_examples=30)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_full_window_single_search_recovers_everything(self, g):
        rep = verify_reconstruction(g, sample_set(g, "searches", 1, seed=2), g.n + 1)
        assert rep.exact

    def test_hex_chain_bound_m_usually_exact_even_with_tree_window(self):
        # window s = n+1 makes a single search exact, so use the edge-count
        # bound with the tree-union mechanism: m searches, window 2 only
        # reveals consecutive pairs, so coverage comes from tree unions
        g = hex_chain(2)
        stats = degree_stats(g)
        m = sample_bound_m(stats.sparsity_c, g.n, stats.d_max, 0.05)
        exact = 0
        trials = 300
        for t in range(trials):
            rep = verify_reconstruction(
                g, sample_set(g, "searches", m, seed=1000 + t), g.n + 1
            )
            exact += rep.exact
        assert exact / trials >= 0.95
