import itertools
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksearch import graphs
from walksearch.graphs import (
    ER_MAX_RETRIES,
    FAMILIES,
    MAX_FILE_NODES,
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
    random_permutation,
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


_REF_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def reference_load_edge_list(text: str) -> Graph:
    """The line parser that read every graph file before the bulk path:
    `load_edge_list` must give an equal graph or the same error."""
    declared_n = None
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _REF_HEADER_RE.match(line)
            if m:
                try:
                    declared_n = int(m.group(1))
                except ValueError:
                    raise GraphParseError(
                        f"line {lineno}: declared n exceeds the graph-file cap"
                        f" of {graphs.MAX_FILE_NODES} nodes"
                    ) from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(
                f"line {lineno}: expected 'u v', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: non-integer node id in {line!r}"
            ) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u} {v}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise GraphParseError(
            f"declared n={n} is smaller than largest node id {max_id}"
        )
    if n > graphs.MAX_FILE_NODES:
        raise GraphParseError(
            f"n={n} exceeds the graph-file cap of {graphs.MAX_FILE_NODES} nodes"
        )
    return Graph.from_edges(n, edges)


def parse_outcome(parse, text):
    """The graph `parse` returns, or the type and message of its error."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# digits int() reads (Arabic-Indic three, fullwidth three) and one that
# str.isdigit accepts but int() refuses (superscript two)
ODD_DIGITS = ("\u0663", "\uff13", "\u00b2")

# ways a hand-written file may differ from the writer's text
TEXT_CHANGES = ("shuffle", "reverse", "duplicate", "comment", "blank",
                "second_header", "no_header", "spaces", "token", "self_loop",
                "large_id", "crlf", "no_final_newline")


def _changed_token(draw, tok: str) -> str:
    kind = draw(st.sampled_from(("plus", "underscore", "zeros", "odd", "bad")))
    if kind == "plus":
        return "+" + tok
    if kind == "underscore":
        return tok[0] + "_" + tok[1:] if len(tok) > 1 else tok + "_0"
    if kind == "zeros":
        return "0" * draw(st.integers(1, 3)) + tok
    if kind == "odd":
        return draw(st.sampled_from(("", tok))) + draw(st.sampled_from(ODD_DIGITS))
    return draw(st.sampled_from(("x", "-1", "1.5", "", "0x1", tok + " " + tok)))


@st.composite
def edge_list_texts(draw) -> str:
    """The writer's text for a small graph, changed in up to three of the
    `TEXT_CHANGES` ways (in none, it is the writer's text as is)."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = save_edge_list(Graph.from_edges(n, edges)).split("\n")[:-1]
    changes = draw(st.lists(st.sampled_from(TEXT_CHANGES), max_size=3))
    for change in changes:
        at = draw(st.integers(0, len(lines)))
        i = min(at, len(lines) - 1)  # a line to edit, when there is one
        if change == "shuffle":
            lines = list(draw(st.permutations(lines)))
        elif change == "reverse" and lines:
            lines[i] = " ".join(reversed(lines[i].split(" ")))
        elif change == "duplicate" and lines:
            lines.insert(at, lines[i])
        elif change == "comment":
            lines.insert(at, "# a comment")
        elif change == "blank":
            lines.insert(at, draw(st.sampled_from(("", "  ", "\t"))))
        elif change == "second_header":
            lines.insert(at, f"# n={draw(st.integers(0, 9))}")
        elif change == "no_header" and lines and lines[0].startswith("# n="):
            del lines[0]
        elif change == "spaces" and lines:
            line = lines[i]
            lines[i] = draw(st.sampled_from(
                (line + " ", " " + line, line + "\t", line.replace(" ", "  ", 1))
            ))
        elif change == "token" and lines:
            tokens = lines[i].split(" ")
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[j] = _changed_token(draw, tokens[j])
            lines[i] = " ".join(tokens)
        elif change == "self_loop":
            u = draw(st.integers(0, n))
            lines.insert(at, f"{u} {u}")
        elif change == "large_id":
            lines.insert(at, f"0 {draw(st.integers(n, n + 9))}")
    end = "\r\n" if "crlf" in changes else "\n"
    return end.join(lines) + ("" if "no_final_newline" in changes else end)


class TestBulkReader:
    """`load_edge_list` reads the writer's form in bulk and any other text
    with the line parser; both must agree with `reference_load_edge_list`."""

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.one_of(
            edge_list_texts(),
            st.text(alphabet="0123456789 #n=\n\r\t+_-x\u0663", max_size=30),
        ),
        cap=st.sampled_from((MAX_FILE_NODES, 0, 3, 6)),
    )
    def test_matches_the_line_parser(self, text, cap):
        with mock.patch.object(graphs, "MAX_FILE_NODES", cap):
            assert parse_outcome(load_edge_list, text) == parse_outcome(
                reference_load_edge_list, text
            )

    @pytest.mark.parametrize(
        "text",
        [
            "", "\n", "# n=3", "# n=\n", "# n=3\n", "# n=03\n0 1\n",
            "# n=3\n0 1", "# n=3\n0 1\r\n", "# n=3\n0  1\n", "# n=3\n0 1 \n",
            "# n=3\n0\t1\n", "#n=3\n0 1\n", "# n=3\n\n0 1\n",
            "# n=3\n# n=2\n0 1\n", "# n=3\n1 0\n", "# n=3\n1 1\n",
            "# n=3\n0 3\n", "# n=3\n0 1\n0 1\n", "# n=3\n0 2\n0 1\n",
            "# n=3\n1 2\n0 1\n", "# n=3\n0 \n", "# n=3\n 1\n",
            # one id short and a last line without "\n": 2 ids a line overall
            "# n=6\n0 \n5",
            # 3 ids then 1: 2 ids a line overall, but not line by line
            "# n=4\n0 1 2\n3\n",
            "# n=3\n+0 1\n", "# n=3\n0 1_0\n", "# n=12\n0 1_0\n",
            "# n=3\n00 01\n", "# n=3\n0 \u0661\n", "# n=\u0663\n0 1\n",
            "# n=\u00b2\n0 1\n", "# n=3\n0 1\x1c1 2\n", "# n=3\n0 -1\n",
            # int() takes these headers, the header pattern does not
            "# n=-1\n", "# n=+3\n0 1\n", "# n=3_0\n0 1\n",
            "# n= 3\n0 1\n",
            # int() refuses more than 4300 digits on CPython 3.11+
            f"# n=3\n0 {'9' * 5000}\n", f"# n={'9' * 5000}\n0 1\n",
            f"# n={MAX_FILE_NODES + 1}\n0 1\n",
        ],
        ids=lambda text: text[:24],
    )
    def test_near_misses_match_the_line_parser(self, text):
        assert parse_outcome(load_edge_list, text) == parse_outcome(
            reference_load_edge_list, text
        )

    @pytest.mark.parametrize(
        "text, lineno",
        [(f"# n={'9' * 5000}\n0 1\n", 1), (f"0 1\n\n# n={'9' * 5000}\n", 3)],
    )
    def test_header_past_the_digit_limit_names_its_line(self, text, lineno):
        with pytest.raises(GraphParseError, match=rf"^line {lineno}: declared n"):
            load_edge_list(text)

    @pytest.mark.parametrize(
        "g",
        [
            *(
                gen_family(family, **{
                    name: {"n": n, "k": n, "avg_deg": 3.0, "seed": 5}[name]
                    for name in names
                })
                for family, (_, names) in FAMILIES.items()
                for n in (3, 9, 40)
            ),
            relabel(hex_chain(3), random_permutation(21, random.Random(4))),
            Graph.from_edges(0, ()),
            path_graph(1),
        ],
    )
    def test_writer_output_skips_the_line_parser(self, monkeypatch, g):
        # a writer change that breaks the bulk form would still give
        # equal graphs, only slower: this is what notices
        def line_parser(text):
            raise AssertionError("the writer's text reached the line parser")

        monkeypatch.setattr(graphs, "_parse_lines", line_parser)
        assert load_edge_list(save_edge_list(g)) == g


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
