import contextlib
import io
import json
import random
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walksearch
from walksearch import cli, samplers
from walksearch.cli import main
from walksearch.graphs import (
    MAX_FILE_NODES,
    cycle_graph,
    hex_chain,
    load_edge_list,
    path_graph,
    random_tree,
    relabel,
    save_edge_list,
)
from walksearch.samplers import POLICIES, WalkPolicy, sample_set
from walksearch.wl import RefinementRun, partition_of

from .strategies import connected_graphs, graphs_with_permutation
from .test_samplers import stdlib_cover_time, stdlib_dfs, stdlib_walk
from .test_wl import naive_wl, naive_wwl

CYCLE6 = "# n=6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
PATH3 = "# n=3\n0 1\n1 2\n"
TRIANGLE = "# n=3\n0 1\n0 2\n1 2\n"
STAR3 = "# n=3\n0 1\n0 2\n"
TWO_EDGES = "# n=4\n0 1\n2 3\n"
ONE_NODE = "# n=1\n"
# a tree plus an isolated node: one search covers every edge before the
# isolated node shows the graph is disconnected
EDGE_PLUS_NODE = "# n=3\n0 1\n"
PATH5 = "# n=5\n0 1\n1 2\n2 3\n3 4\n"
# two hexagons sharing the edge 2-3
HEX2 = "# n=10\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n2 9\n3 6\n6 7\n7 8\n8 9\n"
# nodes 0 and 4 isolated
SCATTERED = "# n=7\n1 2\n2 3\n5 6\n"
EMPTY = "# n=0\n"
ISOLATED = "# n=2\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_ok(argv) -> int:
    code = main(argv)
    assert code == 0
    return code


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``walksearch`` lines of README's command
    block, in order, with backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    start = text.index("```sh\nwalksearch ")
    block = text[start + len("```sh\n"):text.index("```", start + 5)]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("walksearch ")]


def test_readme_command_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # in an empty directory, so every graph a line reads is one an
    # earlier line wrote
    monkeypatch.chdir(tmp_path)
    argvs = readme_commands()
    assert len(argvs) == 13
    for argv in argvs:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)


class TestGen:
    def test_cycle_edge_lines(self, tmp_path):
        out = tmp_path / "c6.el"
        run_ok(["gen", "--family", "cycle", "--n", "6", "--out", str(out)])
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# n=6"
        assert len(lines) == 7

    def test_hex_chain_counts(self, tmp_path):
        out = tmp_path / "hc.el"
        run_ok(["gen", "--family", "hex_chain", "--k", "3", "--out", str(out)])
        g = load_edge_list(out.read_text())
        # one bridge joins consecutive units, so edges exceed nodes by k-1
        assert g.n == 21 and g.edge_count == 23
        assert g.is_connected()

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        args = ["gen", "--family", "er_connected", "--n", "24", "--avg-deg",
                "3.0", "--seed", "9"]
        run_ok(args + ["--out", str(a)])
        run_ok(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_param_is_usage_error(self, capsys):
        assert main(["gen", "--family", "hex_chain"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"

    def test_stochastic_family_requires_seed(self, capsys):
        assert main(["gen", "--family", "er_connected", "--n", "10",
                     "--avg-deg", "3.0"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "--seed" in err["message"]


class TestSample:
    def test_walk_json_schema(self, tmp_path, capsys):
        graph = write(tmp_path, "p.el", PATH3)
        run_ok(["sample", "--graph", graph, "--kind", "walks", "--m", "2",
                "--seed", "1", "--length", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "walks" and payload["seed"] == 1
        assert len(payload["items"]) == 2
        assert set(payload["items"][0]) == {"nodes", "start"}

    def test_search_json_schema(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        run_ok(["sample", "--graph", graph, "--kind", "searches", "--m", "1",
                "--seed", "1"])
        payload = json.loads(capsys.readouterr().out)
        item = payload["items"][0]
        assert set(item) == {"visit_order", "tree_edges", "root"}
        assert len(item["tree_edges"]) == 5


class TestCoverage:
    def test_search_row_exact_five_sixths(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        run_ok(["coverage", "--graph", graph, "--kinds", "searches",
                "--m-list", "1", "--trials", "30", "--seed", "0"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "kind,m,node_frac_mean,edge_frac_mean,trials,seed"
        kind, m, node_frac, edge_frac, trials, seed = lines[1].split(",")
        assert kind == "searches" and node_frac == "1.0"
        assert float(edge_frac) == pytest.approx(5 / 6)

    def test_walks_row_count_matches_m_list(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        run_ok(["coverage", "--graph", graph, "--kinds", "walks",
                "--m-list", "1,2,4", "--trials", "10", "--seed", "0"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4


class TestWalkVerbBytes:
    @pytest.mark.parametrize(
        "text", [PATH5, CYCLE6, HEX2], ids=["path5", "cycle6", "hex2"]
    )
    def test_match_stdlib_walk(self, tmp_path, capsys, monkeypatch, text):
        graph = write(tmp_path, "g.el", text)
        argvs = [
            ["covertime", "--policy", policy, "--target", target,
             "--trials", "20", "--seed", "3"]
            for policy in POLICIES for target in ("node", "edge")
        ]
        argvs.append(["covertime", "--policy", "non_backtracking",
                      "--trials", "20", "--cap", "7", "--seed", "3"])
        argvs += [["sample", "--kind", "walks", "--m", "3", "--policy",
                   policy, "--seed", "2"] for policy in POLICIES]
        argvs.append(["coverage", "--kinds", "walks", "--m-list", "1,2,4",
                      "--trials", "8", "--seed", "1"])

        def run_all():
            results = []
            for argv in argvs:
                code = main(argv + ["--graph", graph])
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        table_driven = run_all()
        calls = Counter()

        def walk(self, rng, length):
            calls["walk"] += 1
            return list(islice(stdlib_walk(self.g, self.policy, rng), length + 1))

        def cover_time(self, rng, target, cap):
            calls["cover_time"] += 1
            return stdlib_cover_time(self.g, self.policy, rng, target, cap)

        def cover(self, rng, length, node_seen, edge_seen, nodes_left, edges_left):
            calls["cover"] += 1
            nodes = list(islice(stdlib_walk(self.g, self.policy, rng), length + 1))
            ids = {e: i for i, e in enumerate(sorted(self.g.edges()))}
            for v in set(nodes):
                if not node_seen[v]:
                    node_seen[v] = 1
                    nodes_left -= 1
            for e in {(a, b) if a < b else (b, a) for a, b in zip(nodes, nodes[1:])}:
                if not edge_seen[ids[e]]:
                    edge_seen[ids[e]] = 1
                    edges_left -= 1
            return nodes_left, edges_left

        monkeypatch.setattr(WalkPolicy, "walk", walk)
        monkeypatch.setattr(WalkPolicy, "cover_time", cover_time)
        monkeypatch.setattr(WalkPolicy, "cover", cover)
        assert run_all() == table_driven
        assert all(code == 0 for code, _, _ in table_driven)
        # every reference ran: one cover trial per covertime trial (7
        # argvs x 20), one walk per sampled walk (3 x 3), and one marked
        # walk per curve record (8 trials x 4)
        assert calls == {"cover_time": 140, "walk": 9, "cover": 32}


class TestSearchVerbBytes:
    def test_match_sample_dfs_loops(self, tmp_path, capsys, monkeypatch):
        texts = {"path5": PATH5, "cycle6": CYCLE6, "hex2": HEX2,
                 "triangle": TRIANGLE, "one_node": ONE_NODE}
        graphs = [write(tmp_path, f"{key}.el", text) for key, text in texts.items()]
        argvs = [
            ["sample", "--kind", "searches", "--m", "3", "--seed", "2"],
            ["reconstruct", "--m", "2", "--window", "4", "--seed", "3"],
            ["bound", "--delta", "0.2", "--trials", "6", "--seed", "4"],
            ["coverage", "--kinds", "searches", "--m-list", "1,2,4",
             "--trials", "8", "--seed", "1"],
            ["invariance", "--mode", "sampled", "--perm-seed", "4",
             "--trials", "30", "--seed", "5"],
        ]

        def run_all(counter):
            """Per call: (exit code, stdout, stderr), and how much the call
            added to counter["calls"]."""
            results, counts = [], []
            for graph in graphs:
                for argv in argvs:
                    before = counter["calls"]
                    code = main(argv + ["--graph", graph])
                    captured = capsys.readouterr()
                    results.append((code, captured.out, captured.err))
                    counts.append(counter["calls"] - before)
            return results, counts

        # every search draws its root with one randrange, and nothing else
        # these verbs run calls it, so the root count is the search count
        roots = Counter()
        randrange = random.Random.randrange

        def counted_randrange(self, *args):
            roots["calls"] += 1
            return randrange(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(random.Random, "randrange", counted_randrange)
            kernels, searches = run_all(roots)

        calls = Counter()

        def reference(g, rng):
            calls["calls"] += 1
            rec = stdlib_dfs(g, rng)
            pos = {v: i for i, v in enumerate(rec.visit_order)}
            parent = {}
            for u, v in rec.tree_edges:
                if pos[u] > pos[v]:
                    u, v = v, u
                parent[v] = u
            order = list(rec.visit_order)
            return order, [parent[v] for v in order[1:]]

        bindings = [
            module for name, module in sys.modules.items()
            if name.startswith("walksearch")
            and getattr(module, "_search", None) is samplers._search
        ]
        assert {m.__name__ for m in bindings} >= {
            "walksearch.samplers", "walksearch.invariance"}
        for module in bindings:
            monkeypatch.setattr(module, "_search", reference)
        assert run_all(calls) == (kernels, searches)
        assert all(code == 0 for code, _, _ in kernels)
        # per graph: 3 sampled searches, 2 reconstruction searches, and four
        # sampled-invariance batches of 30; a bound or curve trial stops
        # once its searches cover every edge, which a tree (the path) does
        # at its first search and the one-node graph at its first bound
        # search, with no curve search at all
        per_graph = [searches[i:i + len(argvs)]
                     for i in range(0, len(searches), len(argvs))]
        assert all(row[0] == 3 and row[1] == 2 and row[4] == 4 * 30
                   for row in per_graph)
        assert per_graph[0][2:4] == [6, 8]
        assert per_graph[-1][2:4] == [6, 0]
        for row in per_graph[1:4]:
            assert 6 < row[2] and 8 < row[3] < 8 * 4

    @staticmethod
    def sample_out(g, m, seed, tmp_dir) -> str:
        graph = write(Path(tmp_dir), "g.el", save_edge_list(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["sample", "--graph", graph, "--kind", "searches",
                         "--m", str(m), "--seed", str(seed)]) == 0
        return out.getvalue()

    @staticmethod
    def sample_set_out(g, m, seed) -> str:
        """The reference: the `SampleSet` of the same batch, as JSON."""
        ss = sample_set(g, "searches", m, seed)
        return json.dumps(ss.to_dict(), sort_keys=True) + "\n"

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_permutation(1, 12), st.integers(1, 3),
           st.integers(0, 2**32))
    def test_sample_matches_sample_set_on_random_graphs(self, g_perm, m, seed):
        # relabelled, so the rows and tree edges are not in generator order
        g = relabel(*g_perm)
        with tempfile.TemporaryDirectory() as tmp_dir:
            assert self.sample_out(g, m, seed, tmp_dir) == (
                self.sample_set_out(g, m, seed))

    @pytest.mark.parametrize(
        "g", [hex_chain(150), random_tree(500, 8), cycle_graph(257)],
        ids=["hex150", "tree500", "cycle257"],
    )
    def test_sample_matches_sample_set(self, tmp_path, g):
        for seed in (0, 11):
            assert self.sample_out(g, 2, seed, tmp_path) == (
                self.sample_set_out(g, 2, seed))


class TestBound:
    def test_worked_example(self, capsys):
        # C*n = 30, delta = 0.05: ln(600)/ln(1.5) ~ 15.78, rounded up
        run_ok(["bound", "--n", "30", "--C", "1.0", "--d-max", "3",
                "--delta", "0.05"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_required"] == 16

    def test_delta_near_one_still_at_least_one(self, capsys):
        run_ok(["bound", "--n", "5", "--C", "1.0", "--d-max", "3",
                "--delta", "0.99"])
        assert json.loads(capsys.readouterr().out)["m_required"] >= 1

    def test_dmax_monotonicity(self, capsys):
        ms = []
        for d in ("2", "3"):
            run_ok(["bound", "--n", "40", "--C", "1.0", "--d-max", d,
                    "--delta", "0.1"])
            ms.append(json.loads(capsys.readouterr().out)["m_required"])
        assert ms[1] > ms[0]

    def test_graph_mode_reports_empirical_success(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        run_ok(["bound", "--graph", graph, "--delta", "0.1", "--trials",
                "200", "--seed", "3"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"C", "n", "d_max", "delta", "m_required",
                                "empirical_success", "trials"}
        assert payload["empirical_success"] >= 0.9

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "10", "--C", "inf", "--d-max", "3", "--delta", "0.1"],
             "C must be finite and >= 0"),
            (["--n", "10", "--C", "1e308", "--d-max", "3", "--delta",
              "1e-308"], "C*n/delta must be finite"),
            (["--n", "10", "--C", "nan", "--d-max", "3", "--delta", "0.1"],
             "C must be finite and >= 0"),
            (["--n", "-5", "--C", "-1", "--d-max", "3", "--delta", "0.1"],
             "n must be >= 1"),
            (["--n", "-5", "--C", "1.0", "--d-max", "1", "--delta", "0.1"],
             "n must be >= 1"),
            (["--n", "10", "--C", "1.0", "--d-max", "-4", "--delta", "0.1"],
             "d_max must be >= 0"),
            (["--n", "10", "--C", "nan", "--d-max", "1", "--delta", "0.1"],
             "C must be finite and >= 0"),
            (["--n", "10", "--C", "inf", "--d-max", "1", "--delta", "0.1"],
             "C must be finite and >= 0"),
            (["--n", "10", "--C", "-1", "--d-max", "1", "--delta", "0.1"],
             "C must be finite and >= 0"),
            (["--n", "10", "--C", "-1", "--d-max", "3", "--delta", "0.1"],
             "C must be finite and >= 0"),
        ],
        ids=["C-inf", "overflow", "C-nan", "n-negative",
             "n-negative-degenerate", "d-max-negative", "C-nan-degenerate",
             "C-inf-degenerate", "C-negative-degenerate", "C-negative"],
    )
    def test_rejects_impossible_inputs(self, capsys, flags, message):
        assert main(["bound"] + flags) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.err) == {
            "error": "ValueError", "message": message
        }


    def test_zero_C_is_degenerate_not_an_error(self, capsys):
        run_ok(["bound", "--n", "1", "--C", "0", "--d-max", "0",
                "--delta", "0.1"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["m_required"] == 1 and payload["degenerate"] is True

    def test_non_finite_float_is_a_json_error(self, tmp_path, capsys,
                                              monkeypatch):
        # no verb prints NaN or Infinity, which are not JSON
        monkeypatch.setattr(cli.cov, "bound_check_report",
                            lambda *args: {"C": float("nan")})
        graph = write(tmp_path, "c.el", CYCLE6)
        out = tmp_path / "out.json"
        assert main(["bound", "--graph", graph, "--delta", "0.1",
                     "--seed", "0", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert json.loads(captured.err)["error"] == "ValueError"


REFINE_GRAPHS = {
    "path5": [PATH5],
    "hex2+cycle6": [HEX2, CYCLE6],
    "hex2+path3": [HEX2, PATH3],
    "path61": [path_graph(61)],
    "hex7": [hex_chain(7)],
    "tree40": [random_tree(40, seed=3)],
    "tree40+tree40": [random_tree(40, seed=8), random_tree(40, seed=9)],
    "isolated+path5": [SCATTERED, PATH5],
    "empty+cycle6": [EMPTY, CYCLE6],
    "path3+empty": [PATH3, EMPTY],
}
# the first cases' ids predate the wider sweep
LEGACY_IDS = {
    ("wl", "path5", None): "wl",
    ("wl", "hex2+cycle6", None): "wl-graph2",
    ("wwl", "path5", None): "wwl",
    ("wwl", "hex2+path3", None): "wwl-graph2",
}
REFINE_CASES = [
    pytest.param(
        verb, graphs, rounds,
        id=LEGACY_IDS.get((verb, name, rounds), f"{verb}-{name}-{rounds}"),
    )
    for verb in ("wl", "wwl")
    for name, graphs in REFINE_GRAPHS.items()
    for rounds in (None, 0, 1, "stable+3")
]


class TestRefinementVerbs:
    def test_wl_prints_rounds_and_stable(self, tmp_path, capsys):
        graph = write(tmp_path, "p.el", PATH3)
        run_ok(["wl", "--graph", graph])
        out = capsys.readouterr().out
        assert "round=0" in out and "stable_round=1" in out
        assert "blocks=[[0, 2], [1]]" in out

    def test_wwl_two_graphs(self, tmp_path, capsys):
        g1 = write(tmp_path, "p.el", PATH3)
        g2 = write(tmp_path, "t.el", TRIANGLE)
        run_ok(["wwl", "--graph", g1, "--graph2", g2, "--length", "2"])
        out = capsys.readouterr().out
        assert "graph=1" in out

    @staticmethod
    def oracle_out(verb, graphs, rounds):
        """Expected wl/wwl (length 2) stdout, from the naive reference law
        and `json.dumps` of each round's sorted blocks."""
        if verb == "wl":
            history, stable = naive_wl(graphs, rounds)
        else:
            history, stable = naive_wwl(graphs, 2, rounds)
        lines = [
            f"graph={gi} round={r} "
            f"blocks={json.dumps(partition_of(colors).sorted_blocks())}"
            for r, round_colors in enumerate(history)
            for gi, colors in enumerate(round_colors)
        ]
        lines.append(f"stable_round={stable}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def run_verb(verb, graphs, rounds, tmp_dir):
        argv = [verb]
        for i, g in enumerate(graphs):
            path = Path(tmp_dir) / f"g{i}.el"
            path.write_text(save_edge_list(g))
            argv += ["--graph2" if i else "--graph", str(path)]
        if verb == "wwl":
            argv += ["--length", "2"]
        if rounds is not None:
            argv += ["--rounds", str(rounds)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    @pytest.mark.parametrize("verb, graphs, rounds", REFINE_CASES)
    def test_blocks_match_naive_oracle(self, tmp_path, verb, graphs, rounds):
        graphs = [load_edge_list(g) if isinstance(g, str) else g
                  for g in graphs]
        if rounds == "stable+3":
            naive = naive_wl if verb == "wl" else (
                lambda gs: naive_wwl(gs, 2))
            rounds = naive(graphs)[1] + 3
        assert self.run_verb(verb, graphs, rounds, tmp_path) == (
            self.oracle_out(verb, graphs, rounds))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(connected_graphs(1, 9), min_size=1, max_size=2))
    def test_wl_blocks_match_naive_oracle_on_random_graphs(self, graphs):
        with tempfile.TemporaryDirectory() as tmp_dir:
            out = self.run_verb("wl", graphs, None, tmp_dir)
        assert out == self.oracle_out("wl", graphs, None)

    def test_verbs_never_build_history(self, tmp_path, monkeypatch):
        g1 = write(tmp_path, "h.el", HEX2)
        g2 = write(tmp_path, "c.el", CYCLE6)
        argvs = [
            [verb, "--graph", g1, *pair, *rounds, *length]
            for verb, length in (("wl", []), ("wwl", ["--length", "2"]))
            for pair in ([], ["--graph2", g2])
            for rounds in ([], ["--rounds", "6"])
        ]
        argvs += [
            ["distinguish", "--graph", g1, "--graph2", g2, "--test", "wl"],
            ["distinguish", "--graph", g1, "--graph2", g2, "--test", "wwl",
             "--length", "2"],
        ]

        def run_all():
            outs = []
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                outs.append(out.getvalue())
            return outs

        unpatched = run_all()

        def refuse(self):
            raise AssertionError("history was built")

        monkeypatch.setattr(RefinementRun, "_build_history", refuse)
        assert run_all() == unpatched

    @pytest.mark.parametrize("verb", ["wl", "wwl"])
    def test_huge_round_budget_is_refused_quickly(self, tmp_path, capsys,
                                                  verb):
        graph = write(tmp_path, "p.el", PATH5)
        argv = [verb, "--graph", graph, "--rounds", str(10**30)]
        if verb == "wwl":
            argv += ["--length", "2"]
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        cells = (10**30 + 1) * (1 + 5)
        assert json.loads(captured.err) == {
            "error": "ValueError",
            "message": f"(rounds + 1) * (graphs + nodes) = {cells} exceeds"
                       f" the output cap of {cli.MAX_REFINE_CELLS}",
        }
        assert elapsed < 1.0

    @pytest.mark.parametrize("length", [10**8, 10**30])
    def test_huge_length_on_an_edgeless_graph_answers(self, tmp_path, capsys,
                                                      length):
        # no node ends a walk, so the walk levels stop at length 1
        graph = write(tmp_path, "e.el", "# n=3\n")
        start = time.perf_counter()
        code = main(["wwl", "--graph", graph, "--length", str(length)])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert capsys.readouterr().out == (
            "graph=0 round=0 blocks=[[0, 1, 2]]\n"
            "graph=0 round=1 blocks=[[0, 1, 2]]\n"
            "stable_round=0\n"
        )
        assert elapsed < 1.0

    def test_huge_length_past_the_walk_guard_is_refused_quickly(
        self, tmp_path, capsys
    ):
        # node 0 ends one walk of every length, more than the guard allows
        graph = write(tmp_path, "e.el", EDGE_PLUS_NODE)
        start = time.perf_counter()
        code = main(["wwl", "--graph", graph, "--length", str(10**30)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "RefinementGuardError",
            "message": "more than 100000 terminating walks at node 0",
        }
        assert elapsed < 1.0

    def test_rows_are_written_as_rendered(self, tmp_path):
        # the verb holds one round's text at a time, not the whole output
        graph = tmp_path / "p.el"
        graph.write_text(save_edge_list(path_graph(1500)))
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            assert main(["wl", "--graph", str(graph), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 5 * 2**20
        assert peak < size / 2

    def test_output_cap_is_inclusive(self, tmp_path, capsys, monkeypatch):
        graph = write(tmp_path, "p.el", PATH3)
        g2 = write(tmp_path, "t.el", TRIANGLE)
        argv = ["wl", "--graph", graph, "--graph2", g2, "--rounds"]
        # far above the largest benchmark job, wl path1000: 501 x 1001 cells
        assert cli.MAX_REFINE_CELLS >= 10 * 501 * 1001
        # (rounds + 1) * (2 graphs + 6 nodes): 24 at two rounds, 32 at three
        monkeypatch.setattr(cli, "MAX_REFINE_CELLS", 24)
        assert main(argv + ["2"]) == 0
        assert capsys.readouterr().out.count(" blocks=") == 3 * 2
        assert main(argv + ["3"]) == 1
        assert "exceeds the output cap of 24" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["wl", "--rounds", "0"], ["wwl", "--length", "2"],
                 ["distinguish"]], ids=["wl", "wwl", "distinguish"]
    )
    def test_empty_graph2_is_a_path_to_read(self, tmp_path, capsys, argv):
        graph = write(tmp_path, "p.el", PATH3)
        code = main(argv + ["--graph", graph, "--graph2", ""])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err)["error"] == "FileNotFoundError"

    def test_distinguish_verdict(self, tmp_path, capsys):
        g1 = write(tmp_path, "p.el", PATH3)
        g2 = write(tmp_path, "t.el", TRIANGLE)
        run_ok(["distinguish", "--graph", g1, "--graph2", g2, "--test", "wl"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "distinguished"
        assert payload["rounds_to_stable"] >= 1


class TestInvarianceVerb:
    def test_exact_pass(self, tmp_path, capsys):
        graph = write(tmp_path, "p.el", PATH3)
        run_ok(["invariance", "--graph", graph, "--mode", "exact",
                "--perm-seed", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True and payload["discrepancy"] == "0"

    def test_exact_refuses_graph_past_budget(self, tmp_path, capsys):
        graph = write(tmp_path, "p.el", save_edge_list(path_graph(1200)))
        assert main(["invariance", "--graph", graph, "--mode", "exact",
                     "--perm-seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        err = json.loads(captured.err)
        assert err["error"] == "EnumerationBudgetError"
        assert "budget 1000000 exceeded" in err["message"]

    def test_sampled_fields(self, tmp_path, capsys):
        graph = write(tmp_path, "t.el", TRIANGLE)
        run_ok(["invariance", "--graph", graph, "--mode", "sampled",
                "--perm-seed", "4", "--trials", "400", "--seed", "8"])
        payload = json.loads(capsys.readouterr().out)
        assert {"tv", "baseline_tv", "pvalue", "pass"} <= set(payload)

    def test_sampled_mode_requires_seed(self, tmp_path, capsys):
        graph = write(tmp_path, "t.el", TRIANGLE)
        assert main(["invariance", "--graph", graph, "--mode", "sampled",
                     "--perm-seed", "4"]) == 2
        assert "--seed" in json.loads(capsys.readouterr().err)["message"]


class TestReconstructVerb:
    def test_exact_on_full_window(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        run_ok(["reconstruct", "--graph", graph, "--m", "1", "--window", "7",
                "--seed", "5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 6, "m": 1, "s": 7, "missing_count": 0,
                           "spurious_count": 0, "exact": True}

    def test_runs_with_numpy_blocked(self, tmp_path):
        # the package has no runtime dependency: with numpy made
        # unimportable, the package and the CLI import and reconstruct
        g = hex_chain(2)
        graph = write(tmp_path, "h.el", save_edge_list(g))
        src = str(Path(walksearch.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            f"sys.path.insert(0, {src!r})\n"
            "import walksearch\n"
            "from walksearch.cli import main\n"
            f"sys.exit(main(['reconstruct', '--graph', {graph!r}, '--m', '1',"
            f" '--window', '{g.n + 1}', '--seed', '3']))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["exact"] is True


class TestErrorsAndDeterminism:
    def test_unknown_family_error_json(self, capsys):
        code = main(["gen", "--family", "petersen", "--n", "5"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"

    def test_parse_error_json(self, tmp_path, capsys):
        graph = write(tmp_path, "bad.el", "0 0\n")
        code = main(["sample", "--graph", graph, "--kind", "walks",
                     "--m", "1", "--seed", "0"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GraphParseError"

    def test_memory_error_is_a_json_error(self, tmp_path, capsys, monkeypatch):
        # a walk too long for memory takes the JSON-error path, not a
        # traceback; the kernel is patched to fail as its append would
        def out_of_memory(self, rng, length):
            raise MemoryError

        monkeypatch.setattr(WalkPolicy, "walk", out_of_memory)
        graph = write(tmp_path, "tri.el", TRIANGLE)
        code = main(["sample", "--graph", graph, "--kind", "walks", "--m", "1",
                     "--seed", "0", "--length", "100000000000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.endswith("\n") and captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": "MemoryError", "message": "out of memory"
        }

    @pytest.mark.parametrize(
        "text",
        [f"# n={MAX_FILE_NODES + 1}\n0 1\n", f"0 {MAX_FILE_NODES}\n"],
        ids=["header", "largest_id"],
    )
    def test_oversized_graph_file_refused(self, tmp_path, capsys, text):
        graph = write(tmp_path, "big.el", text)
        code = main(["sample", "--graph", graph, "--kind", "walks",
                     "--m", "1", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "GraphParseError",
            "message": f"n={MAX_FILE_NODES + 1} exceeds the graph-file cap "
                       f"of {MAX_FILE_NODES} nodes",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--kind", "walks", "--m", "1", "--seed", "0",
             "--graph", "{g}"],
            ["covertime", "--graph", "{g}", "--trials", "40", "--seed", "2"],
            ["invariance", "--graph", "{g}", "--mode", "sampled",
             "--perm-seed", "1", "--trials", "200", "--seed", "3"],
            ["wl", "--graph", "{g}"],
            ["reconstruct", "--graph", "{g}", "--m", "2", "--window", "4",
             "--seed", "6"],
        ],
        ids=["sample", "covertime", "invariance", "wl", "reconstruct"],
    )
    def test_stochastic_commands_reproduce_bytes(self, tmp_path, argv):
        graph = write(tmp_path, "c.el", CYCLE6)
        argv = [a.replace("{g}", graph) for a in argv]
        contents = []
        for name in ("x1", "x2"):
            out = tmp_path / name
            run_ok(argv + ["--out", str(out)])
            contents.append(out.read_bytes())
        assert contents[0] == contents[1]

    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (["coverage", "--m-list", "1", "--trials", "0", "--seed", "0"],
             CYCLE6, "trials must be >= 1"),
            (["covertime", "--trials", "0", "--seed", "0"],
             CYCLE6, "trials must be >= 1"),
            (["coverage", "--m-list", "1", "--trials", "5", "--seed", "0"],
             TWO_EDGES, "walks require a connected graph"),
            (["covertime", "--trials", "5", "--seed", "0"],
             TWO_EDGES, "walks require a connected graph"),
            (["coverage", "--m-list", "1", "--trials", "5", "--seed", "0"],
             ONE_NODE, "walks require at least 2 nodes"),
            (["covertime", "--trials", "5", "--seed", "0"],
             ONE_NODE, "walks require at least 2 nodes"),
            (["bound", "--delta", "0.1", "--trials", "5", "--seed", "0"],
             ONE_NODE, None),
            (["covertime", "--trials", "5", "--seed", "0", "--cap", "0"],
             CYCLE6, "cap must be >= 1"),
            (["covertime", "--trials", "5", "--seed", "0", "--cap", "-2"],
             CYCLE6, "cap must be >= 1"),
            (["coverage", "--m-list", "1", "--trials", "5", "--seed", "0",
              "--length", "0"], CYCLE6, "walk length must be >= 1"),
            (["coverage", "--m-list", "1", "--trials", "5", "--seed", "0",
              "--length", "-1"], CYCLE6, "walk length must be >= 1"),
            (["coverage", "--kinds", "searches", "--m-list", "1,2",
              "--trials", "5", "--seed", "0"], ONE_NODE, None),
            (["coverage", "--kinds", "searches", "--m-list", "1",
              "--trials", "5", "--seed", "0"],
             TWO_EDGES, "searches require a connected graph"),
            (["coverage", "--kinds", "searches", "--m-list", "1,2",
              "--trials", "5", "--seed", "0"],
             EDGE_PLUS_NODE, "searches require a connected graph"),
            (["invariance", "--mode", "sampled", "--perm-seed", "1",
              "--trials", "5", "--seed", "0"],
             TWO_EDGES, "searches require a connected graph"),
            (["invariance", "--mode", "sampled", "--perm-seed", "1",
              "--trials", "5", "--seed", "0"],
             EDGE_PLUS_NODE, "searches require a connected graph"),
            (["wl", "--rounds", "-1"], CYCLE6, "rounds must be >= 0"),
            (["wwl", "--length", "2", "--rounds", "-2"],
             CYCLE6, "rounds must be >= 0"),
            (["coverage", "--kinds", ",", "--m-list", "1", "--trials", "5",
              "--seed", "0"], CYCLE6, "kinds must be nonempty"),
            (["coverage", "--kinds", "searches,searches", "--m-list", "1",
              "--trials", "5", "--seed", "0"], CYCLE6,
             "kinds must not repeat"),
            (["sample", "--kind", "searches", "--m", "1", "--seed", "0"],
             ONE_NODE, None),
            (["sample", "--kind", "searches", "--m", "1", "--seed", "0"],
             EMPTY, "empty graph"),
            (["sample", "--kind", "searches", "--m", "1", "--seed", "0"],
             TWO_EDGES, "searches require a connected graph"),
            (["sample", "--kind", "searches", "--m", "2", "--seed", "0"],
             EDGE_PLUS_NODE, "searches require a connected graph"),
            (["sample", "--kind", "searches", "--m", "0", "--seed", "0"],
             TWO_EDGES, "m must be >= 1"),
            (["reconstruct", "--m", "1", "--window", "3", "--seed", "0"],
             EMPTY, "empty graph"),
            (["reconstruct", "--m", "1", "--window", "3", "--seed", "0"],
             TWO_EDGES, "searches require a connected graph"),
            (["reconstruct", "--m", "2", "--window", "3", "--seed", "0"],
             EDGE_PLUS_NODE, "searches require a connected graph"),
            (["invariance", "--mode", "sampled", "--perm-seed", "1",
              "--trials", "5", "--seed", "0"], EMPTY, "empty graph"),
            # a search trial runs no search once nothing is left to cover,
            # so only `SearchGraph`'s own checks refuse these
            (["coverage", "--kinds", "searches", "--m-list", "1",
              "--trials", "5", "--seed", "0"], EMPTY, "empty graph"),
            (["coverage", "--kinds", "searches", "--m-list", "1",
              "--trials", "5", "--seed", "0"],
             ISOLATED, "searches require a connected graph"),
            (["sample", "--kind", "walks", "--m", "1", "--seed", "0",
              "--length", "0"], CYCLE6, "walk length must be >= 1"),
            # two bad inputs: the walk kernel checks its graph first
            (["sample", "--kind", "walks", "--m", "1", "--seed", "0",
              "--length", "0"], ONE_NODE, "walks require at least 2 nodes"),
            (["covertime", "--trials", "5", "--seed", "0", "--cap", "0"],
             TWO_EDGES, "walks require a connected graph"),
            (["bound", "--delta", "0.1", "--trials", "5", "--seed", "0"],
             EMPTY, "empty graph"),
            (["bound", "--delta", "0.1", "--trials", "5", "--seed", "0"],
             TWO_EDGES, "searches require a connected graph"),
        ],
        ids=["coverage-trials0", "covertime-trials0",
             "coverage-disconnected", "covertime-disconnected",
             "coverage-one-node", "covertime-one-node", "bound-one-node",
             "covertime-cap0", "covertime-cap-2", "coverage-length0",
             "coverage-length-1", "coverage-searches-one-node",
             "coverage-searches-disconnected",
             "coverage-searches-edge-plus-node",
             "invariance-sampled-disconnected",
             "invariance-sampled-edge-plus-node", "wl-rounds-1",
             "wwl-rounds-2", "coverage-kinds-empty",
             "coverage-kinds-repeat", "sample-searches-one-node",
             "sample-searches-empty", "sample-searches-disconnected",
             "sample-searches-edge-plus-node", "sample-searches-m0",
             "reconstruct-empty", "reconstruct-disconnected",
             "reconstruct-edge-plus-node", "invariance-sampled-empty",
             "coverage-searches-empty", "coverage-searches-isolated",
             "sample-walks-length0", "sample-walks-length0-one-node",
             "covertime-cap0-disconnected", "bound-empty",
             "bound-disconnected"],
    )
    def test_degenerate_inputs(self, tmp_path, capsys, argv, text, message):
        graph = write(tmp_path, "g.el", text)
        code = main(argv + ["--graph", graph])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if message is None and argv[0] == "bound":
            # one node: degenerate bound, and one search covers it
            assert code == 0
            payload = json.loads(captured.out)
            assert payload["m_required"] == 1
            assert payload["empirical_success"] == 1.0
        elif message is None and argv[0] == "sample":
            # one node: one search, the root alone, with no tree edge
            assert code == 0
            assert json.loads(captured.out)["items"] == [
                {"root": 0, "tree_edges": [], "visit_order": [0]}
            ]
        elif message is None:
            # one node: every search covers it, with no edge to miss
            assert code == 0
            assert captured.out.splitlines()[1:] == [
                "searches,1,1.0,1.0,5,0",
                "searches,2,1.0,1.0,5,0",
            ]
        else:
            assert code == 1
            err = json.loads(captured.err)
            assert err == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sample", "--kind", "searches", "--m", "1", "--seed", "0",
              "--length", "0"], "--length"),
            (["sample", "--kind", "searches", "--m", "1", "--seed", "0",
              "--policy", "local_rule"], "--policy"),
            (["coverage", "--kinds", "searches", "--m-list", "1",
              "--trials", "5", "--seed", "0", "--length", "0"], "--length"),
            # refused before either graph is read: the second is missing
            (["distinguish", "--graph2", "missing.el", "--test", "wl",
              "--length", "3"], "--length"),
        ],
        ids=["sample-length", "sample-policy", "coverage-length",
             "distinguish-wl-length"],
    )
    def test_walk_only_flags_refused_without_walks(self, tmp_path, capsys,
                                                   argv, flag):
        graph = write(tmp_path, "p.el", PATH3)
        argv = [str(tmp_path / a) if a.endswith(".el") else a for a in argv]
        code = main(argv + ["--graph", graph])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "usage", "message": f"{flag} applies only to walks"
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["distinguish", "--graph2", "missing2.el", "--test", "wwl"],
             "--length is required for the wwl test"),
            (["invariance", "--mode", "sampled", "--perm-seed", "1"],
             "--seed is required for sampled mode"),
            (["bound", "--delta", "0.1"],
             "--seed is required when verifying against a graph"),
        ],
        ids=["distinguish-wwl-length", "invariance-sampled-seed",
             "bound-graph-seed"],
    )
    def test_mode_required_flags_refused_before_reading(self, tmp_path,
                                                         capsys, argv,
                                                         message):
        # every graph file is missing, so a refusal after reading one
        # would exit 1
        argv = [str(tmp_path / a) if a.endswith(".el") else a for a in argv]
        code = main(argv + ["--graph", str(tmp_path / "missing.el")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["invariance", "--graph", "missing.el", "--mode", "exact",
              "--perm-seed", "1", "--seed", "5"],
             "--seed applies only to sampled mode"),
            # exact is the default mode
            (["invariance", "--graph", "missing.el", "--perm-seed", "1",
              "--trials", "3"], "--trials applies only to sampled mode"),
            (["bound", "--n", "10", "--C", "1", "--d-max", "3", "--delta",
              "0.1", "--seed", "4"], "--seed applies only to --graph"),
            (["bound", "--n", "10", "--C", "1", "--d-max", "3", "--delta",
              "0.1", "--trials", "7"], "--trials applies only to --graph"),
            (["bound", "--graph", "missing.el", "--n", "999", "--delta",
              "0.1", "--seed", "4"],
             "--n applies only to a bound without --graph"),
            (["bound", "--graph", "missing.el", "--C", "7", "--delta", "0.1",
              "--seed", "4"], "--C applies only to a bound without --graph"),
            (["bound", "--graph", "missing.el", "--d-max", "9", "--delta",
              "0.1", "--seed", "4"],
             "--d-max applies only to a bound without --graph"),
        ],
        ids=["invariance-exact-seed", "invariance-exact-trials",
             "bound-query-seed", "bound-query-trials", "bound-graph-n",
             "bound-graph-C", "bound-graph-d-max"],
    )
    def test_flags_outside_their_mode_refused_before_reading(
        self, tmp_path, capsys, argv, message
    ):
        # every graph file is missing, so a refusal after reading one
        # would exit 1
        argv = [str(tmp_path / a) if a.endswith(".el") else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {"error": "usage", "message": message}

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--m-list", "1,x", "invalid int list value: '1,x'"),
         ("--trials", "x", "invalid int value: 'x'")],
        ids=["m-list", "trials"],
    )
    def test_malformed_numbers_are_usage_errors(self, tmp_path, capsys, flag,
                                                value, message):
        # `--m-list 0` and `--m-list ,` parse, and `coverage_curve` refuses them
        argv = ["coverage", "--graph", str(tmp_path / "missing.el"),
                "--m-list", "1", "--trials", "1", "--seed", "0"]
        argv[argv.index(flag) + 1] = value
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert json.loads(captured.err) == {
            "error": "usage", "message": f"argument {flag}: {message}"
        }

    def test_walks_default_to_the_uniform_policy(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        argv = ["sample", "--graph", graph, "--kind", "walks", "--m", "3",
                "--seed", "4"]
        outputs = []
        for extra in ([], ["--policy", "uniform"]):
            run_ok(argv + extra)
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_walks_on_an_empty_graph_give_one_message(self, tmp_path, capsys):
        # no length is given, so no verb may blame one
        graph = write(tmp_path, "g.el", EMPTY)
        for argv in (
            ["sample", "--kind", "walks", "--m", "2", "--seed", "0"],
            ["coverage", "--kinds", "walks", "--m-list", "1", "--trials", "5",
             "--seed", "0"],
            ["covertime", "--trials", "5", "--seed", "0"],
        ):
            code = main(argv + ["--graph", graph])
            captured = capsys.readouterr()
            assert code == 1, argv
            assert json.loads(captured.err) == {
                "error": "ValueError", "message": "walks require at least 2 nodes"
            }, argv


class TestParserReuse:
    def test_calls_in_either_order_print_the_same(self, tmp_path, capsys):
        graph = write(tmp_path, "c.el", CYCLE6)
        path = write(tmp_path, "p.el", PATH5)
        argvs = [
            ["wl", "--rounds", "9"],
            ["wl", "--graph", path, "--rounds", "1"],
            ["wl", "--graph", path],
            ["sample", "--graph", graph, "--kind", "walks", "--m", "2",
             "--seed", "1", "--length", "3"],
            ["sample", "--graph", graph, "--kind", "walks", "--m", "2",
             "--seed", "1"],
            ["invariance", "--graph", graph, "--mode", "sampled",
             "--perm-seed", "2", "--trials", "50", "--seed", "4"],
            ["invariance", "--graph", graph, "--perm-seed", "2"],
        ]

        def run_all(order):
            results = {}
            for i in order:
                code = main(list(argvs[i]))
                captured = capsys.readouterr()
                results[i] = (code, captured.out, captured.err)
            return results

        forward = run_all(range(len(argvs)))
        backward = run_all(reversed(range(len(argvs))))
        assert forward == backward
        assert forward[0][0] == 2
        assert all(forward[i][0] == 0 for i in range(1, len(argvs)))
        # an unset flag keeps its default after a call that set it
        assert "round=2" in forward[2][1] and "round=2" not in forward[1][1]
        assert forward[3][1] != forward[4][1]
        assert json.loads(forward[6][1])["mode"] == "exact"

    def test_main_builds_one_parser_per_process(self, tmp_path, capsys,
                                                monkeypatch):
        graph = write(tmp_path, "p.el", PATH3)
        argv = ["wl", "--graph", graph]
        run_ok(argv)
        first = capsys.readouterr().out

        def no_rebuild():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        run_ok(argv)
        assert capsys.readouterr().out == first

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
