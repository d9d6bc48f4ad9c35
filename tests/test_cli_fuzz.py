"""Every verb on small graphs with flags drawn from small sets of good and
bad values: each call exits 0, 1 or 2 without a traceback, and a nonzero
exit prints exactly one JSON error object on stderr and nothing on stdout.

Values whose work grows with their size (sampled walk lengths, sample
counts, trial budgets, node counts past the edges) are kept small; the
huge value 10**30 goes only to flags whose work it does not grow. Round
budgets take it too: refinement stops at the stable round, and `wl`/`wwl`
refuse a budget whose output would pass `cli.MAX_REFINE_CELLS` before
rendering. So do the refinement walk lengths of `wwl` and `distinguish`:
the walk guard is checked before any round in a number of steps bounded
by the guard, not the length, and a graph without edges ends no walk
past length 0.
"""

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walksearch.cli import main
from walksearch.graphs import FAMILIES, Graph, path_graph, save_edge_list
from walksearch.samplers import POLICIES

from .strategies import connected_graphs


def choice(*values):
    """Values that are all accepted."""
    return (values, ())


HUGE = str(10**30)
# (values a verb accepts, values it may refuse) per kind of flag
INTS = (("1", "2", "3"), ("0", "-1"))
BIG_INTS = (("1", "2", "3"), ("0", "-1", HUGE))
FLOATS = (("0.5", "3"), ("nan", "inf", "-1", "0", "1e400"))
DELTAS = (("0.1", "0.5"), ("nan", "inf", "-1", "0", "3", "1e400"))
M_LISTS = (("1", "2,1", "1,1", "1,,2"), ("", ",", "0,1", "-1", "x", "1,x", "1.5"))
KINDS = (("walks", "searches", "walks,searches", "walks,", "searches,,walks"),
         ("walks,walks", "", ",", "trees"))
SEEDS = choice("-1", "0", "1", "2", "3", HUGE)
GRAPH, GRAPH2 = choice("G"), choice("H")
JSON_VERBS = ("sample", "bound", "covertime", "distinguish", "invariance",
              "reconstruct")


# verb -> ((flag, values, always given), ...); "G" and "H" stand for the
# two drawn graphs' files. A verb refuses a flag that its mode does not
# read, so `bound`'s two forms, which read disjoint flags, each have an
# entry ("bound:graph" runs `bound --graph`), and `invariance` draws its
# mode's flags.
VERBS = {
    "gen": (("--family", (tuple(FAMILIES), ("petersen",)), True),
            ("--n", INTS, False), ("--k", INTS, False),
            ("--avg-deg", FLOATS, False), ("--seed", SEEDS, False)),
    "sample": (("--graph", GRAPH, True),
               ("--kind", choice("walks", "searches"), True),
               ("--m", INTS, True), ("--seed", SEEDS, True),
               ("--length", INTS, False), ("--policy", choice(*POLICIES), False)),
    "coverage": (("--graph", GRAPH, True), ("--kinds", KINDS, False),
                 ("--m-list", M_LISTS, True), ("--trials", INTS, True),
                 ("--seed", SEEDS, True), ("--length", INTS, False)),
    "bound": (("--n", BIG_INTS, True), ("--C", FLOATS, True),
              ("--d-max", BIG_INTS, True), ("--delta", DELTAS, True)),
    "bound:graph": (("--graph", GRAPH, True), ("--delta", DELTAS, True),
                    ("--trials", INTS, True), ("--seed", SEEDS, True)),
    "covertime": (("--graph", GRAPH, True),
                  ("--policy", choice(*POLICIES), False),
                  ("--target", choice("node", "edge"), False),
                  ("--trials", INTS, True), ("--cap", BIG_INTS, False),
                  ("--seed", SEEDS, True)),
    "wl": (("--graph", GRAPH, True), ("--graph2", GRAPH2, False),
           ("--rounds", BIG_INTS, False)),
    "wwl": (("--graph", GRAPH, True), ("--graph2", GRAPH2, False),
            ("--rounds", BIG_INTS, False), ("--length", BIG_INTS, True)),
    "distinguish": (("--graph", GRAPH, True), ("--graph2", GRAPH2, True),
                    ("--test", choice("wl", "wwl"), False),
                    ("--length", BIG_INTS, False)),
    "invariance": (("--graph", GRAPH, True),
                   ("--mode", choice("exact", "sampled"), False),
                   ("--perm-seed", SEEDS, True), ("--trials", INTS, False),
                   ("--seed", SEEDS, False)),
    "reconstruct": (("--graph", GRAPH, True), ("--m", INTS, True),
                    ("--window", BIG_INTS, True), ("--seed", SEEDS, True)),
}


@st.composite
def small_graphs(draw) -> Graph:
    """0 to 7 nodes and any edge set: disconnected graphs, isolated nodes
    and the empty graph included."""
    if draw(st.booleans()):
        return draw(connected_graphs(min_n=2, max_n=7))
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def verb_argv(draw, verb):
    """The verb with its always-given flags and some others; in about half
    the draws, one or two of them take a value the verb may refuse."""
    flags = VERBS[verb]
    spoiled = set()
    if draw(st.booleans()):
        refusable = [flag for flag, (_, bad), _ in flags if bad]
        spoiled = draw(st.sets(st.sampled_from(refusable), min_size=1,
                               max_size=2))
    argv = [verb.partition(":")[0]]
    for flag, (good, bad), always in flags:
        if always or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(bad if flag in spoiled else good))]
    return argv


def run_cli(argv, graphs):
    """Run `main` in-process with "G"/"H" replaced by the graphs' files;
    returns (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, g in zip("GH", graphs):
            files[name] = str(Path(tmp, name + ".el"))
            Path(files[name]).write_text(save_edge_list(g))
        argv = [files.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_clean(argv, graphs):
    """Assert the exit contract; returns (code, stdout, parsed stderr)."""
    code, out, err = run_cli(argv, graphs)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code:
        assert out == ""
        error = json.loads(err)  # exactly one JSON value
        assert isinstance(error, dict) and set(error) == {"error", "message"}
        return code, out, error
    assert err == ""
    if argv[0] in JSON_VERBS:
        json.loads(out)
    return code, out, None


@pytest.mark.parametrize("verb", sorted(VERBS))
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_every_verb_exits_cleanly(verb, data):
    argv = data.draw(verb_argv(verb))
    graphs = (data.draw(small_graphs()), data.draw(small_graphs()))
    check_clean(argv, graphs)


EMPTY = Graph.from_edges(0, [])
PATH3 = path_graph(3)


@pytest.mark.parametrize(
    "argv, graph, message",
    [
        # a walk length below 1 is refused even when no node has a walk
        (["distinguish", "--graph", "G", "--graph2", "G", "--test", "wwl",
          "--length", "0"], EMPTY, "walk length must be >= 1"),
        (["wwl", "--graph", "G", "--length", "0"], EMPTY,
         "walk length must be >= 1"),
        # nan and inf used to give the complete graph, -1 a RuntimeError
        # after a thousand samples
        (["gen", "--family", "er_connected", "--n", "5", "--avg-deg", "nan",
          "--seed", "1"], EMPTY, "avg_deg must be finite and > 0"),
        (["gen", "--family", "er_connected", "--n", "5", "--avg-deg", "inf",
          "--seed", "1"], EMPTY, "avg_deg must be finite and > 0"),
        (["gen", "--family", "er_connected", "--n", "5", "--avg-deg", "-1",
          "--seed", "1"], EMPTY, "avg_deg must be finite and > 0"),
        # used to end in OverflowError and ZeroDivisionError tracebacks
        (["bound", "--n", "1" * 310, "--C", "3", "--d-max", "3", "--delta",
          "0.1"], EMPTY, "n must convert to a finite float"),
        (["bound", "--n", "10", "--C", "3", "--d-max", "10000000000000000",
          "--delta", "0.1"], EMPTY, "d_max must be at most 2**53"),
    ],
)
def test_rejected_inputs(argv, graph, message):
    code, _, error = check_clean(argv, (graph,))
    assert code == 1
    assert error == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("window", ["99999999999999", HUGE])
def test_huge_window_reports_the_full_window_result(window):
    argv = ["reconstruct", "--graph", "G", "--m", "2", "--seed", "5",
            "--window"]
    code, out, _ = check_clean(argv + [window], (PATH3,))
    _, full, _ = check_clean(argv + ["4"], (PATH3,))
    assert code == 0
    report, full = json.loads(out), json.loads(full)
    assert report.pop("s") == int(window) and full.pop("s") == 4
    assert report == full
