"""Golden CLI bytes: one sha256 per verb over a fixed sweep of calls.

Each digest covers, call by call, the argv (with the temporary directory
replaced by a placeholder), the exit code, stdout and stderr of an
in-process `cli.main` call, so any change in what a verb prints, or in
how it fails, changes that verb's digest. A change that alters a random
stream on purpose regenerates only the digest of the verb it touches and
says so in CHANGES.md. To print fresh digests:

    PYTHONPATH=src python -m tests.test_cli_golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from walksearch.cli import main
from walksearch.graphs import (
    complete_graph,
    cycle_graph,
    hex_chain,
    path_graph,
    random_tree,
    star_graph,
    write_edge_list,
)
from walksearch.samplers import POLICIES

GRAPHS = {
    "hex3": lambda: hex_chain(3),
    "cycle12": lambda: cycle_graph(12),
    "path10": lambda: path_graph(10),
    "tree20": lambda: random_tree(20, 5),
    "star6": lambda: star_graph(6),
    "k5": lambda: complete_graph(5),
}
# only the exact-invariance refusal reads this one
BIG_PATH = ("path1200", lambda: path_graph(1200))
SEEDS = ("1", "2")
PAIRS = (("cycle12", "path10"), ("star6", "k5"), ("hex3", "tree20"))

GOLDEN = {
    "gen": "0efec334a01ba97451999ee0f64364b6504839299263ea0506fd4f4aa3037e9e",
    "sample": "6878453eb60bd350a9e86230ae4cdb52761168448e1814b7c014af18204c04be",
    "coverage": "30a50057af2d84eaa5291b0da1a7b3b76f0843d66e3a3e4ddcd9ee930e3d8313",
    "bound": "c080e87f504680fc131423388b14d88e8547c6fbebe5608bd7d032f6dee2a78a",
    "covertime": "4d191ad0d4db3f8192cc1d2cc1f046fdfe6abf0108f3ff50ccd403de673e21f6",
    "wl": "b489aaa3b44d937af211aa1c2afcdb3f2c0ef3d267ec0761bf784a179b5590af",
    "wwl": "9305e3d6e223e60f19632b6e8e4503494e936bb4f59c174298873de6f3e20f6a",
    "distinguish": "381ecb6edfd00ad512e44673df96f6a7a8356b4d563e4a528b5429e556958099",
    "invariance": "f1e7adaaf741adddeae038f5be52f48671b00acb4f40ef2ad14a88dd99c56e7b",
    "reconstruct": "a4276faac6aa74eb5dbe8ddcc02cae09951ee124bef96bd57760be06ebce29ce",
}


def sweep() -> dict[str, list[list[str]]]:
    """The calls of each verb; "@key" stands for the graph file of key."""
    calls: dict[str, list[list[str]]] = {verb: [] for verb in GOLDEN}
    gen = calls["gen"]
    for family, n in (("path", "10"), ("cycle", "12"), ("complete", "5"),
                      ("star", "6")):
        gen.append(["gen", "--family", family, "--n", n])
    gen.append(["gen", "--family", "hex_chain", "--k", "3"])
    for seed in SEEDS + ("5",):
        gen.append(["gen", "--family", "random_tree", "--n", "20",
                    "--seed", seed])
    for seed in SEEDS:
        gen.append(["gen", "--family", "er_connected", "--n", "24",
                    "--avg-deg", "3.0", "--seed", seed])
    gen.append(["gen", "--family", "cycle"])
    gen.append(["gen", "--family", "random_tree", "--n", "20"])
    gen.append(["gen", "--family", "no_such_family", "--n", "3"])

    for key in GRAPHS:
        g = "@" + key
        for seed in SEEDS:
            calls["sample"].append(["sample", "--graph", g, "--kind",
                                    "searches", "--m", "3", "--seed", seed])
            for policy in POLICIES:
                calls["sample"].append(
                    ["sample", "--graph", g, "--kind", "walks", "--m", "3",
                     "--seed", seed, "--length", "8", "--policy", policy])
            calls["coverage"].append(
                ["coverage", "--graph", g, "--m-list", "1,2,4", "--trials",
                 "4", "--seed", seed])
            calls["bound"].append(["bound", "--graph", g, "--delta", "0.1",
                                   "--trials", "20", "--seed", seed])
            for policy in POLICIES:
                for target in ("node", "edge"):
                    calls["covertime"].append(
                        ["covertime", "--graph", g, "--policy", policy,
                         "--target", target, "--trials", "5", "--seed", seed])
            calls["invariance"].append(
                ["invariance", "--graph", g, "--mode", "sampled",
                 "--perm-seed", seed, "--trials", "40", "--seed", seed])
            for window in ("3", "30"):
                calls["reconstruct"].append(
                    ["reconstruct", "--graph", g, "--m", "3", "--window",
                     window, "--seed", seed])
        calls["invariance"].append(["invariance", "--graph", g, "--mode",
                                    "exact", "--perm-seed", "1"])
        calls["wl"].append(["wl", "--graph", g])
        calls["wl"].append(["wl", "--graph", g, "--rounds", "2"])
        for length in ("1", "2"):
            calls["wwl"].append(["wwl", "--graph", g, "--length", length])
    calls["sample"].append(["sample", "--graph", "@missing", "--kind",
                            "walks", "--m", "1", "--seed", "1"])
    calls["coverage"].append(["coverage", "--graph", "@path10", "--kinds",
                              "searches", "--m-list", "0", "--trials", "2",
                              "--seed", "1"])
    calls["bound"].extend([
        ["bound", "--n", "100", "--C", "1.5", "--d-max", "3", "--delta",
         "0.05"],
        ["bound", "--n", "2", "--C", "1.0", "--d-max", "1", "--delta", "0.5"],
        ["bound", "--n", "4", "--C", "0.1", "--d-max", "3", "--delta", "0.5"],
        ["bound", "--graph", "@k5", "--delta", "0.1"],
    ])
    calls["covertime"].append(["covertime", "--graph", "@cycle12", "--trials",
                               "3", "--cap", "5", "--seed", "1"])
    for a, b in PAIRS:
        calls["wl"].append(["wl", "--graph", "@" + a, "--graph2", "@" + b])
        calls["wwl"].append(["wwl", "--graph", "@" + a, "--graph2", "@" + b,
                             "--length", "2", "--rounds", "3"])
        calls["distinguish"].append(["distinguish", "--graph", "@" + a,
                                     "--graph2", "@" + b])
        for length in ("1", "2"):
            calls["distinguish"].append(
                ["distinguish", "--graph", "@" + a, "--graph2", "@" + b,
                 "--test", "wwl", "--length", length])
    calls["distinguish"].append(["distinguish", "--graph", "@hex3",
                                 "--graph2", "@hex3", "--test", "wwl"])
    calls["invariance"].append(["invariance", "--graph", "@" + BIG_PATH[0],
                                "--mode", "exact", "--perm-seed", "0"])
    calls["invariance"].append(["invariance", "--graph", "@k5", "--mode",
                                "sampled", "--perm-seed", "1"])
    return calls


def write_graphs(directory) -> None:
    for key, make in list(GRAPHS.items()) + [BIG_PATH]:
        write_edge_list(make(), directory / f"{key}.el")


def verb_digest(calls, directory) -> str:
    """sha256 over (argv, exit code, stdout, stderr) of each call in turn,
    with the directory replaced by "<tmp>" in all three texts."""
    tmp = str(directory)
    digest = hashlib.sha256()
    for call in calls:
        argv = [f"{tmp}/{a[1:]}.el" if a.startswith("@") else a for a in call]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = [
            [a.replace(tmp, "<tmp>") for a in argv],
            code,
            out.getvalue().replace(tmp, "<tmp>"),
            err.getvalue().replace(tmp, "<tmp>"),
        ]
        digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_graphs(directory)
    return directory


@pytest.mark.parametrize("verb", list(GOLDEN))
def test_verb_bytes_match_golden(verb, graph_dir):
    assert verb_digest(sweep()[verb], graph_dir) == GOLDEN[verb]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as name:
        directory = pathlib.Path(name)
        write_graphs(directory)
        for verb, calls in sweep().items():
            print(f'    "{verb}": "{verb_digest(calls, directory)}",')
