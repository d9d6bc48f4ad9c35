"""Golden CLI bytes: one sha256 per verb over a fixed sweep of calls.

Each digest covers, call by call, the argv (with the temporary directory
replaced by a placeholder), the exit code, stdout and stderr of an
in-process `cli.main` call, so any change in what a verb prints, or in
how it fails, changes that verb's digest. A change that alters a random
stream on purpose regenerates only the digest of the verb it touches and
says so in CHANGES.md. To print fresh digests:

    PYTHONPATH=src python -m tests.test_cli_golden

With `--calls` it prints instead one line per call of the sweep: the
verb, the call's index among that verb's calls and the sha256 of the
call's record (the bytes its verb's digest takes from it). A `diff` of
that printout from two checkouts names the calls whose bytes moved.

The same printout, under each other CPython that pyenv holds in its
default place, must give the same digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess

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
    "sample": "abfc951a697f6f0e571eff0d3d2eef4a02973dbb7f00b8cd3f57da430259cf1b",
    "coverage": "7e2452500d5ef8f643ddaf6f3b8efbd296525871c3bf7fb9865f414bd0683145",
    "bound": "c080e87f504680fc131423388b14d88e8547c6fbebe5608bd7d032f6dee2a78a",
    "covertime": "ff000e9c9583ccbe62677bb98aa34d08548a31ae07e990a6ebe26d18d431099c",
    "wl": "b489aaa3b44d937af211aa1c2afcdb3f2c0ef3d267ec0761bf784a179b5590af",
    "wwl": "9305e3d6e223e60f19632b6e8e4503494e936bb4f59c174298873de6f3e20f6a",
    "distinguish": "2bda17380b40c1391bd4fda2b40352d26e8614b6e900272200c62e247b55e9b9",
    "invariance": "309fb84dadce30ca7710d4220e12f175bc2abd77033e653892af27ced7b6a5f8",
    "reconstruct": "5bf86834342897f7bb4e264fba50405685c40e1df887cc7c01b32a1659ba6b8b",
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


def call_record(call, directory) -> bytes:
    """The bytes a verb's digest takes from one call: its argv, exit code,
    stdout and stderr as one JSON line, with the directory replaced by
    "<tmp>" in all three texts."""
    tmp = str(directory)
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
    return json.dumps(record).encode() + b"\n"


def verb_digest(calls, directory) -> str:
    """sha256 over the `call_record` of each call in turn."""
    digest = hashlib.sha256()
    for call in calls:
        digest.update(call_record(call, directory))
    return digest.hexdigest()


def call_lines(sweep_calls, directory):
    """One line per call: verb, index within the verb's calls, and the
    sha256 of its `call_record`."""
    for verb, calls in sweep_calls.items():
        for i, call in enumerate(calls):
            record = call_record(call, directory)
            yield f"{verb} {i} {hashlib.sha256(record).hexdigest()}"


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_graphs(directory)
    return directory


@pytest.mark.parametrize("verb", list(GOLDEN))
def test_verb_bytes_match_golden(verb, graph_dir):
    assert verb_digest(sweep()[verb], graph_dir) == GOLDEN[verb]


def test_call_lines_hash_the_records_of_the_digest(graph_dir):
    calls = {verb: sweep()[verb][-2:] for verb in ("bound", "distinguish")}
    lines = [line.split() for line in call_lines(calls, graph_dir)]
    assert [line[:2] for line in lines] == [
        ["bound", "0"], ["bound", "1"], ["distinguish", "0"], ["distinguish", "1"]
    ]
    records = [call_record(call, graph_dir) for verb in calls for call in calls[verb]]
    assert [line[2] for line in lines] == [
        hashlib.sha256(record).hexdigest() for record in records
    ]
    # the verb's digest hashes the same records, in call order
    for verb, verb_records in (("bound", records[:2]), ("distinguish", records[2:])):
        digest = hashlib.sha256(b"".join(verb_records)).hexdigest()
        assert verb_digest(calls[verb], graph_dir) == digest
    # a call that fails prints a line too, with its refusal in the record
    assert json.loads(records[3])[1:3] == [2, ""]


REPO = pathlib.Path(__file__).resolve().parent.parent
# the module runs without pytest under these: its two decorators do nothing
PYTEST_STUB = """
def fixture(*args, **kwargs):
    return lambda f: f


class mark:
    @staticmethod
    def parametrize(*args, **kwargs):
        return lambda f: f
"""


OTHER_INTERPRETERS = ["3.10.13", "3.12.1", "3.13.0"]


def printed_digests(version, module, tmp_path) -> dict:
    """The digests that `python -m module` prints, one `"name": "digest",`
    line each, under pyenv's CPython `version`, with the pytest stub on
    its path; the calling test is skipped if that CPython is missing."""
    python = pathlib.Path.home() / ".pyenv" / "versions" / version / "bin" / "python"
    if not python.exists():
        pytest.skip(f"no CPython {version} at {python}")
    (tmp_path / "pytest.py").write_text(PYTEST_STUB)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(tmp_path), str(REPO / "src")]))
    out = subprocess.run(
        [str(python), "-m", module], cwd=REPO, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    return json.loads("{" + out.strip().rstrip(",") + "}")


@pytest.mark.parametrize("version", OTHER_INTERPRETERS)
def test_other_interpreters_print_golden(version, tmp_path):
    assert printed_digests(version, "tests.test_cli_golden", tmp_path) == GOLDEN


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as name:
        directory = pathlib.Path(name)
        write_graphs(directory)
        if sys.argv[1:] == ["--calls"]:
            for line in call_lines(sweep(), directory):
                print(line)
        else:
            for verb, calls in sweep().items():
                print(f'    "{verb}": "{verb_digest(calls, directory)}",')
