"""Job lists for the three workloads, generated from the workload seed.

A job is one CLI verb invocation. Graph operands are written as ``@key``
and resolved to the files written during set-up. Sizes are fixed per
workload; the seed chooses the per-job ``--seed`` and ``--perm-seed``
values, the interleaved job order, and the random trees whose shape does
not change the work, so every seed does about the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("search_mc", "walk_mc", "deterministic")


@dataclass(frozen=True)
class GraphSpec:
    """A graph file made in set-up: a family via the ``gen`` verb, or a
    relabeled copy of another spec's graph (``relabel_of``)."""

    key: str
    family: str
    size: int = 0
    seed: int | None = None
    relabel_of: str | None = None


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    trials: int = 0
    ref: str | None = None  # key into references.json for exact checks

    @property
    def verb(self) -> str:
        return self.argv[0]

    def flags(self) -> dict:
        return dict(zip(self.argv[1::2], self.argv[2::2]))


def gen_argv(spec: GraphSpec) -> list[str]:
    size_flag = "--k" if spec.family == "hex_chain" else "--n"
    argv = ["gen", "--family", spec.family, size_flag, str(spec.size)]
    if spec.seed is not None:
        argv += ["--seed", str(spec.seed)]
    return argv


class _Workload:
    def __init__(self, seed: int):
        self.rng = random.Random(f"perfbench:{seed}")
        self.graphs: dict[str, GraphSpec] = {}
        self.jobs: list[Job] = []

    def graph(self, spec: GraphSpec) -> str:
        self.graphs[spec.key] = spec
        return "@" + spec.key

    def seed(self) -> str:
        return str(self.rng.randrange(2**31))

    def add(self, argv, trials: int = 0, ref: str | None = None, copies: int = 1):
        """Add `copies` jobs; a callable in argv (``seed``) is drawn per copy."""
        for _ in range(copies):
            resolved = tuple(a() if callable(a) else str(a) for a in argv)
            self.jobs.append(Job(resolved, trials, ref))

    def done(self):
        self.rng.shuffle(self.jobs)
        return self.graphs, self.jobs


def search_mc(seed: int):
    """Randomized-DFS trial loops: many trials on n of 14..252, plus a few
    handfuls of searches on n of 1k..16k."""
    b = _Workload(seed)
    s = b.seed
    hex2 = b.graph(GraphSpec("hex2", "hex_chain", 2))
    hex5 = b.graph(GraphSpec("hex5", "hex_chain", 5))
    hex10 = b.graph(GraphSpec("hex10", "hex_chain", 10))
    hex36 = b.graph(GraphSpec("hex36", "hex_chain", 36))
    cyc16 = b.graph(GraphSpec("cyc16", "cycle", 16))
    cyc64 = b.graph(GraphSpec("cyc64", "cycle", 64))
    cyc250 = b.graph(GraphSpec("cyc250", "cycle", 250))
    path40 = b.graph(GraphSpec("path40", "path", 40))
    # one search covers a whole tree, so tree shape barely changes the work
    trees70 = [b.graph(GraphSpec(f"tree70_{i}", "random_tree", 70, b.rng.randrange(2**31)))
               for i in range(4)]
    tree250 = b.graph(GraphSpec("tree250", "random_tree", 250, b.rng.randrange(2**31)))
    big = [
        b.graph(GraphSpec("hex150", "hex_chain", 150)),
        b.graph(GraphSpec("cyc4096", "cycle", 4096)),
        b.graph(GraphSpec("tree8192", "random_tree", 8192, b.rng.randrange(2**31))),
        b.graph(GraphSpec("hex2300", "hex_chain", 2300)),
    ]

    for g in (hex2, hex5, hex10, cyc16, cyc64, path40, *trees70):
        for delta in ("0.05", "0.1"):
            b.add(["bound", "--graph", g, "--delta", delta, "--trials", 100,
                   "--seed", s], trials=100, copies=2)
    for g in (hex10, hex36, cyc64, cyc250, tree250, *trees70[:2]):
        b.add(["coverage", "--graph", g, "--kinds", "searches",
               "--m-list", "1,2,4,8", "--trials", 20, "--seed", s],
              trials=20, copies=3)
    for g in (hex2, cyc16, hex5):
        b.add(["invariance", "--graph", g, "--mode", "sampled",
               "--perm-seed", s, "--trials", 200, "--seed", s],
              trials=200, copies=2)
    for g, m in ((hex10, 20), (cyc64, 20), (trees70[0], 20), (hex36, 5), (cyc250, 5)):
        b.add(["sample", "--graph", g, "--kind", "searches", "--m", m,
               "--seed", s], trials=m, copies=6)
    for g in big:
        b.add(["sample", "--graph", g, "--kind", "searches", "--m", 2,
               "--seed", s], trials=2, copies=2)
    return b.done()


POLICIES = ("uniform", "non_backtracking", "local_rule")


def walk_mc(seed: int):
    """Walk trial loops on slow-mixing cycles, a tree and hex chains."""
    b = _Workload(seed)
    s = b.seed
    cyc32 = b.graph(GraphSpec("cyc32", "cycle", 32))
    cyc64 = b.graph(GraphSpec("cyc64", "cycle", 64))
    hex4 = b.graph(GraphSpec("hex4", "hex_chain", 4))
    hex10 = b.graph(GraphSpec("hex10", "hex_chain", 10))
    # Cover times depend on tree shape, so the tree is fixed, not seeded.
    # Its twelve local_rule jobs hold rank p90 (four heavier jobs lie above
    # them); one shape keeps that group alike, so p90 moves only with the
    # cover-time draws and not with which shape lands on the rank.
    tree = b.graph(GraphSpec("tree40", "random_tree", 40, 1000))

    for g, copies in ((cyc32, 1), (cyc64, 1), (hex4, 1), (hex10, 1), (tree, 6)):
        for policy in POLICIES:
            for target in ("node", "edge"):
                b.add(["covertime", "--graph", g, "--policy", policy,
                       "--target", target, "--trials", 40, "--seed", s],
                      trials=40, copies=copies)
    for g, copies in ((cyc64, 4), (hex10, 4), (tree, 8)):
        b.add(["coverage", "--graph", g, "--kinds", "walks",
               "--m-list", "1,2,4,8", "--trials", 20, "--seed", s],
              trials=20, copies=copies)
    for g in (cyc32, cyc64, hex10, tree):
        for policy in POLICIES:
            b.add(["sample", "--graph", g, "--kind", "walks", "--m", 20,
                   "--policy", policy, "--seed", s], trials=20, copies=3)
    return b.done()


def deterministic(seed: int):
    """Refinement, exact enumeration, encoding and reconstruction: no
    sampling loop except the searches reconstruction encodes."""
    b = _Workload(seed)
    s = b.seed
    path1000 = b.graph(GraphSpec("path1000", "path", 1000))
    path200 = b.graph(GraphSpec("path200", "path", 200))
    hex200 = b.graph(GraphSpec("hex200", "hex_chain", 200))
    hex150 = b.graph(GraphSpec("hex150", "hex_chain", 150))
    hex2 = b.graph(GraphSpec("hex2", "hex_chain", 2))
    hex5 = b.graph(GraphSpec("hex5", "hex_chain", 5))
    hex10 = b.graph(GraphSpec("hex10", "hex_chain", 10))
    cyc12 = b.graph(GraphSpec("cyc12", "cycle", 12))
    cyc35 = b.graph(GraphSpec("cyc35", "cycle", 35))
    cyc70 = b.graph(GraphSpec("cyc70", "cycle", 70))
    path35 = b.graph(GraphSpec("path35", "path", 35))
    path8 = b.graph(GraphSpec("path8", "path", 8))
    # exact enumeration and refinement cost depend on tree shape: fixed trees
    trees8 = [b.graph(GraphSpec(f"tree8_{i}", "random_tree", 8, 2000 + i)) for i in range(3)]
    tree40 = b.graph(GraphSpec("tree40", "random_tree", 40, 2003))
    tree40p = b.graph(GraphSpec("tree40p", "relabel", seed=b.rng.randrange(2**31),
                                relabel_of="tree40"))

    b.add(["wl", "--graph", path1000], ref="wl path1000")
    b.add(["wl", "--graph", hex200], ref="wl hex200")
    # a dozen equal WL jobs just below the four heaviest hold rank p90
    b.add(["wl", "--graph", path200], ref="wl path200", copies=12)
    b.add(["wl", "--graph", hex10, "--graph2", cyc70], ref="wl hex10+cyc70", copies=6)
    b.add(["wl", "--graph", path35, "--graph2", cyc35], ref="wl path35+cyc35", copies=6)
    for g, key in ((hex5, "hex5"), (cyc12, "cyc12"), (path35, "path35")):
        for length in (2, 3):
            b.add(["wwl", "--graph", g, "--length", length],
                  ref=f"wwl {key} L{length}", copies=4)
    b.add(["wwl", "--graph", hex5, "--graph2", cyc35, "--length", 2],
          ref="wwl hex5+cyc35 L2", copies=3)
    for g, h, key in ((hex10, cyc70, "hex10+cyc70"), (path35, cyc35, "path35+cyc35"),
                      (cyc12, cyc12, "cyc12+cyc12")):
        b.add(["distinguish", "--graph", g, "--graph2", h, "--test", "wl"],
              ref=f"distinguish wl {key}", copies=4)
        b.add(["distinguish", "--graph", g, "--graph2", h, "--test", "wwl",
               "--length", 2], ref=f"distinguish wwl2 {key}", copies=4)
    for test in (("wl",), ("wwl", "--length", 2)):
        b.add(["distinguish", "--graph", tree40, "--graph2", tree40p,
               "--test", *test], copies=4)
    for g in (hex2, cyc12, path8, *trees8):
        b.add(["invariance", "--graph", g, "--mode", "exact", "--perm-seed", s],
              copies=4)
    b.add(["reconstruct", "--graph", hex150, "--m", 1, "--window", 7 * 150 + 1,
           "--seed", s], trials=1, copies=2)
    return b.done()


_BY_NAME = {"search_mc": search_mc, "walk_mc": walk_mc, "deterministic": deterministic}


def build(workload: str, seed: int):
    """Return (graph specs by key, job list) for a workload and seed."""
    return _BY_NAME[workload](seed)
