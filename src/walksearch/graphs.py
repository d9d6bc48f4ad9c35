"""Undirected simple graphs with integer node ids, plus generators and edge-list I/O.

Graphs are immutable after construction: node ids are exactly 0..n-1,
neighbor lists are kept sorted, and there are no self-loops or parallel
edges. All randomness in the generators enters through an explicit seed.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from dataclasses import dataclass


class GraphParseError(ValueError):
    """Raised when edge-list text cannot be parsed into a graph."""


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph stored as sorted adjacency lists."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    edge_count: int

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph on nodes 0..n-1 from an iterable of (u, v) pairs.

        Duplicate edges (in either orientation) are merged. Self-loops and
        out-of-range ids raise ValueError.
        """
        if n < 0:
            raise ValueError(f"node count must be nonnegative, got {n}")
        nbrs: list[list[int]] = [[] for _ in range(n)]
        # edge {u, v}, u < v, keyed by the int u * n + v: no tuple per edge
        seen: set[int] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            key = u * n + v if u < v else v * n + u
            if key not in seen:
                seen.add(key)
                nbrs[u].append(v)
                nbrs[v].append(u)
        adjacency = tuple(map(tuple, map(sorted, nbrs)))
        return Graph(n=n, adjacency=adjacency, edge_count=len(seen))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> list[int]:
        return [len(row) for row in self.adjacency]

    def edges(self) -> frozenset[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v."""
        return frozenset(
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        )

    def neighbor_sets(self) -> list[set[int]]:
        """Adjacency as a list of sets, for O(1) membership tests."""
        return [set(row) for row in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        """True when u and v are node ids (0..n-1) joined by an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        row = self.adjacency[u]
        if len(row) > len(self.adjacency[v]):
            row, u, v = self.adjacency[v], v, u
        return v in row

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.n

    def validate(self) -> None:
        """Re-check the structural invariants; raises ValueError on violation."""
        deg_sum = 0
        for u, row in enumerate(self.adjacency):
            deg_sum += len(row)
            if list(row) != sorted(set(row)):
                raise ValueError(f"neighbor list of {u} not sorted/deduplicated")
            for v in row:
                if v == u:
                    raise ValueError(f"self-loop at {u}")
                if not 0 <= v < self.n:
                    raise ValueError(f"neighbor {v} of {u} out of range")
                if u not in self.adjacency[v]:
                    raise ValueError(f"asymmetric edge ({u}, {v})")
        if deg_sum != 2 * self.edge_count:
            raise ValueError("edge_count does not match half the degree sum")


@dataclass(frozen=True)
class DegreeStats:
    """Degree summary: max degree, average degree, and edges-per-node ratio."""

    d_max: int
    avg_deg: float
    sparsity_c: float


def degree_stats(g: Graph) -> DegreeStats:
    d_max = max(g.degrees(), default=0)
    n = g.n if g.n else 1
    return DegreeStats(
        d_max=d_max,
        avg_deg=2.0 * g.edge_count / n,
        sparsity_c=g.edge_count / n,
    )


# ---------------------------------------------------------------------------
# edge-list I/O
#
# Format: one "u v" pair per line, 0-based ids. Lines starting with '#' are
# comments; a "# n=<k>" line declares the node count (otherwise it is
# 1 + the largest id seen). Pairs may come in any order and either
# orientation, and repeats merge. The writer emits the canonical form: a
# "# n=<k>" first line, then one "u v\n" line of ASCII digits per edge,
# u < v < k, the pairs strictly increasing. The reader takes that form in
# bulk and parses any other text line by line; both give the same Graph.

# the most nodes a graph file may have, far above the largest benchmark
# graph (16,100 nodes): the graph holds one neighbor list per node, so a
# file's header or one large id could otherwise ask for billions of them
MAX_FILE_NODES = 10**6


def load_edge_list(text: str) -> Graph:
    """Parse edge-list text in the format above; raises GraphParseError."""
    g = _load_canonical(text)
    return g if g is not None else _parse_lines(text)


def _load_canonical(text: str) -> Graph | None:
    """The graph of `text` if it is in the writer's canonical form, else None.

    The pairs arrive strictly increasing with u < v, so appending each to
    both rows gives sorted rows free of repeats, with no per-edge tuple,
    dedup set or per-row sort (what the line parser pays for).
    """
    if not (text.startswith("# n=") and text.endswith("\n")):
        return None
    head, _, body = text.partition("\n")
    lines = body.count("\n")
    # deleting the ASCII digits leaves " \n" once per line (a regex over
    # the body would hold backtracking state for every line it matched);
    # with 2 ids per line, each line is then "u v\n"
    if body.encode().translate(None, b"0123456789") != b" \n" * lines:
        return None
    tokens = body.split()
    if len(tokens) != 2 * lines or not head[4:].isdigit():
        return None
    try:
        n = int(head[4:])
        ids = list(map(int, tokens))
    except ValueError:  # past int's digit limit, or a digit int() refuses
        return None
    if n > MAX_FILE_NODES:
        return None
    rows: list[list[int]] = [[] for _ in range(n)]
    # pair (u, v), u < v < n, keyed by u * n + v, which orders as the pairs
    last = -1
    pairs = iter(ids)
    for u, v in zip(pairs, pairs):
        key = u * n + v
        if not (last < key and u < v < n):
            return None
        last = key
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n=n, adjacency=tuple(map(tuple, rows)), edge_count=lines)


def _parse_lines(text: str) -> Graph:
    declared_n: int | None = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                try:
                    declared_n = int(m.group(1))
                except ValueError:  # past int's digit limit
                    raise GraphParseError(
                        f"line {lineno}: declared n exceeds the graph-file cap"
                        f" of {MAX_FILE_NODES} nodes"
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
    if n > MAX_FILE_NODES:
        raise GraphParseError(
            f"n={n} exceeds the graph-file cap of {MAX_FILE_NODES} nodes"
        )
    return Graph.from_edges(n, edges)


def save_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    # rows are sorted, so the pairs u < v come out in sorted order
    lines.extend(
        f"{u} {v}" for u, row in enumerate(g.adjacency) for v in row if u < v
    )
    return "\n".join(lines) + "\n"


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_edge_list(fh.read())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_edge_list(g))


# ---------------------------------------------------------------------------
# structural operations


def relabel(g: Graph, perm) -> Graph:
    """Apply a permutation of 0..n-1 to the node ids.

    perm[i] is the new id of node i. The result is isomorphic to g.
    """
    perm = list(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of 0..n-1")
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def inverse_permutation(perm) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def random_permutation(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Place g and h side by side; h's ids are offset by g.n."""
    edges = list(g.edges())
    edges.extend((u + g.n, v + g.n) for u, v in h.edges())
    return Graph.from_edges(g.n + h.n, edges)


# ---------------------------------------------------------------------------
# generators


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edges(
        n, ((i, j) for i in range(n) for j in range(i + 1, n))
    )


def star_graph(n: int) -> Graph:
    """Node 0 is the hub; nodes 1..n-1 are leaves."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph.from_edges(n, ((0, i) for i in range(1, n)))


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on n nodes (Pruefer decoding)."""
    if n < 1:
        raise ValueError("tree needs n >= 1")
    if n == 1:
        return Graph.from_edges(1, ())
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


ER_MAX_RETRIES = 1000


def er_connected(n: int, avg_deg: float, seed: int) -> Graph:
    """G(n, p) with p = avg_deg / (n - 1), resampled until connected.

    Deterministic given the seed. Raises RuntimeError if no connected
    sample appears within ER_MAX_RETRIES attempts.
    """
    if n < 2:
        raise ValueError("er_connected needs n >= 2")
    if not 0.0 < avg_deg < math.inf:
        raise ValueError("avg_deg must be finite and > 0")
    p = min(1.0, avg_deg / (n - 1))
    rng = random.Random(seed)
    for _ in range(ER_MAX_RETRIES):
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    raise RuntimeError(
        f"er_connected({n}, {avg_deg}): no connected sample in "
        f"{ER_MAX_RETRIES} attempts"
    )


def hex_chain(k: int) -> Graph:
    """Chain of k six-cycles, each carrying one degree-1 pendant.

    Unit i occupies nodes 7i..7i+6: a hexagon on 7i..7i+5 with the pendant
    7i+6 attached at 7i. Consecutive hexagons are bridged by an edge from
    node 7i+3 to node 7(i+1)+5, keeping the maximum degree at 3.
    """
    if k < 1:
        raise ValueError("hex_chain needs k >= 1")
    edges = []
    for i in range(k):
        base = 7 * i
        for j in range(6):
            edges.append((base + j, base + (j + 1) % 6))
        edges.append((base, base + 6))
        if i + 1 < k:
            edges.append((base + 3, base + 7 + 5))
    return Graph.from_edges(7 * k, edges)


# family name -> (generator, its parameter names in call order)
FAMILIES = {
    "path": (path_graph, ("n",)),
    "cycle": (cycle_graph, ("n",)),
    "complete": (complete_graph, ("n",)),
    "star": (star_graph, ("n",)),
    "random_tree": (random_tree, ("n", "seed")),
    "er_connected": (er_connected, ("n", "avg_deg", "seed")),
    "hex_chain": (hex_chain, ("k",)),
}


def gen_family(family: str, seed: int = 0, **params) -> Graph:
    """Generate a named graph family: its `FAMILIES` generator gets its
    listed parameters from `params` and `seed` (only the random families
    take a seed); a missing parameter raises ValueError."""
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose from {tuple(FAMILIES)}"
        )
    generator, names = FAMILIES[family]
    params["seed"] = seed
    for name in names:
        if name not in params:
            raise ValueError(f"family {family} needs parameter {name!r}")
    return generator(*map(params.__getitem__, names))
