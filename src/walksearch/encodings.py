"""Positional encodings for node sequences.

Identity encodings mark node repetitions inside a sliding window,
adjacency encodings mark true edges among windowed pairs (including pairs
a search sequence jumps between without traversing an edge), and
anonymous encodings replace node ids by first-appearance ranks. With both
identity (s columns) and adjacency (s-1 columns) present the combined
width is 2s-1. Identity and adjacency encodings are read-only byte
matrices: memoryviews of format "b" and shape (rows, cols).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph
from .samplers import SearchRecord, WalkRecord


def _nodes_of(seq) -> tuple[int, ...]:
    if isinstance(seq, WalkRecord):
        return seq.nodes
    if isinstance(seq, SearchRecord):
        return seq.visit_order
    return tuple(seq)


def _byte_matrix(buf: bytearray, rows: int, cols: int) -> memoryview:
    """Read-only (rows, cols) view of `buf`; a view's shape cannot hold 0."""
    if not rows:
        raise ValueError("empty sequence")
    return memoryview(buf).cast("b", (rows, cols)).toreadonly()


def identity_encoding(seq, s: int, self_column: bool = True) -> memoryview:
    """Read-only byte view marking windowed node repetitions.

    Entry [i, j] is 1 iff i >= 1, i-j >= 0, and w_i == w_{i-j}, with
    columns j = 0..s-1: column j says the current node appeared exactly j
    steps earlier. Column j=0 compares a node with itself and is 1 for
    every row i >= 1; it is kept because the combined encoding width 2s-1
    counts it. Pass self_column=False to use lags j = 1..s instead (same
    shape, no degenerate column). Row 0 is always all zeros.
    """
    if s < 1:
        raise ValueError("window must be >= 1")
    nodes = _nodes_of(seq)
    rows = len(nodes)
    buf = bytearray(rows * s)
    offset = 0 if self_column else 1
    for i in range(1, rows):
        for col in range(s):
            k = i - (col + offset)
            if k >= 0 and nodes[i] == nodes[k]:
                buf[i * s + col] = 1
    return _byte_matrix(buf, rows, s)


def adjacency_encoding(g: Graph, seq, s: int) -> memoryview:
    """Read-only byte view marking true edges among windowed pairs.

    Entry [i, j-1] is 1 iff i-j >= 0 and (w_i, w_{i-j}) is an edge of g,
    with columns j = 1..s-1. The sequence need not be a walk: search
    sequences contain consecutive pairs that are not edges, and those rows
    show 0 in the first column. With s >= len(seq)+1 every earlier
    position is in the window, which is what makes windowed
    reconstruction of all edges among visited nodes possible.
    """
    if s < 2:
        raise ValueError("window must be >= 2 for adjacency encodings")
    nodes = _nodes_of(seq)
    for w in nodes:
        if not 0 <= w < g.n:
            raise ValueError(f"node id {w} out of range")
    rows = len(nodes)
    adjacency = g.adjacency
    buf = bytearray(rows * (s - 1))
    # Each row runs the cheaper of two loops. Looking up the earlier
    # positions of each neighbor in `seen` costs the degree plus the set
    # cells, which in a search are at most the degree again; testing each
    # windowed position against the neighbor set (built once per node)
    # costs the window width. A row looks up when twice its degree is
    # below its width, so it costs O(min(degree, width) + its set cells),
    # and the sets O(m) at most.
    seen: dict[int, list[int]] = {}
    nbr_sets: dict[int, set[int]] = {}
    for i, w in enumerate(nodes):
        row = i * (s - 1)
        width = min(s - 1, i)
        nbrs = adjacency[w]
        if 2 * len(nbrs) < width:
            for v in nbrs:
                for p in reversed(seen.get(v, ())):
                    if i - p >= s:
                        break
                    buf[row + i - p - 1] = 1
        elif width:
            row_nbrs = nbr_sets.get(w)
            if row_nbrs is None:
                row_nbrs = nbr_sets[w] = set(nbrs)
            for j in range(1, width + 1):
                if nodes[i - j] in row_nbrs:
                    buf[row + j - 1] = 1
        seen.setdefault(w, []).append(i)
    return _byte_matrix(buf, rows, s - 1)


@dataclass(frozen=True)
class AnonSequence:
    """First-appearance labels of a sequence: label values 1, 2, 3, ...

    Two positions carry the same label iff they hold the same node, and
    labels are assigned in order of first appearance, so the labeling is
    invariant to any relabeling of the underlying nodes.
    """

    labels: tuple[int, ...]


def anonymous_encoding(seq) -> AnonSequence:
    """Assign each node the next unused label at its first appearance."""
    nodes = _nodes_of(seq)
    if not nodes:
        raise ValueError("empty sequence")
    labels = []
    first: dict[int, int] = {}
    for w in nodes:
        if w not in first:
            first[w] = len(first) + 1
        labels.append(first[w])
    return AnonSequence(labels=tuple(labels))


@dataclass(frozen=True)
class TagMap:
    """Bijection node -> 1..n following the first-visit order of one search."""

    tags: dict

    def apply(self, seq) -> tuple[int, ...]:
        nodes = _nodes_of(seq)
        return tuple(self.tags[w] for w in nodes)


def anonymous_tags(first_search: SearchRecord) -> TagMap:
    """Tag nodes by their first-visit rank in `first_search` (1-based).

    The same map is meant to be applied to every search in a sample set,
    so tagged sequences stay mutually comparable.
    """
    return TagMap(
        tags={v: i + 1 for i, v in enumerate(first_search.visit_order)}
    )

