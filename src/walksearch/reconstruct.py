"""Edge-set recovery from search sequences and their adjacency encodings.

Every 1 entry of an adjacency encoding names one true edge (the current
node and the node j steps back). Unioning those pairs across a sample of
searches recovers edges; with window s >= n+1 a single search already
sees every earlier position, so all edges among visited nodes appear.
Recovery can only ever miss edges, never invent them, as long as the
encodings were computed from the actual graph. Decoding steps from set
cell to set cell with `find` over an encoding's row-major bytes, read in
place when the encoding views a whole `bytes` or `bytearray` (as the
encoders' matrices do) and copied otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encodings import adjacency_encoding
from .graphs import Graph
from .samplers import SampleSet


@dataclass(frozen=True)
class ReconstructionReport:
    recovered_edges: frozenset[tuple[int, int]]
    missing: frozenset[tuple[int, int]]
    spurious: frozenset[tuple[int, int]]
    exact: bool

    def to_dict(self, n: int, m: int, s: int) -> dict:
        return {
            "n": n,
            "m": m,
            "s": s,
            "missing_count": len(self.missing),
            "spurious_count": len(self.spurious),
            "exact": self.exact,
        }


def reconstruct_from_searches(
    seqs, encodings, s: int, n: int
) -> frozenset[tuple[int, int]]:
    """Union of edges named by the encodings' 1 entries.

    `seqs` holds node sequences over nodes 0..n-1, `encodings` the
    matching adjacency matrices, each shaped (len(seq), s-1) for the same
    window s. The
    entry at row i, column j-1 asserts the edge (seq[i], seq[i-j]);
    entries with j > i lie outside the sequence and are ignored.
    """
    if len(seqs) != len(encodings):
        raise ValueError("need one encoding per sequence")
    recovered: set[tuple[int, int]] = set()
    for seq, enc in zip(seqs, encodings):
        seq = tuple(seq)
        if enc.shape != (len(seq), s - 1):
            raise ValueError(
                f"encoding shape {enc.shape} does not match "
                f"({len(seq)}, {s - 1})"
            )
        if any(not 0 <= w < n for w in seq):
            raise ValueError("node id out of range")
        # scan the encoder's own buffer when the view is all of it, in
        # order; copy any other view
        cells = enc.obj
        if not (
            isinstance(cells, (bytes, bytearray))
            and len(cells) == enc.nbytes
            and enc.c_contiguous
        ):
            cells = enc.tobytes()
        k = -1
        while (k := cells.find(1, k + 1)) >= 0:
            i, col = divmod(k, s - 1)
            if col < i:
                a, b = seq[i], seq[i - col - 1]
                recovered.add((a, b) if a < b else (b, a))
    return frozenset(recovered)


def verify_reconstruction(g: Graph, sset: SampleSet, s: int) -> ReconstructionReport:
    """Encode each search of `sset` against g, reconstruct, and diff vs E.

    A search visits at most n nodes, so lags past n - 1 are always empty:
    windows past n + 1 are encoded and decoded as n + 1. Each encoding is
    decoded as soon as it is built, so one encoding is alive at a time.
    """
    if sset.kind != "searches":
        raise ValueError("reconstruction expects a search sample set")
    s = min(s, g.n + 1)
    recovered: set[tuple[int, int]] = set()
    for rec in sset.items:
        seq = rec.visit_order
        recovered |= reconstruct_from_searches(
            [seq], [adjacency_encoding(g, seq, s)], s, n=g.n
        )
    true_edges = g.edges()
    missing = true_edges - recovered
    spurious = recovered - true_edges
    return ReconstructionReport(
        recovered_edges=frozenset(recovered),
        missing=frozenset(missing),
        spurious=frozenset(spurious),
        exact=not missing and not spurious,
    )
