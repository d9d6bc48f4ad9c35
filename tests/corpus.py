"""Graph corpora shared across tests.

Exhaustive isomorphism-class lists are only affordable up to 5 nodes;
larger corpora are random connected graphs with reproducible seeds.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from walksearch.graphs import Graph


def _labeled_connected_graphs(n: int):
    """(edges, graph) for every connected graph on nodes 0..n-1, in the
    order of the bitmask over sorted node pairs."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            yield edges, g


@lru_cache(maxsize=None)
def all_labeled_connected_graphs_upto(nmax: int) -> tuple[Graph, ...]:
    """Every labeled connected graph with 1..nmax nodes: 1, 2, 6, 44, 772
    graphs for nmax = 1..5, so isomorphic copies appear many times."""
    return tuple(
        g for n in range(1, nmax + 1) for _, g in _labeled_connected_graphs(n)
    )


@lru_cache(maxsize=None)
def all_connected_graphs_upto(nmax: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of connected graphs with
    1..nmax nodes: 1, 2, 4, 10, 31 graphs for nmax = 1..5. Brute-force
    canonicalization (the least sorted edge tuple over all relabelings):
    only use for nmax <= 5."""
    reps: list[Graph] = []
    for n in range(1, nmax + 1):
        perms = list(itertools.permutations(range(n)))
        seen: set[tuple] = set()
        for edges, g in _labeled_connected_graphs(n):
            canon = min(
                tuple(sorted(
                    (min(p[u], p[v]), max(p[u], p[v])) for u, v in edges
                ))
                for p in perms
            )
            if canon not in seen:
                seen.add(canon)
                reps.append(g)
    return tuple(reps)


def counting_graph(g: Graph) -> tuple[Graph, list[int]]:
    """A copy of `g` whose neighbor lists tally what is read from them:
    `reads[v]` counts the entries iterated out of v's list."""
    reads = [0] * g.n

    class Row(tuple):
        def __iter__(self):
            for w in tuple.__iter__(self):
                reads[self.node] += 1
                yield w

    rows = []
    for v, nbrs in enumerate(g.adjacency):
        row = Row(nbrs)
        row.node = v
        rows.append(row)
    return Graph(n=g.n, adjacency=tuple(rows), edge_count=g.edge_count), reads


def random_connected_graph(
    rng: random.Random, n: int, p: float, max_tries: int = 2000
) -> Graph:
    """Connected G(n, p) by rejection; falls back to adding a random
    spanning tree to the last sample if rejection keeps failing."""
    pairs = list(itertools.combinations(range(n), 2))
    edges: set = set()
    for _ in range(max_tries):
        edges = {e for e in pairs if rng.random() < p}
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, edges)


def random_connected_corpus(
    count: int,
    seed: int,
    n_min: int = 2,
    n_max: int = 7,
    p_min: float = 0.3,
    p_max: float = 0.7,
) -> list[Graph]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(n_min, n_max)
        p = rng.uniform(p_min, p_max) if n > 1 else 1.0
        out.append(random_connected_graph(rng, n, p))
    return out


def random_bounded_sparse_graph(
    rng: random.Random, n: int, d_max: int = 4, c_target: float | None = None
) -> Graph:
    """Connected graph with max degree <= d_max and |E|/|V| <= c_target:
    a degree-capped random tree plus random extra edges."""
    if c_target is None:
        c_target = rng.uniform(1.0, 1.3)
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        while True:
            j = rng.randrange(i)
            if deg[j] < d_max:
                break
        edges.add((j, i))
        deg[j] += 1
        deg[i] += 1
    target = min(int(n * c_target), n * d_max // 2)
    attempts = 0
    while len(edges) < target and attempts < 60 * n:
        attempts += 1
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b or deg[a] >= d_max or deg[b] >= d_max:
            continue
        key = (a, b) if a < b else (b, a)
        if key in edges:
            continue
        edges.add(key)
        deg[a] += 1
        deg[b] += 1
    return Graph.from_edges(n, edges)
