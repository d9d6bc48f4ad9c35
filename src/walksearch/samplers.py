"""Walk and search samplers.

Three walk policies (uniform, non-backtracking, and a pluggable local
rule), a randomized depth-first search whose visit sequence induces a
spanning tree, and an exact enumerator of all DFS outcomes with rational
probabilities. Both DFS routines step from the top of the stack to a
uniform unvisited neighbor: the sampler draws one, the enumerator
branches on all of them and is the ground-truth oracle used by the
coverage and invariance labs.

Randomness contract: every sampler takes an explicit ``random.Random``;
batch sampling derives the trial-i generator deterministically from
``(seed, i)``, so results are identical regardless of evaluation order.
Walk steps draw with the stdlib's own rules on ``getrandbits`` and
``random()`` (``randrange``'s rejection loop, the bisection inside
``choices``), inline and from per-node tables, so a ``random.Random``
yields the same walks as calling ``randrange``/``choices`` per step.
The DFS keeps calling ``randrange``: its exact-law test scripts those
answers.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice

from .graphs import Graph

POLICIES = ("uniform", "non_backtracking", "local_rule")

DEFAULT_ENUM_BUDGET = 10**6


class EnumerationBudgetError(RuntimeError):
    """Graph too large for exact DFS enumeration under the given budget."""


def _budget_error(budget: int) -> EnumerationBudgetError:
    return EnumerationBudgetError(
        f"too large for exact enumeration (budget {budget} exceeded)"
    )


def derive_seed(seed: int, *key) -> int:
    """Deterministic 64-bit seed for trial `key` of a run seeded by `seed`."""
    material = repr((seed,) + tuple(key)).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")


def derive_rng(seed: int, *key) -> random.Random:
    return random.Random(derive_seed(seed, *key))


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class WalkRecord:
    """A sampled walk: `nodes` has length ell+1 and consecutive nodes are adjacent."""

    nodes: tuple[int, ...]
    policy: str
    start: int


@dataclass(frozen=True)
class SearchRecord:
    """A sampled DFS: first-visit order plus the discovered spanning tree.

    `visit_order` is a permutation of 0..n-1 starting at `root`;
    `tree_edges` holds the n-1 discovery edges as (u, v) pairs with u < v.
    """

    visit_order: tuple[int, ...]
    tree_edges: frozenset[tuple[int, int]]
    root: int


@dataclass(frozen=True)
class SampleSet:
    """m records drawn independently from one graph."""

    kind: str  # "walks" | "searches"
    items: tuple
    seed: int

    def to_dict(self) -> dict:
        items = []
        for rec in self.items:
            if self.kind == "walks":
                items.append({"nodes": list(rec.nodes), "start": rec.start})
            else:
                items.append(
                    {
                        "visit_order": list(rec.visit_order),
                        "tree_edges": [list(e) for e in sorted(rec.tree_edges)],
                        "root": rec.root,
                    }
                )
        return {"kind": self.kind, "seed": self.seed, "items": items}


@dataclass(frozen=True)
class DfsOutcome:
    """One distinct DFS visit order with its exact probability."""

    record: SearchRecord
    probability: Fraction


# ---------------------------------------------------------------------------
# walks


def min_degree_weight(g: Graph, u: int, v: int) -> float:
    """Default local-rule weight w(u, v) = 1 / min(deg u, deg v).

    The minimum-degree local rule is a configurable stand-in: callers may
    supply any positive weight function of an edge instead.
    """
    return 1.0 / min(len(g.adjacency[u]), len(g.adjacency[v]))


class WalkPolicy:
    """Walk sampler for a fixed graph and walk policy.

    Walks need a connected graph on at least 2 nodes: on a disconnected
    graph a walk is trapped in one component, so such graphs are rejected
    here, once, rather than on every walk. Local-rule weights are checked
    here too: every node's weight total must be positive and finite.

    The constructor builds one row per node for the policy, holding what
    a step from that node needs, so a step is one table read and one
    stdlib-rule draw.
    """

    def __init__(self, g: Graph, policy: str = "uniform", weight_fn=None):
        if not g.is_connected():
            raise ValueError("walks require a connected graph")
        if g.n < 2:
            raise ValueError("walks require at least 2 nodes")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.g = g
        self.policy = policy
        adjacency = g.adjacency
        if policy == "uniform":
            self._table = [
                (nbrs, len(nbrs), len(nbrs).bit_length()) for nbrs in adjacency
            ]
        elif policy == "non_backtracking":
            # skips[u][j]: the index a step from v = adjacency[u][j] skips
            # when it came from u, i.e. u's position in v's row. Rows are
            # sorted, so visiting the rows v in increasing order appends to
            # skips[u] in the order of u's own row.
            skips: list[list[int]] = [[] for _ in adjacency]
            for row in adjacency:
                if len(row) > 1:
                    for i, u in enumerate(row):
                        skips[u].append(i)
                else:
                    # a leaf's one draw (always 0) never reaches 1: it
                    # steps back
                    skips[row[0]].append(1)
            self._table = []
            for nbrs, skip in zip(adjacency, skips):
                m = max(len(nbrs) - 1, 1)
                self._table.append((nbrs, skip, m, m.bit_length()))
        else:
            fn = weight_fn if weight_fn is not None else min_degree_weight
            self._table = []
            for u, nbrs in enumerate(adjacency):
                cum_weights = list(accumulate(fn(g, u, v) for v in nbrs))
                total = cum_weights[-1] + 0.0
                if not (total > 0.0 and math.isfinite(total)):
                    raise ValueError(
                        f"local-rule weights at node {u} must have a "
                        f"positive finite total, got {total!r}"
                    )
                self._table.append((nbrs, cum_weights, total, len(nbrs) - 1))

    def walk(self, rng: random.Random, start: int | None = None):
        """Yield the start node (uniform over V unless given), then one
        node per step, without end; callers take an ``islice``.

        A step from a node of degree d makes exactly the draws of a
        stdlib call: ``randrange(d)`` for a uniform step (that is,
        ``getrandbits(d.bit_length())``, redrawn while it is at least d),
        ``randrange(d - 1)`` over the neighbors other than the previous
        node for a non-backtracking step (``randrange(1)`` at a leaf, which
        steps back), and the one ``random()`` of ``choices(nbrs,
        cum_weights=...)`` for a local-rule step. The start and the first
        non-backtracking step call ``rng.randrange`` itself.
        """
        table = self._table
        cur = rng.randrange(self.g.n) if start is None else start
        yield cur
        getrandbits = rng.getrandbits
        if self.policy == "uniform":
            while True:
                nbrs, d, k = table[cur]
                r = getrandbits(k)
                while r >= d:
                    r = getrandbits(k)
                cur = nbrs[r]
                yield cur
        elif self.policy == "non_backtracking":
            nbrs, skips, m, k = table[cur]
            r = rng.randrange(len(nbrs))
            while True:
                cur, skip = nbrs[r], skips[r]
                yield cur
                # draw over the row minus the previous node, then step
                # over its index
                nbrs, skips, m, k = table[cur]
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                if r >= skip:
                    r += 1
        else:
            rand = rng.random
            while True:
                nbrs, cum_weights, total, hi = table[cur]
                cur = nbrs[bisect(cum_weights, rand() * total, 0, hi)]
                yield cur


def sample_walk(
    g: Graph,
    length: int,
    rng: random.Random,
    policy: str = "uniform",
    weight_fn=None,
    start: int | None = None,
) -> WalkRecord:
    """Sample a walk of `length` steps (so the record holds length+1 nodes).

    The start node is uniform over V unless forced. Requires a connected
    graph on at least 2 nodes (see `WalkPolicy`).
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    walk = WalkPolicy(g, policy, weight_fn).walk(rng, start)
    nodes = tuple(islice(walk, length + 1))
    return WalkRecord(nodes=nodes, policy=policy, start=nodes[0])


# ---------------------------------------------------------------------------
# randomized DFS


def sample_dfs(g: Graph, rng: random.Random, root: int | None = None) -> SearchRecord:
    """Sample a random depth-first search.

    The root is uniform over V unless forced. Each step moves from the
    stack top to a uniform unvisited neighbor, or pops the top if it has
    none: the rule `enumerate_dfs` branches on. An entry's candidates are
    the neighbors unvisited when it was pushed; a draw found visited is
    dropped and redrawn, so a search reads each neighbor list once and
    draws at most 2m + 1 times. A disconnected graph is rejected.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    adjacency = g.adjacency
    randrange = rng.randrange
    if root is None:
        root = randrange(g.n)
    visited = bytearray(g.n)
    visited[root] = 1
    order = [root]
    tree: list[tuple[int, int]] = []
    stack = [(root, list(adjacency[root]))]
    while stack:
        u, candidates = stack[-1]
        while candidates:
            # swap-remove a uniform candidate; a lone one needs no draw
            r = randrange(len(candidates)) if len(candidates) > 1 else 0
            candidates[r], candidates[-1] = candidates[-1], candidates[r]
            v = candidates.pop()
            if not visited[v]:
                visited[v] = 1
                order.append(v)
                tree.append((u, v) if u < v else (v, u))
                stack.append((v, [w for w in adjacency[v] if not visited[w]]))
                break
        else:
            stack.pop()
    if len(order) != g.n:
        raise ValueError("searches require a connected graph")
    return SearchRecord(
        visit_order=tuple(order), tree_edges=frozenset(tree), root=root
    )


def validate_search_record(g: Graph, rec: SearchRecord) -> None:
    """Check the spanning-tree and full-coverage invariants; raise on violation."""
    n = g.n
    if len(rec.visit_order) != n or sorted(rec.visit_order) != list(range(n)):
        raise ValueError("visit_order is not a permutation of 0..n-1")
    if rec.visit_order[0] != rec.root:
        raise ValueError("visit_order does not start at the root")
    if len(rec.tree_edges) != n - 1:
        raise ValueError(f"expected {n - 1} tree edges, got {len(rec.tree_edges)}")
    edge_set = g.edges()
    if not rec.tree_edges <= edge_set:
        raise ValueError("tree edge not present in the graph")
    # acyclic + connected via union-find over the n-1 edges
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in rec.tree_edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("tree edges contain a cycle")
        parent[ru] = rv
    if n > 0 and len({find(v) for v in range(n)}) != 1:
        raise ValueError("tree edges do not connect all nodes")
    # orient tree edges from earlier- to later-visited endpoint: every
    # non-root node must then have exactly one parent edge, the root none
    pos = {v: i for i, v in enumerate(rec.visit_order)}
    parent_edges = [0] * n
    for u, v in rec.tree_edges:
        child = v if pos[u] < pos[v] else u
        parent_edges[child] += 1
    for v in range(n):
        expected = 0 if v == rec.root else 1
        if parent_edges[v] != expected:
            raise ValueError(
                f"node {v} has {parent_edges[v]} earlier-visited tree "
                f"neighbors, expected {expected}"
            )


# ---------------------------------------------------------------------------
# exact DFS enumeration
#
# Branches on the uniform choice among the currently-unvisited neighbors of
# the stack top, candidates in ascending order; `sample_dfs` takes one
# branch of this enumeration with that branch's probability.


def enumerate_dfs(g: Graph, budget: int = DEFAULT_ENUM_BUDGET) -> list[DfsOutcome]:
    """Enumerate every DFS outcome with its exact rational probability.

    Each visit order (which determines the tree) comes from exactly one
    sequence of choices, so it is one outcome with probability
    1 / (n * k_1 * k_2 * ...), where k_i is the number of candidates of
    its i-th branch. Outcomes are sorted by visit order and their
    probabilities sum to exactly 1. The enumeration is a loop, so no
    recursion limit bounds it; it raises EnumerationBudgetError once more
    than `budget` distinct nonempty visit-order prefixes have been
    reached: the graph is too large to enumerate. Every root reaches at
    least the n prefixes of one full visit order, and prefixes from
    different roots differ, so a graph with n * n > budget is refused
    before any outcome is built.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("exact enumeration requires a connected graph")
    n = g.n
    if n * n > budget:
        raise _budget_error(budget)
    adjacency = g.adjacency
    visited = bytearray(n)
    order: list[int] = []
    parent = [0] * n
    # one frame per open branch: [stack top, its unvisited neighbors, next
    # index, child denominator]
    frames: list[list] = []
    result = []
    states = 0
    for root in range(n):
        w, den = root, n
        while True:
            states += 1
            if states > budget:
                raise _budget_error(budget)
            visited[w] = 1
            order.append(w)
            if len(order) < n:
                # the stack is the tree path up from w; its top is the
                # first node on it with an unvisited neighbor
                u = w
                cands = [v for v in adjacency[u] if not visited[v]]
                while not cands:
                    u = parent[u]
                    cands = [v for v in adjacency[u] if not visited[v]]
                frames.append([u, cands, 0, den * len(cands)])
            else:
                tree = frozenset(
                    (parent[v], v) if parent[v] < v else (v, parent[v])
                    for v in order[1:]
                )
                rec = SearchRecord(tuple(order), tree, root)
                result.append(DfsOutcome(rec, Fraction(1, den)))
                # undo w, then every choice whose frame has no candidate left
                visited[order.pop()] = 0
                while frames and frames[-1][2] == len(frames[-1][1]):
                    frames.pop()
                    visited[order.pop()] = 0
                if not frames:
                    break
            frame = frames[-1]
            u, cands, i, den = frame
            frame[2] = i + 1
            w = cands[i]
            parent[w] = u
    return result


# ---------------------------------------------------------------------------
# batch sampling


def sample_set(
    g: Graph,
    kind: str,
    m: int,
    seed: int,
    length: int | None = None,
    policy: str = "uniform",
) -> SampleSet:
    """Draw m independent records; trial i uses an RNG derived from (seed, i).

    Walk records share one `WalkPolicy`, so the graph is checked (and a
    local-rule weight table built) once per call, not once per walk.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if kind not in ("walks", "searches"):
        raise ValueError(f"kind must be 'walks' or 'searches', got {kind!r}")
    items = []
    if kind == "walks":
        ell = g.n if length is None else length
        if ell < 1:
            raise ValueError("walk length must be >= 1")
        walk_pol = WalkPolicy(g, policy)
        for i in range(m):
            nodes = tuple(islice(walk_pol.walk(derive_rng(seed, i)), ell + 1))
            items.append(WalkRecord(nodes=nodes, policy=policy, start=nodes[0]))
    else:
        items.extend(sample_dfs(g, derive_rng(seed, i)) for i in range(m))
    return SampleSet(kind=kind, items=tuple(items), seed=seed)
