"""Walk and search samplers.

Three walk policies (uniform, non-backtracking, and the minimum-degree
local rule), a randomized depth-first search whose visit sequence
induces a spanning tree, and an exact enumerator of all DFS outcomes
with rational probabilities. Both DFS routines step from the top of the
stack to a uniform unvisited neighbor: the sampler draws one, the
enumerator branches on all of them and is the ground-truth oracle used
by the coverage and invariance labs.

Randomness contract (stream revision 2): every sampler takes an explicit
``random.Random`` and draws its own start or root, uniform over the
nodes, with ``rng.randrange(n)``; a batch seeds one generator per job
and kind, ``derive_rng(seed, *key)``, and draws its trials from it in
trial order, so trial i starts where trial i - 1 stopped drawing. Each
trial's stop (a search's last visit, a walk's length, a covering step)
is a stopping time of the stream, so the trials stay independent; trial
i can be replayed only by rerunning its batch.
Hot loops draw inline with the stdlib's own rules, so a ``random.Random``
gives the same results, and ends in the same state, as the per-step
stdlib calls would. A uniform index below c is ``randrange(c)``'s
rejection loop on ``k = c.bit_length()`` bits: ``r = getrandbits(k)``,
redrawn while ``r >= c``. Walk steps draw this way (a local-rule step
makes the one ``random()`` of ``choices`` and bisects), both in
``WalkPolicy.walk``, which returns a walk of a given length as a list,
in its cover-time kernel ``WalkPolicy.cover_time``, which steps and
tallies coverage, and in ``WalkPolicy.cover``, which makes a uniform
walk's draws and marks its node and edge ids for coverage curves. Each
runs one loop per policy it walks, with no generator, and checks its own
arguments before any draw. DFS steps draw this way too, and so does the
Fisher-Yates loop of ``random.shuffle`` behind the permutation test in
``invariance``.
Every randomized DFS is one call of ``_search(g, rng)``: it rejects an
empty graph, draws the root, steps, rejects a disconnected graph, and
returns the visit order and each visited node's discoverer, stopping at
its n-th visit, before any draw the order no longer needs. `sample_dfs`
builds a ``SearchRecord`` from one call; the batches call it in a loop
on one ``derive_rng(seed)``: `sample_set` builds a record per search,
and `search_set_dict`, the writer behind ``sample --kind searches``,
writes the JSON of ``sample_set(...).to_dict()`` with no record. A
trial loop that only needs coverage marks each search's tree-edge ids
with ``SearchGraph.cover``. The DFS law is checked exactly on a
reference search that calls ``randrange`` per step; the tests tie that
reference to ``_search``, per-step reference walks to ``walk`` and
``cover_time``, and ``cover`` to ``walk``, draw for draw.
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
    """Deterministic 64-bit seed for the stream `key` (a job's kind or
    tag, or nothing) of a run seeded by `seed`."""
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
    """m records drawn independently from one graph: walks hold only
    `WalkRecord`s and searches only `SearchRecord`s, checked here."""

    kind: str  # "walks" | "searches"
    items: tuple
    seed: int

    def __post_init__(self):
        if self.kind not in ("walks", "searches"):
            raise ValueError(f"unknown kind {self.kind!r}")
        record = WalkRecord if self.kind == "walks" else SearchRecord
        for rec in self.items:
            if not isinstance(rec, record):
                raise ValueError(
                    f"a set of {self.kind} holds {record.__name__}s, "
                    f"got a {type(rec).__name__}"
                )

    def to_dict(self) -> dict:
        """``{"kind", "seed", "items"}``, ready for JSON. A walk item is
        ``{"nodes", "start"}``; a search item is ``{"visit_order",
        "tree_edges", "root"}``, its tree edges sorted ``[u, v]`` pairs
        with u < v. This is the layout the ``sample`` verb prints: it
        writes searches with `search_set_dict`, whose JSON the tests hold
        equal to this one's, byte for byte.
        """
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
    """Local-rule weight w(u, v) = 1 / min(deg u, deg v)."""
    return 1.0 / min(len(g.adjacency[u]), len(g.adjacency[v]))


class WalkPolicy:
    """Walk sampler for a fixed graph and walk policy.

    Walks need a connected graph on at least 2 nodes: on a disconnected
    graph a walk is trapped in one component, so such graphs are rejected
    here, once, rather than on every walk. Every node then has a neighbor,
    so every local-rule weight lies in (0, 1].

    The constructor builds one row per node for the policy, holding what
    a step from that node needs, so a step is one table read and one
    stdlib-rule draw.
    """

    def __init__(self, g: Graph, policy: str = "uniform"):
        if not g.is_connected():
            raise ValueError("walks require a connected graph")
        if g.n < 2:
            raise ValueError("walks require at least 2 nodes")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
        self.g = g
        self.policy = policy
        # per cover target, `_table` keyed for `cover_time`, built on first use
        self._cover_rows: dict[str, list[tuple]] = {}
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
            self._table = []
            for u, nbrs in enumerate(adjacency):
                cum_weights = list(
                    accumulate(min_degree_weight(g, u, v) for v in nbrs)
                )
                total = cum_weights[-1]
                self._table.append((nbrs, cum_weights, total, len(nbrs) - 1))

    def walk(self, rng: random.Random, length: int) -> list[int]:
        """The start node, uniform over V, then the node after each of
        `length` steps, as a list; a length below 1 raises ValueError
        before any draw.

        A step from a node of degree d makes exactly the draws of a
        stdlib call: ``randrange(d)`` for a uniform step (that is,
        ``getrandbits(d.bit_length())``, redrawn while it is at least d),
        ``randrange(d - 1)`` over the neighbors other than the previous
        node for a non-backtracking step (``randrange(1)`` at a leaf, which
        steps back; the first step has no previous node and draws
        ``randrange(d)``), and the one ``random()`` of ``choices(nbrs,
        cum_weights=...)`` for a local-rule step. The start calls
        ``rng.randrange`` itself, and no draw follows the last step.
        """
        if length < 1:
            raise ValueError("walk length must be >= 1")
        table = self._table
        cur = rng.randrange(self.g.n)
        nodes = [cur]
        append = nodes.append
        getrandbits = rng.getrandbits
        if self.policy == "uniform":
            for _ in range(length):
                nbrs, d, k = table[cur]
                r = getrandbits(k)
                while r >= d:
                    r = getrandbits(k)
                cur = nbrs[r]
                append(cur)
        elif self.policy == "non_backtracking":
            # draw over the row minus the previous node, then step over
            # its index; the start's whole row skips no index
            nbrs, skips, _, _ = table[cur]
            m = skip = len(nbrs)
            k = m.bit_length()
            for _ in range(length):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                if r >= skip:
                    r += 1
                cur, skip = nbrs[r], skips[r]
                append(cur)
                nbrs, skips, m, k = table[cur]
        else:
            rand = rng.random
            for _ in range(length):
                nbrs, cum_weights, total, hi = table[cur]
                cur = nbrs[bisect(cum_weights, rand() * total, 0, hi)]
                append(cur)
        return nodes

    def cover_time(self, rng: random.Random, target: str, cap: int) -> int | None:
        """Steps until ``walk(rng, cap)`` has visited every node (`target`
        "node") or traversed every edge ("edge"); None if that takes more
        than `cap` steps.

        Each loop is the matching loop of `walk` with the tally folded in:
        it makes the same draws, reads the key of the slot it steps
        through (the neighbor, or the id of that edge), and stops at the
        step that marks the last unseen key, so a trial makes exactly the
        draws of the walk up to its covering step (or its first `cap`
        steps). The start is seen before the first step. An unknown target
        or a cap below 1 raises ValueError before any draw.
        """
        rows = self._cover_rows.get(target)
        if rows is None:
            rows = self._cover_rows[target] = self._keyed_rows(target)
        if cap < 1:
            raise ValueError("cap must be >= 1")
        g = self.g
        cur = rng.randrange(g.n)
        if target == "node":
            seen, remaining = bytearray(g.n), g.n - 1
            seen[cur] = 1
        else:
            seen, remaining = bytearray(g.edge_count), g.edge_count
        getrandbits = rng.getrandbits
        if self.policy == "uniform":
            for step in range(1, cap + 1):
                nbrs, keys, d, k = rows[cur]
                r = getrandbits(k)
                while r >= d:
                    r = getrandbits(k)
                cur, key = nbrs[r], keys[r]
                if not seen[key]:
                    seen[key] = 1
                    remaining -= 1
                    if not remaining:
                        return step
        elif self.policy == "non_backtracking":
            nbrs, keys, skips, _, _ = rows[cur]
            m = skip = len(nbrs)
            k = m.bit_length()
            for step in range(1, cap + 1):
                r = getrandbits(k)
                while r >= m:
                    r = getrandbits(k)
                if r >= skip:
                    r += 1
                cur, skip, key = nbrs[r], skips[r], keys[r]
                if not seen[key]:
                    seen[key] = 1
                    remaining -= 1
                    if not remaining:
                        return step
                nbrs, keys, skips, m, k = rows[cur]
        else:
            rand = rng.random
            for step in range(1, cap + 1):
                nbrs, keys, cum_weights, total, hi = rows[cur]
                r = bisect(cum_weights, rand() * total, 0, hi)
                cur, key = nbrs[r], keys[r]
                if not seen[key]:
                    seen[key] = 1
                    remaining -= 1
                    if not remaining:
                        return step
        return None

    def cover(
        self,
        rng: random.Random,
        length: int,
        node_seen: bytearray,
        edge_seen: bytearray,
        nodes_left: int,
        edges_left: int,
    ) -> tuple[int, int]:
        """Mark the nodes and the edge ids of ``walk(rng, length)`` in
        `node_seen` and `edge_seen` and return how many of each are left
        unmarked.

        `nodes_left` and `edges_left` must count the unmarked entries on
        entry, and both ends of every marked edge must be marked: then a
        step's head needs marking only when its edge is new. The loop is
        the uniform loop of `walk`, reading the edge-keyed rows of
        `cover_time`; it makes all `length` steps' draws, so the generator
        ends as `walk` leaves it. A policy other than uniform or a length
        below 1 raises ValueError before any draw.
        """
        if self.policy != "uniform":
            raise ValueError("cover walks the uniform policy only")
        if length < 1:
            raise ValueError("walk length must be >= 1")
        rows = self._cover_rows.get("edge")
        if rows is None:
            rows = self._cover_rows["edge"] = self._keyed_rows("edge")
        cur = rng.randrange(self.g.n)
        if not node_seen[cur]:
            node_seen[cur] = 1
            nodes_left -= 1
        getrandbits = rng.getrandbits
        for _ in range(length):
            nbrs, keys, d, k = rows[cur]
            r = getrandbits(k)
            while r >= d:
                r = getrandbits(k)
            cur, key = nbrs[r], keys[r]
            if not edge_seen[key]:
                edge_seen[key] = 1
                edges_left -= 1
                if not node_seen[cur]:
                    node_seen[cur] = 1
                    nodes_left -= 1
        return nodes_left, edges_left

    def _keyed_rows(self, target: str) -> list[tuple]:
        """The policy's rows with each slot's cover key inserted second:
        the neighbor itself, or the id in 0..m-1 of the edge to it (both
        ends of an edge read the same id)."""
        if target == "node":
            keys = self.g.adjacency
        elif target == "edge":
            keys = _edge_id_rows(self.g)
        else:
            raise ValueError("target must be 'node' or 'edge'")
        return [row[:1] + (krow,) + row[1:] for row, krow in zip(self._table, keys)]


def _edge_id_rows(g: Graph) -> list[list[int]]:
    """Per node, the id in 0..m-1 of the edge to each neighbor, in row
    order; both ends of an edge read the same id."""
    ids: dict[tuple[int, int], int] = {}
    return [
        [ids.setdefault((u, v) if u < v else (v, u), len(ids)) for v in nbrs]
        for u, nbrs in enumerate(g.adjacency)
    ]


def sample_walk(
    g: Graph, length: int, rng: random.Random, policy: str = "uniform"
) -> WalkRecord:
    """Sample a walk of `length` steps (so the record holds length+1 nodes)
    from a uniform start. Requires a connected graph on at least 2 nodes
    (see `WalkPolicy`) and a length of at least 1 (see `WalkPolicy.walk`).
    """
    nodes = tuple(WalkPolicy(g, policy).walk(rng, length))
    return WalkRecord(nodes=nodes, policy=policy, start=nodes[0])


# ---------------------------------------------------------------------------
# randomized DFS


def _search(g: Graph, rng: random.Random) -> tuple[list[int], list[int]]:
    """The one randomized DFS: from a uniform root, drawn with
    ``rng.randrange(n)``, return the visit order and `parents`, where
    ``parents[i]`` is the node that discovered ``order[i + 1]``. An empty
    graph is rejected before any draw, a disconnected one once the stack
    empties before the n-th visit.

    Each step moves from the stack top to a uniform unvisited neighbor,
    or pops the top if it has none: the rule `enumerate_dfs` branches on.
    An entry's candidates are the neighbors unvisited when it was pushed,
    in row order; a step swap-removes a uniform one (a lone candidate
    needs no draw), and one found visited is dropped and redrawn, so a
    search reads each neighbor list once and draws at most 2m times. The
    draws are ``randrange``'s rule inlined on ``getrandbits`` (see the
    module docstring). The search ends at its n-th visit: that node has
    no unvisited neighbor, so the next step pops, and the pop checks the
    count, so no draw follows the last visit and a visit pays no check.
    """
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    adjacency = g.adjacency
    getrandbits = rng.getrandbits
    root = rng.randrange(n)
    visited = bytearray(n)
    visited[root] = 1
    order = [root]
    parents: list[int] = []
    # the entries below the top that still have candidates; the top is
    # held in u, candidates
    stack: list[tuple[int, list[int]]] = []
    u, candidates = root, list(adjacency[root])
    while True:
        if candidates:
            c = len(candidates)
            if c > 1:
                k = c.bit_length()
                r = getrandbits(k)
                while r >= c:
                    r = getrandbits(k)
                v = candidates[r]
                candidates[r] = candidates[-1]
                candidates.pop()
            else:
                v = candidates.pop()
            if not visited[v]:
                visited[v] = 1
                order.append(v)
                parents.append(u)
                # an entry with no candidate left would only be popped
                if candidates:
                    stack.append((u, candidates))
                u = v
                # a plain loop, not a comprehension: on CPython 3.11 a
                # comprehension pays for a frame per discovered node
                candidates = []
                for w in adjacency[v]:
                    if not visited[w]:
                        candidates.append(w)
        elif stack and len(order) < n:
            u, candidates = stack.pop()
        elif len(order) < n:
            raise ValueError("searches require a connected graph")
        else:
            return order, parents


def _search_record(order: list[int], parents: list[int]) -> SearchRecord:
    tree = frozenset((u, v) if u < v else (v, u) for u, v in zip(parents, order[1:]))
    return SearchRecord(visit_order=tuple(order), tree_edges=tree, root=order[0])


def sample_dfs(g: Graph, rng: random.Random) -> SearchRecord:
    """Sample a random depth-first search: the record of one `_search`.
    An empty or disconnected graph is rejected.
    """
    return _search_record(*_search(g, rng))


class SearchGraph:
    """Randomized-DFS edge cover for a fixed graph, for trial loops.

    The graph is checked here, once, with the messages of `_search`: it
    needs at least one node and must be connected. `edge_ids[u]` maps
    each neighbor v of u to the id in 0..m-1 of the edge {u, v} (both
    ends read the same id). `cover` runs one `_search`, so it makes
    exactly the draws of ``sample_dfs(g, rng)`` and leaves the generator
    in the same state, but builds no record: it only marks tree-edge ids.
    """

    def __init__(self, g: Graph):
        if g.n < 1:
            raise ValueError("empty graph")
        if not g.is_connected():
            raise ValueError("searches require a connected graph")
        self.g = g
        self.edge_ids = [
            dict(zip(nbrs, ids)) for nbrs, ids in zip(g.adjacency, _edge_id_rows(g))
        ]

    def cover(self, rng: random.Random, seen: bytearray, remaining: int) -> int:
        """Mark the edge ids of the tree of ``sample_dfs(g, rng)`` in
        `seen` and return how many ids are left unmarked.

        `remaining` must be the number of unmarked ids in `seen` on entry.
        The ids are marked after the search, which makes all its draws
        up to its last visit.
        """
        order, parents = _search(self.g, rng)
        edge_ids = self.edge_ids
        for u, v in zip(parents, order[1:]):
            e = edge_ids[u][v]
            if not seen[e]:
                seen[e] = 1
                remaining -= 1
        return remaining


def validate_search_record(g: Graph, rec: SearchRecord) -> None:
    """Check the spanning-tree and full-coverage invariants; raise on violation."""
    n = g.n
    if n < 1:
        raise ValueError("empty graph")
    if len(rec.visit_order) != n or sorted(rec.visit_order) != list(range(n)):
        raise ValueError("visit_order is not a permutation of 0..n-1")
    if rec.visit_order[0] != rec.root:
        raise ValueError("visit_order does not start at the root")
    if len(rec.tree_edges) != n - 1:
        raise ValueError(f"expected {n - 1} tree edges, got {len(rec.tree_edges)}")
    edge_set = g.edges()
    if not rec.tree_edges <= edge_set:
        raise ValueError("tree edge not present in the graph")
    # orient tree edges from earlier- to later-visited endpoint: every
    # non-root node must then have exactly one parent edge, the root none;
    # every chain of parents then ends at the root, so the n - 1 edges are
    # a spanning tree with no cycle or connectivity check of their own
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
# branch of this enumeration with that branch's probability. A step with
# one candidate is forced: it has probability 1, so it is taken in place
# and opens no frame.


def _enumerate(g: Graph, budget: int):
    """The one exact DFS branching loop: yield ``(order, parent, den)`` for
    every complete visit order, in increasing order, where the outcome's
    probability is exactly ``1 / den`` and ``parent[v]`` is the node that
    discovered v, for every v but ``order[0]`` (the root's entry is
    stale). `order` and `parent` are reused: copy what must outlive the
    next step.

    A frame is opened only where the stack top has two or more unvisited
    neighbors; a forced move appends to `order` and sets `parent` in
    place. Each frame records the length of `order` at its branch, so a
    backtrack cuts `order` back to it, and unmarks the nodes it cuts, in
    one step. Every visit, forced or not, is one prefix for the budget.

    The graph is checked, and refused at the prefix floor of
    `enumerate_dfs`, on the first step.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not g.is_connected():
        raise ValueError("exact enumeration requires a connected graph")
    n = g.n
    if n + 2 * g.edge_count * (n - 1) > budget:
        raise _budget_error(budget)
    adjacency = g.adjacency
    order: list[int] = []
    parent = [0] * n
    # one frame per branch with a candidate left: (stack top, its untaken
    # candidates in descending order, child denominator, length of order
    # at the branch); a frame is dropped when its last candidate is taken
    frames: list[tuple[int, list[int], int, int]] = []
    states = 0
    for root in range(n):
        visited = bytearray(n)
        order.clear()
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
                while True:
                    # a plain loop, not a comprehension (see `_search`)
                    cands = []
                    for v in adjacency[u]:
                        if not visited[v]:
                            cands.append(v)
                    if cands:
                        break
                    u = parent[u]
                if len(cands) == 1:
                    w = cands[0]
                    parent[w] = u
                    continue
                cands.reverse()
                den *= len(cands)
                frames.append((u, cands, den, len(order)))
            else:
                yield order, parent, den
                if not frames:
                    break
                u, cands, den, cut = frames[-1]
                for v in order[cut:]:
                    visited[v] = 0
                del order[cut:]
            w = cands.pop()
            if not cands:
                frames.pop()
            parent[w] = u


def _reciprocal_sum(dens) -> tuple[int, int]:
    """``(total, lcm)`` with the sum of 1/den over the collection `dens`
    equal to total / lcm, lcm being the lcm of the denominators: an exact
    sum with no ``Fraction``."""
    lcm = math.lcm(*dens)
    return sum(lcm // den for den in dens), lcm


def enumerate_dfs(g: Graph, budget: int = DEFAULT_ENUM_BUDGET) -> list[DfsOutcome]:
    """Enumerate every DFS outcome with its exact rational probability.

    Each visit order (which determines the tree) comes from exactly one
    sequence of choices, so it is one outcome with probability
    1 / (n * k_1 * k_2 * ...), where k_i is the number of candidates at
    its i-th step; a forced step (one candidate) adds a factor of 1.
    Outcomes are sorted by visit order and their probabilities sum to
    exactly 1. The enumeration is a loop (`_enumerate`) that opens a
    frame only at a branch, so no recursion limit bounds it; it raises
    EnumerationBudgetError once more than `budget` distinct nonempty
    visit-order prefixes have been reached: the graph is too large to
    enumerate. Every root reaches its one-node prefix and, through each
    neighbor as first choice, n - 1 longer prefixes, all distinct, so a
    graph with n + 2m(n - 1) > budget (a path's exact count) is refused
    before any outcome is built.
    """
    return [
        DfsOutcome(
            _search_record(order, [parent[v] for v in order[1:]]), Fraction(1, den)
        )
        for order, parent, den in _enumerate(g, budget)
    ]


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
    """Draw m independent records in turn from one ``derive_rng(seed)``:
    record i starts where record i - 1 stopped drawing.

    Walk records share one `WalkPolicy`, so the graph is checked (and a
    local-rule weight table built) once per call, not once per walk.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if kind not in ("walks", "searches"):
        raise ValueError(f"kind must be 'walks' or 'searches', got {kind!r}")
    items = []
    rng = derive_rng(seed)
    if kind == "walks":
        walk_pol = WalkPolicy(g, policy)
        ell = g.n if length is None else length
        for _ in range(m):
            nodes = tuple(walk_pol.walk(rng, ell))
            items.append(WalkRecord(nodes=nodes, policy=policy, start=nodes[0]))
    else:
        items.extend(_search_record(*_search(g, rng)) for _ in range(m))
    return SampleSet(kind=kind, items=tuple(items), seed=seed)


def search_set_dict(g: Graph, m: int, seed: int) -> dict:
    """``sample_set(g, "searches", m, seed).to_dict()`` up to tuples in
    place of lists, so the two print the same JSON, written straight from
    each search's arrays with no `SearchRecord`.

    A tree edge {u, v}, u < v, is keyed ``u * n + v``, which orders as the
    pairs do, so one sort of ints gives the sorted edge list, and
    ``divmod(key, n)`` gives the pair back. The errors, and their order,
    are those of `sample_set`.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = g.n
    items = []
    rng = derive_rng(seed)
    for _ in range(m):
        order, parents = _search(g, rng)
        keys = [
            u * n + v if u < v else v * n + u
            for u, v in zip(parents, islice(order, 1, None))
        ]
        keys.sort()
        items.append(
            {
                "visit_order": order,
                "tree_edges": [divmod(key, n) for key in keys],
                "root": order[0],
            }
        )
    return {"kind": "searches", "seed": seed, "items": items}
