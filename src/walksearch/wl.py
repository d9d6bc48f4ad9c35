"""Color refinement: classic 1-WL and its walk-based variant, plus
unfolding trees.

Both refinements run jointly over one or more graphs, so colors are
comparable across the graphs of one run (and only there). The classic
update hashes (current color, multiset of neighbor colors); the walk
variant hashes (current color, multiset of colored terminating walks of
length 1..ell), where a colored walk is the tuple of colors along its
nodes. Color tuples of different walk lengths are distinct tuples, so
payloads are length-aware by construction.

Colors are interned one round at a time: each round's payloads get fresh
ids from a running counter, in order of first appearance (graph by
graph, node by node). Since every payload names a color of the previous
round, no payload can recur in a later round, so this gives the ids a
single run-wide dictionary would, while holding one round's payloads.

1-WL does not build its payloads. It keeps a class index per node and
derives each round from the previous round's splits: only the smaller
pieces of a class that just split tell their neighbors, so a run reads
O(m log n) adjacency entries instead of 2m per round (see `wl_refine`).
Its class indices share exactly the payloads' equalities, so interning
them gives the same ids.

Stabilization is detected as partition equality between consecutive
rounds, tested by class count (see `_run_refinement`); color ids
themselves are run-relative and never compared across runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph

DEFAULT_WALK_GUARD = 10**5
DEFAULT_TREE_GUARD = 10**5


class RefinementGuardError(RuntimeError):
    """Walk or tree enumeration exceeded its feasibility guard."""


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """A partition of a node set into color classes."""

    blocks: frozenset[frozenset]

    def node_set(self) -> frozenset:
        return frozenset(x for block in self.blocks for x in block)

    def sorted_blocks(self) -> list[list]:
        return sorted(sorted(block) for block in self.blocks)


def partition_of(colors) -> Partition:
    """Partition induced by a node -> color sequence (node = index)."""
    groups: dict = defaultdict(list)
    for node, c in enumerate(colors):
        groups[c].append(node)
    return Partition(blocks=frozenset(frozenset(v) for v in groups.values()))


def partition_refines(a: Partition, b: Partition) -> bool:
    """True iff b refines a, i.e. every block of b lies inside a block of a."""
    if a.node_set() != b.node_set():
        raise ValueError("partitions cover different node sets")
    owner: dict = {}
    for block in a.blocks:
        for x in block:
            owner[x] = block
    for block in b.blocks:
        it = iter(block)
        target = owner[next(it)]
        if any(x not in target for x in it):
            return False
    return True


# ---------------------------------------------------------------------------
# refinement runs


@dataclass(frozen=True)
class RefinementRun:
    """History of a joint refinement over one or more graphs.

    `history[r][gi][u]` is the color of node u of graph gi after r update
    rounds (round 0 is the initial coloring). `stable_round` is the first
    round whose joint partition equals the next round's, or None if the
    run was cut off before stabilizing.
    """

    graphs: tuple[Graph, ...]
    history: tuple[tuple[tuple[int, ...], ...], ...]
    stable_round: int | None

    @property
    def rounds(self) -> int:
        return len(self.history) - 1

    def colors(self, round_idx: int, graph_idx: int) -> tuple[int, ...]:
        return self.history[round_idx][graph_idx]

    def partition(self, round_idx: int, graph_idx: int) -> Partition:
        return partition_of(self.history[round_idx][graph_idx])

    def sorted_blocks(self, round_idx: int, graph_idx: int) -> list[list[int]]:
        """`partition(round_idx, graph_idx).sorted_blocks()`, built directly.

        Nodes are grouped in node order, so each block is ascending, and a
        block enters the (insertion-ordered) dict at its least node, so the
        blocks come out ordered by least node, as sorting would give.
        """
        groups: dict = defaultdict(list)
        for node, c in enumerate(self.history[round_idx][graph_idx]):
            groups[c].append(node)
        return list(groups.values())

    def stable_partition(self, graph_idx: int) -> Partition:
        if self.stable_round is None:
            raise ValueError("run did not stabilize within its round budget")
        return self.partition(self.stable_round, graph_idx)

    def stable_color_multiset(self, graph_idx: int) -> Counter:
        if self.stable_round is None:
            raise ValueError("run did not stabilize within its round budget")
        return Counter(self.history[self.stable_round][graph_idx])


def _intern_round(payloads_per_graph, first_id: int):
    """Number one round's payloads from `first_id` in order of first
    appearance; return (colors per graph, number of distinct payloads)."""
    table: dict = {}
    setdefault = table.setdefault
    colors = tuple(
        tuple([setdefault(p, first_id + len(table)) for p in payloads])
        for payloads in payloads_per_graph
    )
    return colors, len(table)


def _run_refinement(graphs, update, rounds, init):
    """Shared driver: intern initial colors, apply `update` per round.

    `update(colors_per_graph)` returns one hashable key per node per
    graph, equal for two nodes exactly when their payloads are: the
    node's current color with what the refinement hashes. The walk
    refinement returns those payloads; 1-WL returns class indices. Runs
    for `rounds` updates when given, else until the joint partition
    repeats.

    Each round is interned in its own table, with ids continuing from the
    previous round's. Round 0's payloads are the initial labels; a later
    round's name only colors of the round before, whose ids are fresh by
    induction, so no payload of one round equals one of another and the
    ids are those of one run-wide dictionary. A round's ids depend only
    on which nodes share a key, so any key with the payloads' equalities
    gives them.

    Because each payload carries the node's current color (and 1-WL
    classes only split), round r+1's joint partition refines round r's; the two are equal exactly when
    they have as many classes, i.e. when both rounds interned as many
    distinct keys.
    """
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    if rounds is not None and rounds < 0:
        raise ValueError("rounds must be >= 0")
    if init is None:
        init = tuple((0,) * g.n for g in graphs)
    else:
        init = tuple(tuple(labels) for labels in init)
        if len(init) != len(graphs) or any(
            len(labels) != g.n for labels, g in zip(init, graphs)
        ):
            raise ValueError("init must give one label per node per graph")
    colors, classes = _intern_round(init, 0)
    next_id = classes

    history = [colors]
    total_nodes = sum(g.n for g in graphs)
    max_rounds = rounds if rounds is not None else total_nodes + 1
    stable_round = None
    for _ in range(max_rounds):
        colors, new_classes = _intern_round(update(colors), next_id)
        next_id += new_classes
        history.append(colors)
        if stable_round is None and new_classes == classes:
            stable_round = len(history) - 2
            if rounds is None:
                break
        classes = new_classes
    return RefinementRun(
        graphs=graphs, history=tuple(history), stable_round=stable_round
    )


def wl_refine(graphs, rounds: int | None = None, init=None) -> RefinementRun:
    """Joint 1-WL refinement: hash (color, multiset of neighbor colors).

    Rounds are driven by the previous round's splits rather than by
    re-hashing every node. Nodes carry a class index over the joint node
    set. In round 1 every class pushes its index to the neighbors of its
    nodes; in a later round only the pieces of a class that split in the
    round before do, except one largest piece per split class. A class
    then splits by the pushes its nodes received, the nodes that got
    none forming one more group.

    This is sound because two nodes of one class had equal neighbor
    counts in every class of the round before. A skipped piece's count
    is the old class's count minus the pushed pieces' counts, and an
    unsplit class's count is equal throughout the class, so the pushes
    decide the naive payload. After round 1 a node lies in a pushed
    piece at most log2(N) times, as that piece is at most half its old
    class, so a run over N nodes and m edges reads at most
    2m(log2(N) + 1) adjacency entries (Paige and Tarjan's "process the
    smaller half").

    `_run_refinement` interns the class indices. Naive ids are an offset
    plus the rank of first appearance of a node's payload, and equal
    payloads are exactly equal class indices, so the ids are the naive
    ones; a round is stable exactly when no class split.
    """
    graphs = tuple(graphs)
    # joint node x = its graph's start + its index there
    spans, graph_of, rows = [], [], []
    for gi, g in enumerate(graphs):
        spans.append((len(rows), len(rows) + g.n))
        graph_of.extend([gi] * g.n)
        rows.extend(g.adjacency)
    cls: list[int] = []
    members: list[set[int]] = []
    pushers = None

    def update(colors):
        nonlocal pushers
        if pushers is None:
            # round 0's ids are 0, 1, ..., so they serve as class indices
            cls.extend(chain.from_iterable(colors))
            members.extend(set() for _ in range(max(cls, default=-1) + 1))
            for x, c in enumerate(cls):
                members[c].add(x)
            pushers = range(len(members))

        # pieces push in a fixed order, so equal multisets give equal lists
        hits = [defaultdict(list) for _ in graphs]
        for p in pushers:
            for x in members[p]:
                got = hits[graph_of[x]]
                for w in rows[x]:
                    got[w].append(p)
        pieces_of = defaultdict(dict)
        for (start, _), got in zip(spans, hits):
            for w, sig in got.items():
                y = start + w
                pieces_of[cls[y]].setdefault(tuple(sig), []).append(y)

        pushers = []
        for c, by_sig in pieces_of.items():
            block = members[c]
            pieces = sorted(by_sig.values(), key=len)
            if sum(map(len, pieces)) == len(block):
                if len(pieces) == 1:
                    continue
                pieces.pop()  # every node was touched: the largest keeps c
            for nodes in pieces:
                block.difference_update(nodes)
                k = len(members)
                members.append(set(nodes))
                for y in nodes:
                    cls[y] = k
            # every piece but one largest pushes next round
            new = range(len(members) - len(pieces), len(members))
            if pieces and len(pieces[-1]) > len(block):
                pushers.append(c)
                pushers.extend(new[:-1])
            else:
                pushers.extend(new)
        return [cls[a:b] for a, b in spans]

    return _run_refinement(graphs, update, rounds, init)


# ---------------------------------------------------------------------------
# terminating walks and the walk-based refinement


def terminating_walks(
    g: Graph, u: int, length: int, guard: int = DEFAULT_WALK_GUARD
):
    """All walks of length 1..length that end at u, with multiplicity.

    Each walk is a node tuple (w_0, ..., w_L) with w_L = u. Walk counts
    grow with the path counts of the graph, so enumeration aborts with
    RefinementGuardError once more than `guard` walks appear.
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if not 0 <= u < g.n:
        raise ValueError(f"node {u} out of range")
    out = []
    level = [(u,)]
    for _ in range(length):
        nxt = []
        for seq in level:
            head = seq[0]
            for x in g.adjacency[head]:
                nxt.append((x,) + seq)
        if len(out) + len(nxt) > guard:
            raise RefinementGuardError(
                f"more than {guard} terminating walks at node {u}"
            )
        out.extend(nxt)
        level = nxt
    return out


def wwl_refine(
    graphs,
    length: int,
    rounds: int | None = None,
    init=None,
    guard: int = DEFAULT_WALK_GUARD,
) -> RefinementRun:
    """Walk-based refinement at a fixed maximum walk length.

    Each round hashes (current color, multiset of colored terminating
    walks of length 1..length). Supports a non-uniform initial coloring,
    which is what the fixed-point comparison against classic WL uses.
    """
    graphs = tuple(graphs)
    walks_per_graph = [
        [terminating_walks(g, u, length, guard) for u in range(g.n)]
        for g in graphs
    ]

    def update(colors):
        result = []
        for cur, walks_by_node in zip(colors, walks_per_graph):
            color_of = cur.__getitem__
            colored = [
                tuple(sorted([tuple(map(color_of, walk)) for walk in walks]))
                for walks in walks_by_node
            ]
            result.append(list(zip(cur, colored)))
        return result

    return _run_refinement(graphs, update, rounds, init)


# ---------------------------------------------------------------------------
# unfolding trees


@dataclass(frozen=True)
class UnfoldingTree:
    """Depth-d recursive neighbor expansion rooted at a node.

    The depth-0 tree is a bare root; at depth d every neighbor of the
    root label contributes one fresh depth-(d-1) subtree.
    """

    label: int
    children: tuple["UnfoldingTree", ...]
    depth: int

    @property
    def node_count(self) -> int:
        return 1 + sum(c.node_count for c in self.children)


def unfolding_tree(
    g: Graph, u: int, depth: int, guard: int = DEFAULT_TREE_GUARD
) -> UnfoldingTree:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not 0 <= u < g.n:
        raise ValueError(f"node {u} out of range")
    budget = [guard]

    def build(v: int, d: int) -> UnfoldingTree:
        budget[0] -= 1
        if budget[0] < 0:
            raise RefinementGuardError(
                f"unfolding tree exceeds {guard} nodes"
            )
        if d == 0:
            return UnfoldingTree(label=v, children=(), depth=0)
        return UnfoldingTree(
            label=v,
            children=tuple(build(w, d - 1) for w in g.adjacency[v]),
            depth=d,
        )

    return build(u, depth)


def leaf_paths(tree: UnfoldingTree):
    """Node sequences read from each depth-`tree.depth` leaf up to the root.

    For the depth-d tree of u these are exactly the length-d walks of the
    graph terminating at u, with multiplicity.
    """
    if tree.depth == 0:
        return [(tree.label,)]
    paths = []
    for child in tree.children:
        for p in leaf_paths(child):
            paths.append(p + (tree.label,))
    return paths


# ---------------------------------------------------------------------------
# distinguishing verdicts


@dataclass(frozen=True)
class DistinguishVerdict:
    test: str
    result: str  # "distinguished" | "inconclusive"
    rounds_to_stable: int


def distinguish(
    g: Graph, h: Graph, test: str = "wl", length: int | None = None
) -> DistinguishVerdict:
    """Compare stable color multisets of a joint refinement run.

    "distinguished" certifies the graphs non-isomorphic; "inconclusive"
    means the test cannot separate them (they may still differ).
    """
    if test == "wl":
        run = wl_refine([g, h])
        label = "wl"
    elif test == "wwl":
        if length is None:
            raise ValueError("wwl test needs a walk length")
        run = wwl_refine([g, h], length)
        label = f"wwl({length})"
    else:
        raise ValueError(f"test must be 'wl' or 'wwl', got {test!r}")
    differ = run.stable_color_multiset(0) != run.stable_color_multiset(1)
    return DistinguishVerdict(
        test=label,
        result="distinguished" if differ else "inconclusive",
        rounds_to_stable=run.stable_round,
    )
