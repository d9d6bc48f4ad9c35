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

Stabilization is detected as partition equality between consecutive
rounds, tested by class count (see `_run_refinement`); color ids
themselves are run-relative and never compared across runs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

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

    `update(colors_per_graph)` returns one hashable payload per node per
    graph, each holding the node's current color. Runs for `rounds`
    updates when given, else until the joint partition repeats.

    Each round is interned in its own table, with ids continuing from the
    previous round's. Round 0's payloads are the initial labels; a later
    round's name only colors of the round before, whose ids are fresh by
    induction, so no payload of one round equals one of another and the
    ids are those of one run-wide dictionary.

    Because each payload carries the node's current color, round r+1's
    joint partition refines round r's; the two are equal exactly when
    they have as many classes, i.e. when both rounds interned as many
    distinct payloads.
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
    """Joint 1-WL refinement: hash (color, multiset of neighbor colors)."""
    graphs = tuple(graphs)

    def update(colors):
        result = []
        for g, cur in zip(graphs, colors):
            color_of = cur.__getitem__
            sigs = [tuple(sorted(map(color_of, nbrs))) for nbrs in g.adjacency]
            result.append(list(zip(cur, sigs)))
        return result

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
