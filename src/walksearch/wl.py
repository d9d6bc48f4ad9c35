"""Color refinement: classic 1-WL and its walk-based variant, plus
unfolding trees.

Both refinements run jointly over one or more graphs, so colors are
comparable across the graphs of one run (and only there). The classic
update hashes (current color, multiset of neighbor colors); the walk
variant hashes (current color, multiset of colored terminating walks of
length 1..ell), where a colored walk is the tuple of colors along its
nodes. Color tuples of different walk lengths are distinct tuples, so
payloads are length-aware by construction.

A run is kept as a split log, not as one color tuple per node per round.
Every node of the joint node set carries a class index; round 0 numbers
the initial labels' classes in order of first appearance, and each
later round records, for every class that split, the pieces that left
it, each under the next fresh index (one piece keeps the old index).
Class indices share the payloads' equalities within a round, so they
serve as the colors the updates hash. A round without a split is the
stable round: a stable partition is a fixed point of both refinements,
so the driver stops updating there and any further requested rounds are
empty (see `_run_refinement`).

`RefinementRun.history`, the color ids of a single run-wide dictionary
(each round's payloads numbered in order of first appearance, graph by
graph, node by node), is rebuilt from the log on first access: round r's
id of a node is the class counts of rounds 0..r-1 summed, plus the rank
of the node's class by least joint node. The CLI renders each round's
sorted blocks straight from the log (`RefinementRun.blocks_json`), and
stable color multisets are read from the last round's classes, so
neither builds `history`.

1-WL does not build its payloads. It derives each round from the
previous round's splits: only the smaller pieces of a class that just
split tell their neighbors, so a run reads O(m log n) adjacency entries
instead of 2m per round (see `wl_refine`). Color ids are run-relative
and never compared across runs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
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
    """A joint refinement over one or more graphs, kept as a split log.

    Joint node x is node x - start of the graph whose nodes start at
    `start`, graph by graph. `initial[x]` is x's class index at round 0
    (classes numbered by least joint node). `splits[r - 1]` lists round
    r's splits as (old class, nodes that left it) pairs; the i-th pair of
    a round gets the i-th fresh index, so after round r the classes are
    0..k_r - 1. Rounds past `len(splits)` split nothing. `final[x]` is x's
    class index after the last round that split. `rounds` is the number
    of update rounds; `stable_round` is the first round whose joint
    partition equals the next round's, or None if the run was cut off
    before stabilizing.

    `history[r][gi][u]` is the color id of node u of graph gi after r
    update rounds (round 0 is the initial coloring), as one run-wide
    dictionary of payloads would number them; it is built from the log
    on first access and cached.
    """

    graphs: tuple[Graph, ...]
    initial: tuple[int, ...]
    splits: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    final: tuple[int, ...]
    rounds: int
    stable_round: int | None

    def _spans(self) -> list[tuple[int, int]]:
        spans, start = [], 0
        for g in self.graphs:
            spans.append((start, start + g.n))
            start += g.n
        return spans

    @cached_property
    def history(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return self._build_history()

    def _build_history(self):
        """Replay the log: round r's ids are its offset (the class counts
        of rounds 0..r-1) plus the rank of each class by least joint node,
        which is the order in which interning meets the classes."""
        spans = self._spans()
        cls = list(self.initial)
        count = len(set(cls))
        offset = 0
        history = []
        for r in range(self.rounds + 1):
            if 0 < r <= len(self.splits):
                for k, (_, nodes) in enumerate(self.splits[r - 1], count):
                    for y in nodes:
                        cls[y] = k
                count += len(self.splits[r - 1])
            rank: dict = {}
            ids = [rank.setdefault(c, offset + len(rank)) for c in cls]
            history.append(tuple(tuple(ids[a:b]) for a, b in spans))
            offset += count
        return tuple(history)

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

    def blocks_json(self):
        """Yield (round, graph index, text) for every round and graph, in
        that order, where text is `json.dumps(self.sorted_blocks(round,
        graph))`, rendered from the split log without `history`.

        Each graph keeps one JSON fragment per block, stored at the
        block's least local node. A round re-renders only the classes that
        split and their new pieces: the pieces of a block cover it, so the
        piece holding the old least node overwrites the old fragment and
        every other piece lands on a node that led no block. Joining the
        fragments in node order gives the blocks sorted by least node.
        """
        spans = self._spans()
        members: list[set[int]] = [set() for _ in set(self.initial)]
        for x, c in enumerate(self.initial):
            members[c].add(x)
        frags = [[""] * g.n for g in self.graphs]
        ends = [b for _, b in spans]
        # joint node -> its local index as JSON text
        label = [str(u) for g in self.graphs for u in range(g.n)].__getitem__

        def render(c, touched):
            nodes = sorted(members[c])
            i = 0
            while i < len(nodes):
                gi = bisect_right(ends, nodes[i])
                start, end = spans[gi]
                j = bisect_left(nodes, end, i)
                text = ", ".join(map(label, nodes[i:j]))
                frags[gi][nodes[i] - start] = "[" + text + "]"
                touched.add(gi)
                i = j

        def joined(gi):
            return "[" + ", ".join(filter(None, frags[gi])) + "]"

        touched: set[int] = set()
        for c in range(len(members)):
            render(c, touched)
        texts = [joined(gi) for gi in range(len(self.graphs))]
        for r in range(self.rounds + 1):
            if 0 < r <= len(self.splits):
                split = set()
                for c, nodes in self.splits[r - 1]:
                    members[c].difference_update(nodes)
                    split.add(c)
                    split.add(len(members))
                    members.append(set(nodes))
                touched.clear()
                for c in split:
                    render(c, touched)
                for gi in touched:
                    texts[gi] = joined(gi)
            for gi, text in enumerate(texts):
                yield r, gi, text

    def stable_partition(self, graph_idx: int) -> Partition:
        if self.stable_round is None:
            raise ValueError("run did not stabilize within its round budget")
        start, end = self._spans()[graph_idx]
        return partition_of(self.final[start:end])

    def stable_color_multiset(self, graph_idx: int) -> Counter:
        """Stable-round color ids of one graph with their counts, read from
        the last round's classes (the stable partition) without `history`."""
        if self.stable_round is None:
            raise ValueError("run did not stabilize within its round budget")
        # every round before the stable one split, so the log ends there
        count = len(set(self.initial))
        offset = 0
        for splits in self.splits:
            offset += count
            count += len(splits)
        rank: dict = {}
        for c in self.final:
            rank.setdefault(c, offset + len(rank))
        start, end = self._spans()[graph_idx]
        sizes = Counter(self.final[start:end])
        return Counter({rank[c]: size for c, size in sizes.items()})


def _run_refinement(graphs, update, rounds, init):
    """Shared driver: number the initial classes, apply `update` per round
    and log its splits.

    The driver keeps `cls` (class index per joint node) and `members`
    (joint node set per class index). `update(cls, members)` returns the
    round's splits as (class, nodes) pairs, read against the classes of
    the round before: nodes leave their class for a fresh index, the i-th
    pair taking index len(members) + i. Runs for `rounds` updates when
    given, else until the joint partition repeats.

    Initial labels are numbered in order of first appearance over the
    joint node set, i.e. by least joint node. Because each payload carries
    the node's current color, round r+1's joint partition refines round
    r's; the two are equal exactly when round r+1 split nothing, and then
    r is the stable round. The partition is then a fixed point, so every
    further round would split nothing too: the driver stops calling
    `update` and leaves the rest of a requested round budget empty.
    """
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    if rounds is not None and rounds < 0:
        raise ValueError("rounds must be >= 0")
    if init is None:
        labels = [0] * sum(g.n for g in graphs)
    else:
        init = tuple(tuple(labels) for labels in init)
        if len(init) != len(graphs) or any(
            len(labels) != g.n for labels, g in zip(init, graphs)
        ):
            raise ValueError("init must give one label per node per graph")
        labels = chain.from_iterable(init)
    table: dict = {}
    cls = [table.setdefault(label, len(table)) for label in labels]
    initial = tuple(cls)
    members: list[set[int]] = [set() for _ in table]
    for x, c in enumerate(cls):
        members[c].add(x)

    max_rounds = rounds if rounds is not None else len(cls) + 1
    log = []
    stable_round = None
    while len(log) < max_rounds:
        splits = update(cls, members)
        if not splits:
            stable_round = len(log)
            break
        for c, nodes in splits:
            k = len(members)
            members[c].difference_update(nodes)
            members.append(set(nodes))
            for y in nodes:
                cls[y] = k
        log.append(tuple((c, tuple(nodes)) for c, nodes in splits))
    return RefinementRun(
        graphs=graphs,
        initial=initial,
        splits=tuple(log),
        final=tuple(cls),
        rounds=rounds if rounds is not None else stable_round + 1,
        stable_round=stable_round,
    )


def wl_refine(graphs, rounds: int | None = None, init=None) -> RefinementRun:
    """Joint 1-WL refinement: hash (color, multiset of neighbor colors).

    Rounds are driven by the previous round's splits rather than by
    re-hashing every node. In round 1 every class pushes its index to the
    neighbors of its nodes; in a later round only the pieces of a class
    that split in the round before do, except one largest piece per split
    class. A class then splits by the pushes its nodes received, the
    nodes that got none forming one more group, which keeps the class
    index (or else one largest group does).

    This is sound because two nodes of one class had equal neighbor
    counts in every class of the round before. A skipped piece's count
    is the old class's count minus the pushed pieces' counts, and an
    unsplit class's count is equal throughout the class, so the pushes
    decide the naive payload. After round 1 a node lies in a pushed
    piece at most log2(N) times, as that piece is at most half its old
    class, so a run over N nodes and m edges reads at most
    2m(log2(N) + 1) adjacency entries (Paige and Tarjan's "process the
    smaller half").
    """
    graphs = tuple(graphs)
    # joint node x = its graph's start + its index there
    spans, graph_of, rows = [], [], []
    for gi, g in enumerate(graphs):
        spans.append((len(rows), len(rows) + g.n))
        graph_of.extend([gi] * g.n)
        rows.extend(g.adjacency)
    pushers = None

    def update(cls, members):
        nonlocal pushers
        if pushers is None:
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

        splits, pushers = [], []
        for c, by_sig in pieces_of.items():
            pieces = sorted(by_sig.values(), key=len)
            kept = len(members[c]) - sum(map(len, pieces))
            if not kept:
                if len(pieces) == 1:
                    continue
                kept = len(pieces.pop())  # all touched: the largest keeps c
            first = len(members) + len(splits)
            splits.extend((c, nodes) for nodes in pieces)
            # every piece but one largest pushes next round
            new = range(first, len(members) + len(splits))
            if len(pieces[-1]) > kept:
                pushers.append(c)
                pushers.extend(new[:-1])
            else:
                pushers.extend(new)
        return splits

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

    def update(cls, members):
        # class indices stand in for colors: a bijection within the round
        groups = defaultdict(dict)
        x = 0
        for walks_by_node in walks_per_graph:
            color_of = cls[x : x + len(walks_by_node)].__getitem__
            for walks in walks_by_node:
                key = tuple(sorted([tuple(map(color_of, w)) for w in walks]))
                groups[cls[x]].setdefault(key, []).append(x)
                x += 1
        # every group but one largest per class leaves it
        splits = []
        for c, by_key in groups.items():
            pieces = sorted(by_key.values(), key=len)
            splits.extend((c, nodes) for nodes in pieces[:-1])
        return splits

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
