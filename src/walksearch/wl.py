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
it, each under the next fresh index (one largest piece keeps the old
index). Class indices share the payloads' equalities within a round, so
they serve as the colors the update hashes. A round without a split is
the stable round: a stable partition is a fixed point of both
refinements, so `_refine` stops running rounds there and any further
requested rounds are empty.

`RefinementRun.history`, the color ids of a single run-wide dictionary
(each round's payloads numbered in order of first appearance, graph by
graph, node by node), is rebuilt from the log on first access: round r's
id of a node is the class counts of rounds 0..r-1 summed, plus the rank
of the node's class by least joint node. The CLI renders each round's
sorted blocks straight from the log (`RefinementRun.blocks_json`): a
class that splits keeps its sorted nodes and their labels, so a round
builds in Python only the pieces that moved (O(N log N) nodes over a run
on N nodes) and trims and re-joins each class they left in C, in O(its
size). Stable color multisets are read from the last round's classes, so
neither builds `history`.

1-WL is walk refinement at length 1: `wl_refine` and `wwl_refine` are
each one call of `_refine`, which runs every round as one `_round`. A
round lists no walk. It names each colored walk by an id interned from
(id of the walk without its last node, class of that node), and pushes,
level by level, the ids of the walks through nodes that moved in the
round before (the only walks whose colors can have changed) from those
nodes out to their neighbors; round 1 counts every node as moved. A
round holds the ids it pushed and one length's walks near the moved
nodes, and the walk guard counts walks without listing them. Color ids
are run-relative and never compared across runs.

An unfolding tree is two flat tuples, its nodes' labels and subtree
depths in pre-order, built by one loop over a stack of neighbor-row
iterators and read back by `leaf_paths` in one pass. No node holds
another, so nothing recurses: a tree as deep as the guard allows can be
built, compared, hashed and printed.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat

from .graphs import Graph

DEFAULT_WALK_GUARD = 10**5
DEFAULT_TREE_GUARD = 10**5

# RefinementRun.blocks_json's two limits, set from measurements (CPython
# 3.11 on an Intel Xeon, CPU time, best of 7 runs, of 3 on 10**5 nodes).
#
# A class that loses at most _FEW_MOVED nodes deletes them from its sorted
# lists at bisected positions, each deletion moving a tail; otherwise it
# sorts its member set afresh. Deleting k of s nodes is the cheaper while
# k is below about 6 for s = 32, 24 for s = 100, 128 for s = 1000 and 256
# to 1024 for s >= 10**4. The benchmark's wl/wwl jobs fall on both sides
# (path runs move 2 to 6 nodes at once, hex_chain runs up to 798). With
# the limit at 0, `wl` on path_graph(1000) renders in 15.7 ms, not 6.5;
# with no limit, a 10**5-node path with 5 * 10**4 random chords renders
# in 0.85 s, not 0.32, and random_tree(10**5, seed 1) in 0.97 s, not 0.41.
_FEW_MOVED = 8
# A round that renders at most _FEW_CLASSES classes files each block in
# its graph's compact lists by bisection, each insertion moving a tail;
# a larger one joins the slot array. Filing k blocks is the cheaper while
# k is below 16 to 32 on 100 nodes and 64 to 128 on 10**3 to 10**5 nodes.
# No benchmark job renders more than 26 classes in a round. Never filing
# takes path_graph(1000) from 6.5 to 9.9 ms; always filing takes the
# chorded path above from 0.32 to 1.92 s and the tree from 0.41 to 1.71 s.
# Limits from 16 to 256 give the same times.
_FEW_CLASSES = 64


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

    def _replay(self):
        """Yield (round, cls, members, splits) for rounds 0..rounds: the
        class index per joint node and the joint node set per class after
        that round (one pair of lists, updated in place between yields) and
        the round's (class, nodes that left it) pairs, whose i-th piece took
        index len(members) - len(splits) + i (none at round 0)."""
        cls = list(self.initial)
        members = _member_sets(cls)
        yield 0, cls, members, ()
        for r in range(1, self.rounds + 1):
            splits = self.splits[r - 1] if r <= len(self.splits) else ()
            _apply_splits(cls, members, splits)
            yield r, cls, members, splits

    def _build_history(self):
        """Replay the log: round r's ids are `_color_ids` of its classes at
        its offset, the class counts of rounds 0..r-1."""
        spans = self._spans()
        offset = 0
        history = []
        for _, cls, members, _ in self._replay():
            ids = _color_ids(cls, offset)
            history.append(tuple(tuple(ids[a:b]) for a, b in spans))
            offset += len(members)
        return tuple(history)

    def partition(self, round_idx: int, graph_idx: int) -> Partition:
        return partition_of(self.history[round_idx][graph_idx])

    def blocks_json(self):
        """Yield (round, graph index, text) for every round and graph, in
        that order, where text is `json.dumps(self.partition(round,
        graph).sorted_blocks())`, rendered from the split log without
        `history`.

        Each class that some round splits keeps its joint nodes sorted
        and, beside them, their labels (local indices as JSON text). When
        it splits, a piece's two lists are built once, in Python. The
        class's own lists lose the moved nodes at bisected positions, or
        are sorted afresh from the replay's member set when more than
        `_FEW_MOVED` left; its blocks are then re-joined. Those two steps
        run in C in O(size of the kept class). A node moves only in a
        piece no larger than the one that keeps its class (see
        `_round`), so over a run on N joint nodes the pieces hold
        O(N log N) nodes.

        Each graph keeps a block's text at its least local node ("" at
        the others), and, while rounds render few classes, the blocks'
        least nodes and texts compacted in that order. A round that
        renders at most `_FEW_CLASSES` classes files each block there by
        bisection and joins the compact texts; a larger one joins the
        whole slot array and leaves the compact lists to be rebuilt from
        it by the next small round. No least node is ever dropped: the
        pieces of a split block cover it, and the one holding its least
        node is led by that node again.
        """
        spans = self._spans()
        ends = [b for _, b in spans]
        # joint node -> its local index as JSON text
        label = [str(u) for g in self.graphs for u in range(g.n)].__getitem__
        splitting = {c for splits in self.splits for c, _ in splits}
        # class -> its sorted joint nodes and their labels, for the classes
        # in `splitting` (the others never change once built)
        lists: dict[int, tuple[list[int], list[str]]] = {}
        opened = 0  # classes built so far
        # per graph: each block's text at its least local node, "" elsewhere
        slots = [[""] * g.n for g in self.graphs]
        # per graph: its blocks' least joint nodes, ascending, and their
        # texts in the same order; None after a large round
        leads: list = [[] for _ in spans]
        frags: list = [[] for _ in spans]
        touched: set[int] = set()

        def begin(xs, ls, filing):
            """Begin a class's blocks, one per graph holding some of its
            sorted joint nodes xs (labels ls), filing each in its graph's
            compact lists when `filing`."""
            i = 0
            while i < len(xs):
                x = xs[i]
                gi = bisect_right(ends, x)
                start, end = spans[gi]
                j = bisect_left(xs, end, i)
                text = "[" + ", ".join(ls[i:j]) + "]"
                slot = slots[gi]
                if filing:
                    if frags[gi] is None:  # rebuilt after a large round
                        frags[gi] = list(filter(None, slot))
                        leads[gi] = list(compress(range(start, end), slot))
                    p = bisect_left(leads[gi], x)
                    if slot[x - start]:  # x led a block already
                        frags[gi][p] = text
                    else:
                        leads[gi].insert(p, x)
                        frags[gi].insert(p, text)
                slot[x - start] = text
                touched.add(gi)
                i = j

        # a graph without nodes has no blocks
        texts = ["[]"] * len(spans)
        for r, _, members, splits in self._replay():
            moved: dict = {}  # split class -> the nodes that left it
            for c, ys in splits:
                moved.setdefault(c, []).extend(ys)
            # round 0 builds every class, a later round its pieces
            pieces = members if r == 0 else [ys for _, ys in splits]
            filing = len(moved) + len(pieces) <= _FEW_CLASSES
            for c, ys in moved.items():
                xs, ls = lists[c]
                if len(ys) <= _FEW_MOVED:
                    for p in sorted(map(bisect_left, repeat(xs), ys))[::-1]:
                        del xs[p], ls[p]
                else:
                    xs[:] = sorted(members[c])
                    ls[:] = map(label, xs)
                begin(xs, ls, filing)
            for block in pieces:
                xs = sorted(block)
                ls = list(map(label, xs))
                begin(xs, ls, filing)
                if opened in splitting:
                    lists[opened] = xs, ls
                opened += 1
            for gi in touched:
                if filing:
                    texts[gi] = "[" + ", ".join(frags[gi]) + "]"
                else:
                    frags[gi] = leads[gi] = None
                    texts[gi] = "[" + ", ".join(filter(None, slots[gi])) + "]"
            touched.clear()
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
        start, end = self._spans()[graph_idx]
        return Counter(_color_ids(self.final, offset)[start:end])


def _color_ids(cls, offset: int) -> list[int]:
    """Each joint node's color id in a round whose class indices are
    `cls`: `offset` plus the rank of its class by least joint node, which
    is the order in which interning meets the classes."""
    rank: dict = {}
    return [rank.setdefault(c, offset + len(rank)) for c in cls]


def _member_sets(cls) -> list[set[int]]:
    """Joint node set per class index, for classes numbered 0..k-1."""
    members: list[set[int]] = [set() for _ in set(cls)]
    for x, c in enumerate(cls):
        members[c].add(x)
    return members


def _apply_splits(cls, members, splits) -> None:
    """Apply one round's splits to `cls` and `members` in place: the
    nodes of the i-th (class, nodes) pair leave their class for index
    len(members) + i."""
    for c, nodes in splits:
        k = len(members)
        members[c].difference_update(nodes)
        members.append(set(nodes))
        for y in nodes:
            cls[y] = k


# ---------------------------------------------------------------------------
# terminating walks and the two refinements


def terminating_walks(
    g: Graph, u: int, length: int, guard: int = DEFAULT_WALK_GUARD
):
    """All walks of length 1..length that end at u, with multiplicity.

    Each walk is a node tuple (w_0, ..., w_L) with w_L = u. Walk counts
    grow with the path counts of the graph, so enumeration aborts with
    RefinementGuardError before it builds the level that would bring the
    walks past `guard`.
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if not 0 <= u < g.n:
        raise ValueError(f"node {u} out of range")
    adjacency = g.adjacency
    out = []
    level = [(u,)]
    for _ in range(length):
        # the next level has one walk per neighbor of each walk's head
        if len(out) + sum(len(adjacency[seq[0]]) for seq in level) > guard:
            raise RefinementGuardError(
                f"more than {guard} terminating walks at node {u}"
            )
        level = [(x,) + seq for seq in level for x in adjacency[seq[0]]]
        out.extend(level)
    return out


def _check_walk_guard(graphs, length, guard) -> None:
    """Raise RefinementGuardError at the first node, in graph order and
    then node order, at which more than `guard` walks of length 1..length
    end (the node `terminating_walks` would trip at), without listing a
    walk.

    `ends[u]` counts the walks of the current length that end at u, the
    sum of its neighbors' counts one length shorter, and `totals[u]` the
    walks of every length so far; both are capped at guard + 1. Once a
    length's counts repeat the previous length's, every longer length
    repeats them too, so the lengths left add that many copies at once.
    That happens within about 2 * log2(guard) lengths, however large
    `length` is: an isolated node has no walk, a node of a lone edge one
    walk of every length, and in any larger component a node's count at
    least doubles every two lengths until it is capped.
    """
    cap = guard + 1
    for g in graphs:
        ends, totals = [1] * g.n, [0] * g.n
        reached = 0
        while reached < length:
            reached += 1
            counts = [min(cap, sum(map(ends.__getitem__, row)))
                      for row in g.adjacency]
            if counts == ends:  # so are the counts of every longer length
                left = length - reached + 1
                totals = [min(cap, t + left * w) for t, w in zip(totals, counts)]
                break
            totals = [min(cap, t + w) for t, w in zip(totals, counts)]
            ends = counts
        for u, total in enumerate(totals):
            if total > guard:
                raise RefinementGuardError(
                    f"more than {guard} terminating walks at node {u}"
                )


def _ball(adjacency, sources, radius: int) -> list:
    """The nodes within `radius` steps of `sources`, in layers by distance
    (layer 0 is `sources`), ending at the first empty layer."""
    layers = [sources]
    seen = set(sources) if radius > 0 else ()  # 1-WL rounds need none
    while len(layers) <= radius:
        layer = []
        for x in layers[-1]:
            for u in adjacency[x]:
                if u not in seen:
                    seen.add(u)
                    layer.append(u)
        if not layer:
            break
        layers.append(layer)
    return layers


def _push(adjacency, changed):
    """Send every node's walk ids in `changed` to each of its neighbors;
    returns node -> the ids it received, in one list."""
    received = defaultdict(list)
    for y, walk_ids in changed.items():
        for u in adjacency[y]:
            received[u] += walk_ids
    return received


def _round(adjacency, length, cls, members, moved):
    """One round of walk refinement at `length` (1-WL at length 1) on the
    joint `adjacency`. `cls` (class index per joint node) and `members`
    (joint node set per class index) are the classes of the round before,
    and `moved` the nodes that moved in it. Returns the round's splits, as
    (class, node tuple) pairs whose i-th takes index len(members) + i, and
    the nodes they moved.

    Walks are not listed. A round names each colored walk by an id,
    interned in a table made fresh for the round: a one-node walk's id is
    its node's class, and a longer walk's id is a negative int interned
    from (the id of the walk without its last node, its last node's
    class). By induction on the length, two ids are equal exactly when the
    colored walks are, and walks of different lengths never share an id.

    `changed[y]` holds the ids of the walks of the current length that end
    at y and pass a moved node: for a moved y, all of its walks, built
    level by level over the nodes within length - 1 steps of a moved node
    (`_ball`); for another y, the extensions of what it received. Each
    level pushes every `changed[y]` to y's neighbors (`_push`): the ids u
    receives name its walks one step longer that pass a moved node before
    u, and they join u's signature. The level loop stops at `length` or at
    the first level with no such walk. In a class, the nodes that received
    ids are grouped by their sorted signatures and the others form one
    more group; the largest group keeps the class index and every other
    group moves.

    This is exact. Class-mates had equal payloads in the round before and
    share their own class, so the ids in a signature determine the colored
    walks they end. A walk's colors change only at nodes that moved, and
    each fresh index names the class it came from, so a recolored walk
    determines its old colors: two class-mates that received ids have
    equal payloads exactly when their signatures are equal. A received id
    names a walk holding a fresh index before its last node, and a node
    that received none has no such walk, so the two never share a payload.
    A node moves only in a group no larger than the one that keeps the
    index, so it moves at most log2(N) times, and a walk's id is pushed in
    round 1 and then at most once per move of one of its first `length`
    nodes.
    """
    k = len(members)  # the key p * k + c names the pair (p, c)
    ids = defaultdict(count(-1, -1).__next__)
    layers = _ball(adjacency, moved, length - 1)
    # full[x]: the ids of all walks of the current length ending at x,
    # for the nodes close enough to a moved node to need them
    full = {x: [cls[x]] for layer in layers for x in layer}
    # one dict when the ball is the moved nodes alone, as at length 1
    changed = full if len(layers) == 1 else {y: full[y] for y in moved}
    signature: dict = {}
    level = 1
    while changed:
        received = _push(adjacency, changed)
        if level == 1:
            signature = received
        else:
            for u, walk_ids in received.items():
                signature.setdefault(u, []).extend(walk_ids)
        if level == length:
            break
        # the ids of the walks of `level` steps, kept where the walks
        # of later levels need them
        shorter, full = full, {}
        for x in chain.from_iterable(layers[: length - level]):
            c = cls[x]
            full[x] = [ids[p * k + c] for y in adjacency[x] for p in shorter[y]]
        # a moved node's walks all changed; another node's changed
        # walks extend what it received (a moved node without walks
        # has no neighbor, so it received nothing)
        changed = {x: full[x] for x in moved if full[x]}
        for u, walk_ids in received.items():
            if u not in changed:
                c = cls[u]
                changed[u] = [ids[p * k + c] for p in walk_ids]
        level += 1

    groups = defaultdict(dict)
    for y, sig in signature.items():
        sig.sort()
        groups[cls[y]].setdefault(tuple(sig), []).append(y)

    splits, moved = [], []
    for c, by_sig in groups.items():
        pieces = sorted(by_sig.values(), key=len)
        untouched = len(members[c]) - sum(map(len, pieces))
        if untouched < len(pieces[-1]):
            largest = pieces.pop()
            if untouched:
                pieces.append(members[c].difference(largest, *pieces))
        for nodes in pieces:
            splits.append((c, tuple(nodes)))
            moved += nodes
    return splits, moved


def _refine(graphs, length, guard, rounds, init) -> RefinementRun:
    """Joint walk refinement at `length` (1-WL at length 1), kept as a
    split log; runs for `rounds` rounds when given, else until the joint
    partition repeats.

    Inputs are rejected before any walk is counted, in this order: no
    graph, a walk length below 1, a negative round budget, then `init` not
    giving one label per node per graph. Then `_check_walk_guard` raises
    at the node `terminating_walks` with `guard` would trip at (a guard of
    math.inf is not checked).

    Initial labels are numbered in order of first appearance over the
    joint node set, i.e. by least joint node, and each round is one
    `_round`. Because each payload carries the node's current color, round
    r+1's joint partition refines round r's; the two are equal exactly
    when round r+1 split nothing, and then r is the stable round. The
    partition is then a fixed point, so every further round would split
    nothing too: the loop stops there and leaves the rest of a requested
    round budget empty.
    """
    graphs = tuple(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    if length < 1:
        raise ValueError("walk length must be >= 1")
    if rounds is not None and rounds < 0:
        raise ValueError("rounds must be >= 0")
    if init is not None:
        init = tuple(tuple(labels) for labels in init)
        if len(init) != len(graphs) or any(
            len(labels) != g.n for labels, g in zip(init, graphs)
        ):
            raise ValueError("init must give one label per node per graph")
    if guard < math.inf:
        _check_walk_guard(graphs, length, guard)
    adjacency, start = [], 0
    for g in graphs:
        if start:  # to joint node ids
            adjacency += [tuple(map(start.__add__, row)) for row in g.adjacency]
        else:
            adjacency += g.adjacency
        start += g.n

    labels = [0] * start if init is None else chain.from_iterable(init)
    table: dict = {}
    cls = [table.setdefault(label, len(table)) for label in labels]
    initial = tuple(cls)
    members = _member_sets(cls)
    moved = range(start)  # round 1 counts every node as moved
    max_rounds = rounds if rounds is not None else start + 1
    log = []
    stable_round = None
    while len(log) < max_rounds:
        splits, moved = _round(adjacency, length, cls, members, moved)
        if not splits:
            stable_round = len(log)
            break
        _apply_splits(cls, members, splits)
        log.append(tuple(splits))
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

    This is walk refinement at length 1, whose walks are the edges into a
    node, run by `_refine` without a walk guard: after round 1 a node's
    class is pushed along its edges only when it moved (see `_round`), so
    a run over N nodes and m edges pushes O(m log N) ids.
    """
    return _refine(graphs, 1, math.inf, rounds, init)


def wwl_refine(
    graphs, length: int, rounds: int | None = None, init=None
) -> RefinementRun:
    """Walk-based refinement at a fixed maximum walk length.

    Each round hashes (current color, multiset of colored terminating
    walks of length 1..length), pushing only the ids of the walks through
    nodes that moved (see `_round`); more than DEFAULT_WALK_GUARD walks at
    one node raise RefinementGuardError before any round, for any
    `length` (see `_refine`). Supports a non-uniform initial coloring,
    which is what the fixed-point comparison against classic WL uses.
    """
    return _refine(graphs, length, DEFAULT_WALK_GUARD, rounds, init)


# ---------------------------------------------------------------------------
# unfolding trees


@dataclass(frozen=True)
class UnfoldingTree:
    """Depth-d recursive neighbor expansion rooted at a node, kept flat in
    pre-order: `labels[i]` is the i-th node's graph label and `depths[i]`
    the depth of the subtree it roots; node 0 is the root.

    The depth-0 tree is a bare root; at depth d every neighbor of the
    root label contributes one fresh depth-(d-1) subtree. Nothing nests,
    so `==`, `hash` and `repr` work at any depth.
    """

    labels: tuple[int, ...]
    depths: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.labels)


def unfolding_tree(
    g: Graph, u: int, depth: int, guard: int = DEFAULT_TREE_GUARD
) -> UnfoldingTree:
    """The depth-`depth` unfolding tree of `u`, built in pre-order over a
    stack of (row iterator, child depth) entries, one per level, so no
    recursion limit bounds the depth. Raises RefinementGuardError once it
    opens more than `guard` nodes, counted in pre-order."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if not 0 <= u < g.n:
        raise ValueError(f"node {u} out of range")
    adjacency = g.adjacency
    labels, depths = [], []
    stack = [(iter((u,)), depth)]
    while stack:
        row, d = stack[-1]
        for v in row:
            if len(labels) >= guard:
                raise RefinementGuardError(f"unfolding tree exceeds {guard} nodes")
            labels.append(v)
            depths.append(d)
            if d:  # open v: its children come next
                stack.append((iter(adjacency[v]), d - 1))
                break
        else:
            stack.pop()
    return UnfoldingTree(labels=tuple(labels), depths=tuple(depths))


def leaf_paths(tree: UnfoldingTree):
    """Node sequences read from each leaf at full depth (`depths` entry 0)
    up to the root, in pre-order.

    For the depth-d tree of u these are exactly the length-d walks of the
    graph terminating at u, with multiplicity.
    """
    paths = []
    path: list[int] = []  # the labels from the root down to the node
    top = tree.depths[0]
    for v, d in zip(tree.labels, tree.depths):
        del path[top - d :]
        path.append(v)
        if d == 0:
            paths.append(tuple(reversed(path)))
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
