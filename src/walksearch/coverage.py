"""Coverage accounting, edge-inclusion probabilities, and sample-size bounds.

Covers four related questions about sampled walks and searches:
how much of the graph a sample set touches, how likely a single random
DFS tree is to contain each edge (exactly, with the escape-set lower
bounds), how many searches guarantee full edge coverage with failure
probability delta, and how long walks take to cover all nodes or edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, degree_stats
from .samplers import (
    DEFAULT_ENUM_BUDGET,
    SampleSet,
    SearchGraph,
    WalkPolicy,
    _enumerate,
    _reciprocal_sum,
    derive_rng,
    sample_dfs,
)


@dataclass(frozen=True)
class CoverageReport:
    """Node/edge coverage of a sample set plus per-node occurrence counts."""

    node_fraction: float
    edge_fraction: float
    covered_edges: frozenset[tuple[int, int]]
    occurrence_counts: tuple[int, ...]


def coverage_report(g: Graph, sset: SampleSet) -> CoverageReport:
    """Tally coverage: walks cover the edges they traverse, searches the
    union of their tree edges. Occurrence counts tally every sequence
    position, so a walk revisiting a node counts it repeatedly. A walk
    step or tree edge that is not an edge of `g`, or a node id out of
    range, raises ValueError (`SampleSet` itself checks its kind), and
    so does a graph with no node."""
    if g.n < 1:
        raise ValueError("empty graph")
    counts = [0] * g.n
    covered_nodes: set[int] = set()
    covered_edges: set[tuple[int, int]] = set()
    nbr = g.neighbor_sets()
    for rec in sset.items:
        if sset.kind == "walks":
            seq, pairs, what = rec.nodes, zip(rec.nodes, rec.nodes[1:]), "walk step"
        else:
            seq, pairs, what = rec.visit_order, rec.tree_edges, "tree edge"
        for a, b in pairs:
            if not 0 <= a < g.n or not 0 <= b < g.n:
                bad = b if 0 <= a < g.n else a
                raise ValueError(f"node id {bad} out of range for n={g.n}")
            if b not in nbr[a]:
                raise ValueError(f"{what} ({a}, {b}) is not an edge")
            covered_edges.add((a, b) if a < b else (b, a))
        for w in seq:
            if not 0 <= w < g.n:
                raise ValueError(f"node id {w} out of range for n={g.n}")
            counts[w] += 1
            covered_nodes.add(w)
    return CoverageReport(
        node_fraction=len(covered_nodes) / g.n,
        edge_fraction=(
            len(covered_edges) / g.edge_count if g.edge_count else 1.0
        ),
        covered_edges=frozenset(covered_edges),
        occurrence_counts=tuple(counts),
    )


# ---------------------------------------------------------------------------
# escape sets and edge-inclusion probability


@dataclass(frozen=True)
class EscapeSet:
    """Neighbors of `side` that can start a detour to the other endpoint.

    For edge e = (u, v) and side u, the members are the neighbors
    w != v of u from which v is reachable without using u (equivalently:
    a simple u-to-v path avoiding e starts with the edge (u, w)). Their
    count tau controls how likely DFS is to skip e.
    """

    edge: tuple[int, int]
    side: int
    members: frozenset[int]
    tau: int


def escape_set(g: Graph, e: tuple[int, int], side: int) -> EscapeSet:
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge {e} not in graph")
    if side == u:
        other = v
    elif side == v:
        other = u
    else:
        raise ValueError(f"side {side} is not an endpoint of {e}")
    # component of `other` in g minus the node `side` (removing the node
    # also removes e, so any w-to-other route found avoids both)
    reach = bytearray(g.n)
    reach[other] = 1
    stack = [other]
    while stack:
        x = stack.pop()
        for y in g.adjacency[x]:
            if y != side and not reach[y]:
                reach[y] = 1
                stack.append(y)
    members = frozenset(
        w for w in g.adjacency[side] if w != other and reach[w]
    )
    key = (u, v) if u < v else (v, u)
    return EscapeSet(edge=key, side=side, members=members, tau=len(members))


@dataclass(frozen=True)
class EdgeInclusionReport:
    """Exact probability that an edge appears in one random DFS tree, with
    the escape-set bound min(1/(tau_u+1), 1/(tau_v+1)) and the 1/d_max
    bound."""

    edge: tuple[int, int]
    probability: Fraction
    tau_bound: Fraction
    dmax_bound: Fraction


def edge_inclusion_probs(g: Graph) -> dict[tuple[int, int], EdgeInclusionReport]:
    """Exact probability that each edge lies in the tree of one random DFS,
    keyed (u, v) with u < v as in `Graph.edges`; a one-node graph gives {}.

    One pass of the enumeration behind `enumerate_dfs` adds each outcome's
    den to its n - 1 tree edges, and each edge sums 1/den in integers.
    """
    dens = {e: [] for e in sorted(g.edges())}
    for order, parent, den in _enumerate(g, DEFAULT_ENUM_BUDGET):
        for v in order[1:]:  # the root's parent entry is stale
            u = parent[v]
            dens[(u, v) if u < v else (v, u)].append(den)
    d_max = degree_stats(g).d_max
    reports = {}
    for e, edge_dens in dens.items():
        tau_bound = Fraction(1, max(escape_set(g, e, w).tau for w in e) + 1)
        dmax_bound = Fraction(1, d_max)
        prob = Fraction(*_reciprocal_sum(edge_dens))
        assert prob >= tau_bound >= dmax_bound
        reports[e] = EdgeInclusionReport(e, prob, tau_bound, dmax_bound)
    return reports


# ---------------------------------------------------------------------------
# sample-size bound


@dataclass(frozen=True)
class BoundQuery:
    """Inputs and result of the full-edge-coverage sample-size bound.

    m_required = ceil(ln(C*n / delta) / ln(d_max / (d_max - 1))). When
    d_max <= 1 the logarithm degenerates; such graphs (a single node or a
    single edge) are trees, one search covers them, and the query is
    flagged degenerate with m_required = 1.
    """

    c: float
    n: int
    d_max: int
    delta: float
    m_required: int
    degenerate: bool


def bound_query(c: float, n: int, d_max: int, delta: float) -> BoundQuery:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    if not 0.0 <= c < math.inf:
        raise ValueError("C must be finite and >= 0")
    if d_max <= 1:
        return BoundQuery(
            c=c, n=n, d_max=d_max, delta=delta, m_required=1, degenerate=True
        )
    try:
        cn = c * n
    except OverflowError:  # n past the largest float
        raise ValueError("n must convert to a finite float") from None
    if cn < 1.0:
        raise ValueError("C*n must be at least 1")
    ratio = cn / delta
    if not math.isfinite(ratio):
        raise ValueError("C*n/delta must be finite")
    if d_max > 2**53:  # then d_max / (d_max - 1) rounds to 1.0
        raise ValueError("d_max must be at most 2**53")
    raw = math.log(ratio) / math.log(d_max / (d_max - 1))
    return BoundQuery(
        c=c,
        n=n,
        d_max=d_max,
        delta=delta,
        m_required=max(1, math.ceil(raw)),
        degenerate=False,
    )


def sample_bound_m(c: float, n: int, d_max: int, delta: float) -> int:
    """Searches needed so their tree union covers every edge w.p. >= 1-delta."""
    return bound_query(c, n, d_max, delta).m_required


def full_coverage_probability(g: Graph, m: int, trials: int, seed: int) -> float:
    """Fraction of trials in which m independent DFS trees cover all of E.

    The trials draw their searches in turn from one ``derive_rng(seed)``;
    a trial runs no further search once its trees cover E.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    all_edges = g.edges()
    rng = derive_rng(seed)
    covered = 0
    for _ in range(trials):
        uncovered = set(all_edges)
        for _ in range(m):
            uncovered -= sample_dfs(g, rng).tree_edges
            if not uncovered:
                covered += 1
                break
    return covered / trials


def bound_check_report(g: Graph, delta: float, trials: int, seed: int) -> dict:
    """Eq-style bound versus Monte Carlo: JSON-ready dict with the bound
    inputs, m_required, and the empirical full-coverage success rate. A
    graph with no node is refused first, as every search refuses it."""
    if g.n < 1:
        raise ValueError("empty graph")
    stats = degree_stats(g)
    q = bound_query(stats.sparsity_c, g.n, stats.d_max, delta)
    success = full_coverage_probability(g, q.m_required, trials, seed)
    return {
        "C": stats.sparsity_c,
        "n": g.n,
        "d_max": stats.d_max,
        "delta": delta,
        "m_required": q.m_required,
        "empirical_success": success,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# cover times


@dataclass(frozen=True)
class CoverTimeReport:
    """Walk steps until full node (or edge) coverage, censored at a cap."""

    target: str
    policy: str
    trials: int
    cap: int
    censored: int
    mean: float | None
    quantiles: dict


def cover_time_estimate(
    g: Graph,
    policy: str = "uniform",
    target: str = "node",
    trials: int = 100,
    cap: int | None = None,
    seed: int = 0,
) -> CoverTimeReport:
    """Monte Carlo walk cover times.

    Each trial walks from a uniform start until every node (or every
    edge) has been visited (traversed), or until `cap` steps (default
    50·n²); capped trials are reported as censored, never silently
    dropped. The mean and quantiles summarize uncensored trials only.
    The trials run `WalkPolicy.cover_time` in turn on one
    ``derive_rng(seed)``; each makes exactly the draws of
    ``WalkPolicy.walk`` up to its covering step (or its first `cap`
    steps), and the next trial starts there. The first trial refuses an
    unknown `target` or a `cap` below 1 before it draws.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap is None:
        cap = 50 * g.n * g.n
    pol = WalkPolicy(g, policy)
    rng = derive_rng(seed)
    results = [pol.cover_time(rng, target, cap) for _ in range(trials)]
    finished = sorted(r for r in results if r is not None)
    censored = trials - len(finished)

    def quantile(q: float) -> float | None:
        if not finished:
            return None
        idx = min(len(finished) - 1, int(q * len(finished)))
        return float(finished[idx])

    return CoverTimeReport(
        target=target,
        policy=policy,
        trials=trials,
        cap=cap,
        censored=censored,
        mean=(sum(finished) / len(finished)) if finished else None,
        quantiles={
            "p25": quantile(0.25),
            "p50": quantile(0.50),
            "p75": quantile(0.75),
            "p90": quantile(0.90),
        },
    )


# ---------------------------------------------------------------------------
# coverage curves


@dataclass(frozen=True)
class CoverageCurveRow:
    kind: str
    m: int
    node_frac_mean: float
    edge_frac_mean: float
    trials: int
    seed: int


CURVE_CSV_HEADER = "kind,m,node_frac_mean,edge_frac_mean,trials,seed"


def coverage_curve(
    g: Graph,
    kinds,
    m_list,
    trials: int,
    seed: int,
    length: int | None = None,
) -> list[CoverageCurveRow]:
    """Mean coverage fractions as the sample count m grows.

    Within a trial the m values share one sampled stream (the m-record
    coverage is a prefix of the (m+1)-record coverage), so the mean curve
    is nondecreasing in m by construction and each row's marginal law is
    that of m independent records. Walks (of `length` steps, default n)
    need a connected graph on at least 2 nodes, and each walk marks its
    nodes and edge ids as it steps, with `WalkPolicy.cover`, building no
    list of its nodes. Searches need a connected graph, and on one node
    they cover it with no edge to miss. A search
    visits every node, so its node fraction is 1 by construction; its
    edge fraction comes from `SearchGraph.cover`, and a search trial runs
    no further search once every edge is covered. Each kind draws its
    trials in turn from its own generator, ``derive_rng(seed, kind)``, so
    a trial starts where the one before stopped drawing. Each mean adds
    the trials' fractions in trial order as they are drawn, not through
    `sum()`, whose float rounding differs from CPython 3.12 on.
    """
    kinds = tuple(kinds)
    if not kinds:
        raise ValueError("kinds must be nonempty")
    if len(set(kinds)) != len(kinds):
        raise ValueError("kinds must not repeat")
    if not m_list:
        raise ValueError("m_list must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    m_list = sorted(set(int(m) for m in m_list))
    if m_list[0] < 1:
        raise ValueError("all m must be >= 1")
    for kind in kinds:
        if kind not in ("walks", "searches"):
            raise ValueError(f"unknown kind {kind!r}")
    if "walks" in kinds:
        # `cover` checks it too, but only after any search trials have run
        if length is not None and length < 1:
            raise ValueError("walk length must be >= 1")
        walk_length = g.n if length is None else length
        walk_pol = WalkPolicy(g, "uniform")
    if "searches" in kinds:
        search_graph = SearchGraph(g)
    max_m = m_list[-1]
    targets = set(m_list)
    n, edge_count = g.n, g.edge_count

    def walk_trial(rng):
        node_seen, edge_seen = bytearray(n), bytearray(edge_count)
        nodes_left, edges_left = n, edge_count
        for j in range(1, max_m + 1):
            nodes_left, edges_left = walk_pol.cover(
                rng, walk_length, node_seen, edge_seen, nodes_left, edges_left
            )
            if j in targets:
                yield (n - nodes_left) / n, (edge_count - edges_left) / edge_count

    def search_trial(rng):
        seen, remaining = bytearray(edge_count), edge_count
        for j in range(1, max_m + 1):
            if remaining:
                remaining = search_graph.cover(rng, seen, remaining)
            if j in targets:
                # a graph without edges (one node) has none to miss
                yield 1.0, (
                    (edge_count - remaining) / edge_count if edge_count else 1.0
                )

    rows = []
    for kind in kinds:
        trial = walk_trial if kind == "walks" else search_trial
        totals = [[0.0, 0.0] for _ in m_list]
        rng = derive_rng(seed, kind)
        for _ in range(trials):
            for total, (node_frac, edge_frac) in zip(totals, trial(rng)):
                total[0] += node_frac
                total[1] += edge_frac
        for m, (node_total, edge_total) in zip(m_list, totals):
            rows.append(
                CoverageCurveRow(
                    kind=kind,
                    m=m,
                    node_frac_mean=node_total / trials,
                    edge_frac_mean=edge_total / trials,
                    trials=trials,
                    seed=seed,
                )
            )
    return rows


def curve_rows_to_csv(rows) -> str:
    lines = [CURVE_CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.kind},{r.m},{r.node_frac_mean!r},{r.edge_frac_mean!r},"
            f"{r.trials},{r.seed}"
        )
    return "\n".join(lines) + "\n"
