"""Coverage accounting, edge-inclusion probabilities, and sample-size bounds.

Covers four related questions about sampled walks and searches:
how much of the graph a sample set touches, how likely a single random
DFS tree is to contain a given edge (exactly, or by Monte Carlo, with the
escape-set lower bounds), how many searches guarantee full edge coverage
with failure probability delta, and how long walks take to cover all
nodes or edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .graphs import Graph, degree_stats
from .samplers import (
    SampleSet,
    WalkPolicy,
    derive_rng,
    enumerate_dfs,
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
    position, so a walk revisiting a node counts it repeatedly."""
    counts = [0] * g.n
    covered_nodes: set[int] = set()
    covered_edges: set[tuple[int, int]] = set()
    nbr = g.neighbor_sets()
    for rec in sset.items:
        if sset.kind == "walks":
            seq = rec.nodes
            for a, b in zip(seq, seq[1:]):
                if not 0 <= a < g.n or not 0 <= b < g.n:
                    raise ValueError(
                        f"node id {max(a, b)} out of range for n={g.n}"
                    )
                if b not in nbr[a]:
                    raise ValueError(f"walk step ({a}, {b}) is not an edge")
                covered_edges.add((a, b) if a < b else (b, a))
        else:
            seq = rec.visit_order
            covered_edges.update(rec.tree_edges)
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
    """Probability that an edge appears in one random DFS tree, with the
    escape-set bound min(1/(tau_u+1), 1/(tau_v+1)) and the 1/d_max bound."""

    edge: tuple[int, int]
    mode: str
    probability: object  # Fraction (exact) or float (monte_carlo)
    tau_bound: Fraction
    dmax_bound: Fraction
    trials: int | None = None
    stderr: float | None = None


def edge_inclusion_prob(
    g: Graph,
    e: tuple[int, int],
    mode: str = "exact",
    trials: int = 10000,
    seed: int = 0,
) -> EdgeInclusionReport:
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge {e} not in graph")
    key = (u, v) if u < v else (v, u)
    tau_u = escape_set(g, key, key[0]).tau
    tau_v = escape_set(g, key, key[1]).tau
    tau_bound = min(Fraction(1, tau_u + 1), Fraction(1, tau_v + 1))
    dmax_bound = Fraction(1, degree_stats(g).d_max)
    if mode == "exact":
        outcomes = enumerate_dfs(g)
        prob = sum(
            (o.probability for o in outcomes if key in o.record.tree_edges),
            start=Fraction(0),
        )
        assert prob >= tau_bound >= dmax_bound
        return EdgeInclusionReport(
            edge=key,
            mode="exact",
            probability=prob,
            tau_bound=tau_bound,
            dmax_bound=dmax_bound,
        )
    if mode == "monte_carlo":
        hits = 0
        for i in range(trials):
            rec = sample_dfs(g, derive_rng(seed, i))
            if key in rec.tree_edges:
                hits += 1
        p = hits / trials
        return EdgeInclusionReport(
            edge=key,
            mode="monte_carlo",
            probability=p,
            tau_bound=tau_bound,
            dmax_bound=dmax_bound,
            trials=trials,
            stderr=math.sqrt(p * (1.0 - p) / trials),
        )
    raise ValueError(f"mode must be 'exact' or 'monte_carlo', got {mode!r}")


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
    if c * n < 1.0:
        raise ValueError("C*n must be at least 1")
    ratio = c * n / delta
    if not math.isfinite(ratio):
        raise ValueError("C*n/delta must be finite")
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
    """Fraction of trials in which m independent DFS trees cover all of E."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    all_edges = g.edges()

    def one_trial(i: int) -> int:
        rng = derive_rng(seed, i)
        uncovered = set(all_edges)
        for _ in range(m):
            uncovered -= sample_dfs(g, rng).tree_edges
            if not uncovered:
                return 1
        return 0

    return sum(one_trial(i) for i in range(trials)) / trials


def bound_check_report(g: Graph, delta: float, trials: int, seed: int) -> dict:
    """Eq-style bound versus Monte Carlo: JSON-ready dict with the bound
    inputs, m_required, and the empirical full-coverage success rate."""
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
    edge) has been visited (traversed), or until `cap` steps; capped
    trials are reported as censored, never silently dropped. The mean and
    quantiles summarize uncensored trials only.
    """
    if target not in ("node", "edge"):
        raise ValueError("target must be 'node' or 'edge'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if cap is None:
        cap = 50 * g.n * g.n
    elif cap < 1:
        raise ValueError("cap must be >= 1")
    pol = WalkPolicy(g, policy)
    want_edges = g.edge_count

    def one_trial(i: int) -> int | None:
        walk = pol.walk(derive_rng(seed, i))
        cur = next(walk)
        if target == "node":
            seen = bytearray(g.n)
            seen[cur] = 1
            remaining = g.n - 1
            for step, nxt in zip(range(1, cap + 1), walk):
                if not seen[nxt]:
                    seen[nxt] = 1
                    remaining -= 1
                    if remaining == 0:
                        return step
            return None
        seen_edges: set[tuple[int, int]] = set()
        for step, nxt in zip(range(1, cap + 1), walk):
            seen_edges.add((cur, nxt) if cur < nxt else (nxt, cur))
            if len(seen_edges) == want_edges:
                return step
            cur = nxt
        return None

    results = [one_trial(i) for i in range(trials)]
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
    need a connected graph on at least 2 nodes; searches need a connected
    graph, and on one node they cover it with no edge to miss.
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
        if length is not None and length < 1:
            raise ValueError("walk length must be >= 1")
        walk_length = g.n if length is None else length
        walk_pol = WalkPolicy(g, "uniform")
    max_m = m_list[-1]
    edge_count = g.edge_count
    rows = []
    for kind in kinds:

        def one_trial(t: int, kind=kind):
            rng = derive_rng(seed, kind, t)
            node_fracs = []
            edge_fracs = []
            covered_nodes: set[int] = set()
            covered_edges: set[tuple[int, int]] = set()
            targets = set(m_list)
            for j in range(1, max_m + 1):
                if kind == "walks":
                    nodes = list(islice(walk_pol.walk(rng), walk_length + 1))
                    covered_nodes.update(nodes)
                    covered_edges.update(
                        (a, b) if a < b else (b, a)
                        for a, b in zip(nodes, nodes[1:])
                    )
                else:
                    rec = sample_dfs(g, rng)
                    covered_nodes.update(rec.visit_order)
                    covered_edges.update(rec.tree_edges)
                if j in targets:
                    node_fracs.append(len(covered_nodes) / g.n)
                    # a graph without edges (one node) has none to miss
                    edge_fracs.append(
                        len(covered_edges) / edge_count if edge_count else 1.0
                    )
            return node_fracs, edge_fracs

        per_trial = [one_trial(t) for t in range(trials)]
        for idx, m in enumerate(m_list):
            rows.append(
                CoverageCurveRow(
                    kind=kind,
                    m=m,
                    node_frac_mean=sum(t[0][idx] for t in per_trial) / trials,
                    edge_frac_mean=sum(t[1][idx] for t in per_trial) / trials,
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
