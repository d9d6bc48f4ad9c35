"""Distributional invariance of randomized DFS under graph isomorphism.

Relabeling a graph by a permutation and pushing DFS visit orders forward
through the same permutation must give identical distributions. On small
graphs this is checked exactly over the full enumerated distribution
(rational arithmetic, expected discrepancy exactly 0); on larger graphs a
two-sample comparison of sampled visit orders is calibrated against a
self-vs-self baseline instead of a hand-picked threshold. The
permutation test behind that comparison counts in exact integers: each
distinct visit order is coded once as a small int and every reshuffle's
statistic is 2*na*nb*TV, so no float tolerance decides a tie.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, relabel
from .samplers import derive_rng, enumerate_dfs, sample_dfs

# label reshuffles of the permutation test behind `invariance_sampled`
PERMUTATION_REPS = 200


@dataclass(frozen=True)
class SequenceDistribution:
    """Exact distribution over DFS visit orders."""

    support: dict

    def __post_init__(self):
        total = sum(self.support.values(), start=Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def probability(self, seq) -> Fraction:
        return self.support.get(tuple(seq), Fraction(0))


def dfs_distribution(g: Graph) -> SequenceDistribution:
    """Exact visit-order distribution from full DFS enumeration."""
    return SequenceDistribution(
        support={o.record.visit_order: o.probability for o in enumerate_dfs(g)}
    )


def pushforward(d: SequenceDistribution, perm) -> SequenceDistribution:
    """Map every support sequence elementwise through a permutation."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("perm is not a permutation of 0..n-1")
    # a bijection maps distinct sequences to distinct sequences
    return SequenceDistribution(
        support={tuple(perm[v] for v in seq): p for seq, p in d.support.items()}
    )


def sup_discrepancy(a: SequenceDistribution, b: SequenceDistribution) -> Fraction:
    keys = set(a.support) | set(b.support)
    return max(
        (abs(a.probability(k) - b.probability(k)) for k in keys),
        default=Fraction(0),
    )


def invariance_exact(g: Graph, perm) -> Fraction:
    """Sup-norm gap between the pushed-forward DFS law of g and the DFS law
    of the relabeled graph. Exactly 0 whenever perm is applied as a true
    relabeling, which is the probabilistic-invariance statement."""
    pushed = pushforward(dfs_distribution(g), perm)
    direct = dfs_distribution(relabel(g, perm))
    return sup_discrepancy(pushed, direct)


# ---------------------------------------------------------------------------
# sampled checks


def two_sample_tv(samples_a, samples_b) -> float:
    """Total-variation distance between two empirical distributions."""
    ca, cb = Counter(samples_a), Counter(samples_b)
    na, nb = len(samples_a), len(samples_b)
    keys = set(ca) | set(cb)
    return 0.5 * sum(abs(ca[k] / na - cb[k] / nb) for k in keys)


def _scaled_tv(first, weights, na: int, n: int) -> int:
    """2*na*nb*TV of a split of n = na + nb pooled draws whose first na
    draws have the counts `first`; `weights[k]` is na times the pooled
    count of code k. A code absent from the first part adds its weight,
    so only the codes present there are summed."""
    return na * n + sum(
        abs(ca * n - weights[k]) - weights[k] for k, ca in first.items()
    )


def tv_permutation_pvalue(samples_a, samples_b, reps, rng) -> float:
    """Permutation test of 'same distribution' using TV as the statistic.

    Pools the samples, reshuffles the labels `reps` times, and reports
    the fraction of reshuffles whose TV is at least the observed one
    (with the +1 correction). Each distinct sample is coded once as a
    small int and TV is compared as the exact integer 2*na*nb*TV.
    """
    na, nb = len(samples_a), len(samples_b)
    if na == 0 or nb == 0:
        raise ValueError("both samples must be nonempty")
    n = na + nb
    codes: dict = {}
    pool = [codes.setdefault(s, len(codes)) for s in samples_a]
    pool += [codes.setdefault(s, len(codes)) for s in samples_b]
    weights = [0] * len(codes)
    for k in pool:
        weights[k] += na
    observed = _scaled_tv(Counter(pool[:na]), weights, na, n)
    at_least = 0
    for _ in range(reps):
        rng.shuffle(pool)
        if _scaled_tv(Counter(pool[:na]), weights, na, n) >= observed:
            at_least += 1
    return (1 + at_least) / (reps + 1)


def sample_visit_orders(g: Graph, trials: int, seed: int, tag: str = ""):
    """Draw `trials` DFS visit orders with per-trial derived RNGs."""
    return [
        sample_dfs(g, derive_rng(seed, tag, i)).visit_order
        for i in range(trials)
    ]


@dataclass(frozen=True)
class InvarianceSampleReport:
    """Two-sample comparison of DFS laws across a claimed isomorphism.

    `tv` compares pushed-forward samples from g against samples from the
    relabeled graph; `baseline_tv` compares two independent batches from
    g itself and shows the sampling noise floor; `pvalue` comes from a
    label-permutation test, and `passed` means the isomorphic pair is
    statistically indistinguishable at the 5% level.
    """

    tv: float
    baseline_tv: float
    pvalue: float
    trials: int
    passed: bool


def invariance_sampled(
    g: Graph, perm, trials: int, seed: int
) -> InvarianceSampleReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    perm = list(perm)
    h = relabel(g, perm)
    pushed = [
        tuple(perm[v] for v in order)
        for order in sample_visit_orders(g, trials, seed, "g")
    ]
    direct = sample_visit_orders(h, trials, seed, "h")
    base_a = sample_visit_orders(g, trials, seed, "base_a")
    base_b = sample_visit_orders(g, trials, seed, "base_b")
    pvalue = tv_permutation_pvalue(
        pushed, direct, PERMUTATION_REPS, derive_rng(seed, "permtest")
    )
    return InvarianceSampleReport(
        tv=two_sample_tv(pushed, direct),
        baseline_tv=two_sample_tv(base_a, base_b),
        pvalue=pvalue,
        trials=trials,
        passed=pvalue >= 0.05,
    )
