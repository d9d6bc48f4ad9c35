"""Distributional invariance of randomized DFS under graph isomorphism.

Relabeling a graph by a permutation and pushing DFS visit orders forward
through the same permutation must give identical distributions. On small
graphs this is checked exactly over the full enumerated distribution
(expected discrepancy exactly 0). Each law is one `SequenceDistribution`
held in integers as ``{visit order: den}``, the probability being
exactly ``1 / den``: its sum to one is checked when it is built, gaps
are compared by cross-multiplication, and a ``Fraction`` is made only by
`SequenceDistribution.probability` and for the returned gap. On larger
graphs a two-sample comparison of sampled visit orders is calibrated
against a self-vs-self baseline instead of a hand-picked threshold. The
permutation test behind that comparison counts in exact integers: each
distinct visit order is coded once as a small int and every reshuffle's
statistic is 2*na*nb*TV, so no float tolerance decides a tie. Each
reshuffle is ``random.shuffle``'s Fisher-Yates loop with its draws made
inline on ``getrandbits`` (the rule in the `samplers` docstring), so a
seeded generator gives the same p-value and ends in the same state as
calling ``shuffle`` would.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, relabel
from .samplers import (
    DEFAULT_ENUM_BUDGET,
    _enumerate,
    _reciprocal_sum,
    _search,
    derive_rng,
)

# label reshuffles of the permutation test behind `invariance_sampled`
PERMUTATION_REPS = 200


@dataclass(frozen=True)
class SequenceDistribution:
    """Exact distribution over DFS visit orders, held in integers as
    ``dens: {visit order: den}``, the probability of each being exactly
    ``1 / den``. A law is refused unless every den is an int >= 1 and
    the probabilities sum to exactly 1: with L the lcm of the dens, the
    sum of L // den must be L."""

    dens: dict

    def __post_init__(self):
        for seq, den in self.dens.items():
            if not isinstance(den, int) or den < 1:
                raise ValueError(f"den of {seq} is {den!r}, expected an int >= 1")
        total, lcm = _reciprocal_sum(self.dens.values())
        if total != lcm:
            raise ValueError(
                f"probabilities sum to {Fraction(total, lcm)}, expected 1"
            )

    def probability(self, seq) -> Fraction:
        den = self.dens.get(tuple(seq))
        return Fraction(0) if den is None else Fraction(1, den)


def dfs_distribution(g: Graph) -> SequenceDistribution:
    """Exact visit-order law of g from full DFS enumeration."""
    return SequenceDistribution(
        {tuple(order): den for order, _, den in _enumerate(g, DEFAULT_ENUM_BUDGET)}
    )


def pushforward(d: SequenceDistribution, perm) -> SequenceDistribution:
    """Map every support sequence elementwise through a permutation."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise ValueError("perm is not a permutation of 0..n-1")
    for seq in d.dens:
        if len(seq) != len(perm):
            raise ValueError(
                f"perm has length {len(perm)}, a sequence has length {len(seq)}"
            )
    # a bijection maps distinct sequences to distinct sequences
    new_id = perm.__getitem__
    return SequenceDistribution(
        {tuple(map(new_id, seq)): den for seq, den in d.dens.items()}
    )


def sup_discrepancy(a: SequenceDistribution, b: SequenceDistribution) -> Fraction:
    """The largest |1/a[s] - 1/b[s]| over all sequences s, a sequence
    outside a law having probability 0. Each gap is a pair (num, den),
    |b - a| / (ab) on a shared sequence, and pairs are compared by
    cross-multiplication; the result is the one ``Fraction`` built."""
    a, b = a.dens, b.dens
    num, den = 0, 1
    for seq, x in a.items():
        y = b.get(seq)
        if y is None:
            gap_num, gap_den = 1, x
        elif x == y:
            continue
        else:
            gap_num, gap_den = abs(y - x), x * y
        if gap_num * den > num * gap_den:
            num, den = gap_num, gap_den
    for seq, y in b.items():
        if seq not in a and den > num * y:
            num, den = 1, y
    return Fraction(num, den)


def invariance_exact(g: Graph, perm) -> Fraction:
    """Sup-norm gap between the pushed-forward DFS law of g and the DFS law
    of the relabeled graph. Exactly 0 whenever perm is applied as a true
    relabeling, which is the probabilistic-invariance statement.

    `relabel` checks `perm` before anything is enumerated; `perm` is
    listed first because `relabel` and `pushforward` both read it."""
    perm = list(perm)
    h = relabel(g, perm)
    return sup_discrepancy(
        pushforward(dfs_distribution(g), perm), dfs_distribution(h)
    )


# ---------------------------------------------------------------------------
# sampled checks


def two_sample_tv(samples_a, samples_b) -> float:
    """Total-variation distance between two empirical distributions: the
    integer sum of |ca[k]*nb - cb[k]*na| over all keys k, divided once by
    2*na*nb, so the result is the exact TV correctly rounded (1.0 on
    disjoint supports) on every interpreter."""
    na, nb = len(samples_a), len(samples_b)
    if na == 0 or nb == 0:
        raise ValueError("both samples must be nonempty")
    ca, cb = Counter(samples_a), Counter(samples_b)
    gap = sum(abs(ca[k] * nb - cb[k] * na) for k in ca.keys() | cb.keys())
    return gap / (2 * na * nb)


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
    small int and TV is compared as the exact integer 2*na*nb*TV. A
    reshuffle swaps each position i from the last down to 1 with a
    uniform j <= i, making the draws of ``rng.shuffle``.
    """
    na, nb = len(samples_a), len(samples_b)
    if na == 0 or nb == 0:
        raise ValueError("both samples must be nonempty")
    if reps < 0:
        raise ValueError("reps must be >= 0")
    n = na + nb
    codes: dict = {}
    pool = [codes.setdefault(s, len(codes)) for s in samples_a]
    pool += [codes.setdefault(s, len(codes)) for s in samples_b]
    weights = [0] * len(codes)
    for k in pool:
        weights[k] += na
    observed = _scaled_tv(Counter(pool[:na]), weights, na, n)
    at_least = 0
    getrandbits = rng.getrandbits
    # j uniform in 0..i is randrange(i + 1): redraw while j > i
    steps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]
    for _ in range(reps):
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            pool[i], pool[j] = pool[j], pool[i]
        if _scaled_tv(Counter(pool[:na]), weights, na, n) >= observed:
            at_least += 1
    return (1 + at_least) / (reps + 1)


def sample_visit_orders(g: Graph, trials: int, seed: int, tag: str = ""):
    """Draw `trials` DFS visit orders in turn from one ``derive_rng(seed,
    tag)``; a search rejects an empty or disconnected g."""
    rng = derive_rng(seed, tag)
    return [tuple(_search(g, rng)[0]) for _ in range(trials)]


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
