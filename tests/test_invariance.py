import random
from collections import Counter
from fractions import Fraction

import pytest

from walksearch import invariance, samplers
from walksearch.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    hex_chain,
    path_graph,
    random_permutation,
    relabel,
    star_graph,
)
from walksearch.invariance import (
    PERMUTATION_REPS,
    SequenceDistribution,
    _scaled_tv,
    dfs_distribution,
    invariance_exact,
    invariance_sampled,
    pushforward,
    sample_visit_orders,
    sup_discrepancy,
    tv_permutation_pvalue,
    two_sample_tv,
)
from walksearch.samplers import derive_rng, enumerate_dfs, sample_dfs

from .corpus import all_labeled_connected_graphs_upto
from .test_samplers import DFS_ORACLE_GRAPHS, DrawCounter, stdlib_dfs


def reference_law(g: Graph) -> dict:
    """The DFS law of g in ``Fraction``s, ``{visit order: probability}``,
    straight from the `DfsOutcome` records: the independent reference the
    integer `SequenceDistribution` is held to."""
    return {o.record.visit_order: o.probability for o in enumerate_dfs(g)}


def reference_pushforward(law: dict, perm) -> dict:
    return {tuple(perm[v] for v in seq): p for seq, p in law.items()}


def reference_gap(a: dict, b: dict) -> Fraction:
    """The largest |a[s] - b[s]| over the union of the keys of two
    ``Fraction`` laws, a missing key having probability 0."""
    zero = Fraction(0)
    return max(
        (abs(a.get(k, zero) - b.get(k, zero)) for k in a.keys() | b.keys()),
        default=zero,
    )


def assert_law_is(d: SequenceDistribution, reference: dict) -> None:
    assert d.dens.keys() == reference.keys()
    for seq, p in reference.items():
        assert d.probability(seq) == p


def sylvester(k: int) -> list[int]:
    """The first k terms of Sylvester's sequence 2, 3, 7, 43, 1807, ...:
    the reciprocals of the first k - 1 terms and of the k-th less one sum
    to exactly 1."""
    terms = [2]
    while len(terms) < k:
        terms.append(terms[-1] * (terms[-1] - 1) + 1)
    return terms


class TestDistributions:
    def test_path3(self):
        d = dfs_distribution(path_graph(3))
        assert d.dens == {(0, 1, 2): 3, (2, 1, 0): 3, (1, 0, 2): 6, (1, 2, 0): 6}
        assert d.probability([1, 0, 2]) == Fraction(1, 6)
        assert d.probability((0, 2, 1)) == 0

    def test_single_edge_root_choice_only(self):
        d = dfs_distribution(path_graph(2))
        assert d.dens == {(0, 1): 2, (1, 0): 2}

    def test_triangle_uniform_over_six(self):
        d = dfs_distribution(cycle_graph(3))
        assert len(d.dens) == 6
        assert set(d.dens.values()) == {6}

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1/3, expected 1"):
            SequenceDistribution({(0, 1): 3})

    def test_den_must_be_a_positive_int(self):
        # -1 + 1/2 + 1/2 + 1 is exactly 1, so only the den check refuses
        # it; the sum check would fail on 0 and 2.0 with another error
        for den in (0, -1, 2.0):
            with pytest.raises(ValueError, match="expected an int >= 1"):
                SequenceDistribution({"a": den, "b": 2, "c": 2, "d": 1})


class TestPushforward:
    def test_identity(self):
        d = dfs_distribution(path_graph(3))
        assert pushforward(d, [0, 1, 2]) == d

    def test_inverse_composition(self):
        d = dfs_distribution(cycle_graph(4))
        perm = [2, 0, 3, 1]
        inverse = [1, 3, 0, 2]
        assert pushforward(pushforward(d, perm), inverse) == d

    def test_elementwise_mapping(self):
        d = dfs_distribution(path_graph(3))
        pushed = pushforward(d, [2, 1, 0])
        assert pushed.dens[(2, 1, 0)] == 3
        assert pushed.probability((2, 1, 0)) == Fraction(1, 3)

    def test_non_bijective_rejected(self):
        d = dfs_distribution(path_graph(2))
        with pytest.raises(ValueError, match="not a permutation"):
            pushforward(d, [0, 0])

    @pytest.mark.parametrize("perm", [[0, 1], [0, 1, 2, 3]], ids=["short", "long"])
    def test_wrong_length_rejected(self, perm):
        d = dfs_distribution(path_graph(3))
        with pytest.raises(ValueError, match="perm has length"):
            pushforward(d, perm)


class TestExactInvariance:
    def test_path3_reversal(self):
        assert invariance_exact(path_graph(3), [2, 1, 0]) == 0

    def test_cycle4_rotation(self):
        assert invariance_exact(cycle_graph(4), [1, 2, 3, 0]) == 0

    def test_star5_leaf_swap(self):
        assert invariance_exact(star_graph(5), [0, 2, 1, 4, 3]) == 0

    def test_random_perms_on_small_classes(self):
        rng = random.Random(0)
        for g in all_labeled_connected_graphs_upto(4):
            for _ in range(5):
                perm = random_permutation(g.n, rng)
                assert invariance_exact(g, perm) == 0

    def test_one_shot_perm(self):
        # the perm is read twice, by `relabel` and by `pushforward`
        g = hex_chain(1)
        perm = random_permutation(g.n, random.Random(9))
        assert invariance_exact(g, iter(perm)) == 0

    def test_discrepancy_is_exact_rational(self):
        d = invariance_exact(path_graph(3), [1, 0, 2])
        assert isinstance(d, Fraction) and d == 0

    def test_structurally_different_laws_have_gap(self):
        # not an isomorphism check: directly compare two non-matching laws
        gap = sup_discrepancy(
            dfs_distribution(path_graph(3)), dfs_distribution(star_graph(3))
        )
        assert gap > 0

    @pytest.mark.parametrize("perm", [[0, 1], [0, 1, 2, 3]], ids=["short", "long"])
    def test_wrong_length_rejected_before_enumerating(self, perm, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr("walksearch.invariance._enumerate", no_enumeration)
        with pytest.raises(ValueError, match="not a permutation"):
            invariance_exact(path_graph(3), perm)

    def test_matches_fraction_reference(self):
        # the test-side Fraction laws pushed forward and compared key by key
        rng = random.Random(18)
        for g in all_labeled_connected_graphs_upto(5):
            perm = random_permutation(g.n, rng)
            reference = reference_gap(
                reference_pushforward(reference_law(g), perm),
                reference_law(relabel(g, perm)),
            )
            assert invariance_exact(g, perm) == reference == 0


class TestIntegerLaw:
    def test_law_is_enumeration_inverted(self):
        for g in all_labeled_connected_graphs_upto(5) + (hex_chain(2),):
            reference = reference_law(g)
            d = dfs_distribution(g)
            assert d.dens == {seq: 1 / p for seq, p in reference.items()}
            assert_law_is(d, reference)

    def test_sum_check_catches_a_dropped_outcome(self):
        for g in (path_graph(2), cycle_graph(4), star_graph(5), hex_chain(1)):
            law = dfs_distribution(g).dens
            for seq in law:
                short = dict(law)
                del short[seq]
                with pytest.raises(ValueError, match="sum"):
                    SequenceDistribution(short)

    def test_sum_check_catches_a_denominator_off_by_one(self):
        for g in (path_graph(2), cycle_graph(4), star_graph(5), hex_chain(1)):
            law = dfs_distribution(g).dens
            for seq, den in law.items():
                for off in (den - 1, den + 1):
                    if off:
                        with pytest.raises(ValueError, match="sum"):
                            SequenceDistribution({**law, seq: off})

    @pytest.mark.parametrize("tampered_call", [0, 1], ids=["g", "relabeled"])
    @pytest.mark.parametrize("tamper", ["drop", "off_by_one"])
    def test_every_law_is_sum_checked(self, tampered_call, tamper, monkeypatch):
        # invariance_exact enumerates g, then the relabeled graph; a law
        # missing an outcome, or with one denominator off by one, must trip
        # the sum check whichever of the two it is
        calls = []

        def tampered(g, budget):
            outcomes = [
                (tuple(order), parent, den)
                for order, parent, den in samplers._enumerate(g, budget)
            ]
            if len(calls) == tampered_call:
                if tamper == "drop":
                    outcomes.pop(len(outcomes) // 2)
                else:
                    order, parent, den = outcomes.pop()
                    outcomes.append((order, parent, den + 1))
            calls.append(g)
            yield from outcomes

        monkeypatch.setattr("walksearch.invariance._enumerate", tampered)
        g = hex_chain(1)
        with pytest.raises(ValueError, match="sum"):
            invariance_exact(g, random_permutation(g.n, random.Random(4)))
        assert len(calls) == tampered_call + 1

    def test_sum_check_is_exact(self):
        SequenceDistribution({(0,): 1})
        SequenceDistribution({"a": 2, "b": 3, "c": 6})
        with pytest.raises(ValueError, match="sum to 0, expected 1"):
            SequenceDistribution({})
        # a float sum reads 1.0 here
        assert 0.5 + 0.5 + 1 / 10**40 == 1.0
        with pytest.raises(ValueError, match="sum"):
            SequenceDistribution({"a": 2, "b": 2, "c": 10**40})

    def test_gap_matches_sup_discrepancy(self):
        # non-isomorphic pairs of one size, and laws pushed forward by a
        # permutation that need not be an automorphism, against the
        # test-side Fraction reference; some of these gaps are nonzero
        rng = random.Random(1)
        nonzero = 0
        for n in (3, 4, 5):
            graphs = [
                g for g in all_labeled_connected_graphs_upto(n) if g.n == n
            ]
            for _ in range(40):
                g, h = rng.choice(graphs), rng.choice(graphs)
                perm = random_permutation(n, rng)
                d_g, d_h = dfs_distribution(g), dfs_distribution(h)
                ref_g, ref_h = reference_law(g), reference_law(h)
                pushed = pushforward(d_g, perm)
                ref_pushed = reference_pushforward(ref_g, perm)
                assert_law_is(pushed, ref_pushed)
                gaps = (
                    (sup_discrepancy(d_g, d_h), reference_gap(ref_g, ref_h)),
                    (sup_discrepancy(pushed, d_g), reference_gap(ref_pushed, ref_g)),
                    (sup_discrepancy(d_g, pushed), reference_gap(ref_g, ref_pushed)),
                )
                for gap, reference in gaps:
                    assert gap == reference
                    nonzero += gap != 0
        assert nonzero > 0

    def test_gap_compares_exactly(self):
        def law(**dens):
            return SequenceDistribution(dens)

        # every branch, with a known answer: shared keys equal or not,
        # keys in one law only
        assert sup_discrepancy(law(a=2, b=2), law(a=2, b=2)) == 0
        assert sup_discrepancy(law(a=2, b=3, c=6), law(a=3, b=2, c=6)) == Fraction(1, 6)
        assert sup_discrepancy(law(a=2, b=2), law(b=2, c=4, d=4)) == Fraction(1, 2)
        assert sup_discrepancy(law(b=2, c=4, d=4), law(a=2, b=2)) == Fraction(1, 2)
        # gaps a float cannot tell apart: a Sylvester truncation ending in
        # 1/big, and the same law with 1/big split as 1/(big + 1) +
        # 1/(big (big + 1)); 1/(big + 1) < 1/big, but not as floats
        *head, last = sylvester(8)
        big = last - 1
        assert 1 / big == 1 / (big + 1)
        prefix = {f"p{i}": den for i, den in enumerate(head)}
        whole = law(**prefix, a=big)
        split = law(**prefix, b=big + 1, c=big * (big + 1))
        assert sup_discrepancy(whole, split) == Fraction(1, big)
        assert sup_discrepancy(split, whole) == Fraction(1, big)
        # the same split with "b" renamed "a": a shared gap 1/(big (big + 1))
        shared = law(**prefix, a=big + 1, c=big * (big + 1))
        assert sup_discrepancy(whole, shared) == Fraction(1, big * (big + 1))
        # the loop over the keys of `a` meets 1/(2 big + 1), then the larger
        # 1/(2 big), equal as floats; the keys of `b` only, each 1/(3 big),
        # are smaller than both and cannot raise the result afterwards
        assert 1 / (2 * big) == 1 / (2 * big + 1)
        rising = law(**prefix, x=2 * big + 1, y=2 * big, z=2 * big * (2 * big + 1))
        thirds = law(**prefix, u=3 * big, v=3 * big, w=3 * big)
        assert sup_discrepancy(rising, thirds) == Fraction(1, 2 * big)


def float_tv_pvalue(samples_a, samples_b, reps, rng):
    """The float permutation loop tv_permutation_pvalue replaced: TV of
    every reshuffle recomputed from the tuples, with a 1e-12 tolerance."""
    observed = two_sample_tv(samples_a, samples_b)
    pool = list(samples_a) + list(samples_b)
    na = len(samples_a)
    at_least = 0
    for _ in range(reps):
        rng.shuffle(pool)
        if two_sample_tv(pool[:na], pool[na:]) >= observed - 1e-12:
            at_least += 1
    return (1 + at_least) / (reps + 1)


def shuffle_tv_pvalue(samples_a, samples_b, reps, rng):
    """The integer permutation loop as it was before its reshuffles were
    inlined: one `rng.shuffle` call per reshuffle. `tv_permutation_pvalue`
    must give the same p-value and leave `rng` in the same state."""
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


class TestShuffleOracle:
    def test_matches_stdlib_shuffle(self):
        draw = random.Random(2024)
        sizes = [1, 2, 3, 9, 40, 257]
        cases = 0
        for distinct in range(2, 8):
            for reps in (0, 1, PERMUTATION_REPS):
                for _ in range(6):
                    na, nb = draw.choice(sizes), draw.choice(sizes)
                    if cases % 3 == 0:
                        na = 1
                    elif cases % 3 == 1:
                        nb = 1
                    a = [draw.randrange(distinct) for _ in range(na)]
                    b = [draw.randrange(distinct) for _ in range(nb)]
                    seed = draw.randrange(2**32)
                    rng, expected_rng = random.Random(seed), random.Random(seed)
                    assert tv_permutation_pvalue(a, b, reps, rng) == (
                        shuffle_tv_pvalue(a, b, reps, expected_rng)
                    ), (a, b, reps, seed)
                    assert rng.getstate() == expected_rng.getstate()
                    cases += 1
        assert cases == 6 * 3 * 6

    def test_draws_without_shuffle(self):
        class NoShuffle(random.Random):
            def shuffle(self, x):
                raise AssertionError("shuffle called")

        a = sample_visit_orders(cycle_graph(4), 30, seed=2, tag="a")
        b = sample_visit_orders(cycle_graph(4), 20, seed=2, tag="b")
        assert tv_permutation_pvalue(a, b, 50, NoShuffle(1)) == (
            shuffle_tv_pvalue(a, b, 50, random.Random(1))
        )

    def test_negative_reps_rejected_before_any_draw(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match="reps must be >= 0"):
            tv_permutation_pvalue([1], [2], -1, rng)
        assert rng.getstate() == state


class TestPermutationPvalue:
    def same_as_float_loop(self, a, b, reps, seed):
        exact = tv_permutation_pvalue(a, b, reps, random.Random(seed))
        assert exact == float_tv_pvalue(a, b, reps, random.Random(seed))
        return exact

    @pytest.mark.parametrize("na, nb", [(300, 300), (120, 410), (411, 37)])
    def test_matches_float_loop(self, na, nb):
        g = hex_chain(2)
        for seed in range(3):
            a = sample_visit_orders(g, na, seed, "a")
            b = sample_visit_orders(g, nb, seed, "b")
            self.same_as_float_loop(a, b, 150, seed)

    def test_one_distinct_value_gives_one(self):
        a, b = [(0, 1)] * 40, [(0, 1)] * 25
        assert self.same_as_float_loop(a, b, 60, 1) == 1.0

    def test_path3_vs_star3_control(self):
        a = sample_visit_orders(path_graph(3), 400, seed=7, tag="a")
        b = sample_visit_orders(star_graph(3), 300, seed=7, tag="b")
        assert self.same_as_float_loop(a, b, 200, 0) < 0.05

    def test_disjoint_supports(self):
        # TV = 1 is the largest value, so only reshuffles that reach it count
        a = sample_visit_orders(path_graph(3), 400, seed=7, tag="a")
        b = [tuple(v + 3 for v in order) for order in
             sample_visit_orders(star_graph(3), 300, seed=7, tag="b")]
        assert two_sample_tv(a, b) == 1.0
        assert self.same_as_float_loop(a, b, 200, 0) == 1 / 201
        tiny_a, tiny_b = [(0,), (1,)], [(2,)]
        assert self.same_as_float_loop(tiny_a, tiny_b, 50, 3) == 1.0

    def test_many_ties(self):
        rng = random.Random(9)
        for na, nb in [(50, 50), (33, 71)]:
            a = [rng.randrange(3) for _ in range(na)]
            b = [rng.randrange(4) for _ in range(nb)]
            for seed in range(5):
                self.same_as_float_loop(a, b, 300, seed)

    def test_zero_reps(self):
        a = sample_visit_orders(cycle_graph(4), 30, seed=2, tag="a")
        b = sample_visit_orders(cycle_graph(4), 20, seed=2, tag="b")
        assert self.same_as_float_loop(a, b, 0, 0) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            tv_permutation_pvalue([], [(0,)], 10, random.Random(0))

    @pytest.mark.parametrize(
        "a, b", [([], [(0,)]), ([(0,)], []), ([], [])], ids=["a", "b", "both"]
    )
    def test_tv_of_an_empty_sample_rejected(self, a, b):
        with pytest.raises(ValueError, match="^both samples must be nonempty$"):
            two_sample_tv(a, b)


class TestSampleVisitOrders:
    def test_matches_per_record_sampler(self):
        # the orders of one tag are drawn in turn from one generator
        for g in (hex_chain(2), cycle_graph(5), star_graph(4)):
            for tag in ("", "g", "base_a"):
                rng = derive_rng(3, tag)
                expected = [sample_dfs(g, rng).visit_order for _ in range(25)]
                assert sample_visit_orders(g, 25, 3, tag) == expected

    def test_matches_stdlib_dfs(self, monkeypatch):
        # draw for draw: the orders and the generator's end state are the
        # reference's
        rngs = []
        monkeypatch.setattr(invariance, "derive_rng", lambda *key: rngs.pop())
        for g in DFS_ORACLE_GRAPHS:
            for seed in range(5):
                expected_rng, rng = random.Random(seed), random.Random(seed)
                expected = [stdlib_dfs(g, expected_rng).visit_order for _ in range(2)]
                rngs.append(rng)
                assert sample_visit_orders(g, 2, seed) == expected, (g.adjacency, seed)
                assert rng.getstate() == expected_rng.getstate()

    def test_draws_without_stdlib_wrappers(self, monkeypatch):
        rngs = []
        monkeypatch.setattr(invariance, "derive_rng", lambda *key: rngs.pop())
        for g in (hex_chain(3), complete_graph(12), star_graph(30)):
            rng = DrawCounter(4)
            rngs.append(rng)
            sample_visit_orders(g, 3, 0)
            # one root per search
            assert rng.draws["randrange"] == 3
            assert rng.draws["getrandbits"] > 0
            for name in ("shuffle", "choices", "random"):
                assert rng.draws[name] == 0

    @pytest.mark.parametrize(
        "g, message",
        [
            (Graph.from_edges(0, []), "empty graph"),
            (Graph.from_edges(4, [(0, 1), (2, 3)]), "searches require a connected graph"),
            (Graph.from_edges(3, [(0, 1)]), "searches require a connected graph"),
        ],
        ids=["empty", "two_edges", "edge_plus_node"],
    )
    def test_checks_the_graph_only_when_searching(self, g, message):
        # no trial draws no search, so no graph is refused
        assert sample_visit_orders(g, 0, 5) == []
        with pytest.raises(ValueError, match=message):
            sample_visit_orders(g, 1, 5)


class TestSampledInvariance:
    def test_isomorphic_pair_indistinguishable(self):
        # the underlying null is verified exactly elsewhere; a fixed seed
        # keeps this 95%-level check deterministic
        g = hex_chain(1)
        perm = random_permutation(g.n, random.Random(5))
        rep = invariance_sampled(g, perm, trials=1500, seed=22)
        assert rep.passed
        assert rep.pvalue >= 0.05
        assert rep.tv <= rep.baseline_tv * 2.5 + 0.05

    def test_identity_perm_matches_baseline_scale(self):
        g = cycle_graph(5)
        rep = invariance_sampled(g, list(range(g.n)), trials=1200, seed=3)
        assert rep.passed

    def test_negative_control_separates(self):
        # path(3) and star(3) as *labeled* graphs: comparing their DFS laws
        # directly (no isomorphism applied) must be detected
        a = sample_visit_orders(path_graph(3), 1500, seed=7, tag="a")
        b = sample_visit_orders(star_graph(3), 1500, seed=7, tag="b")
        baseline_a = sample_visit_orders(path_graph(3), 1500, seed=7, tag="c")
        tv_cross = two_sample_tv(a, b)
        tv_base = two_sample_tv(a, baseline_a)
        assert tv_cross > tv_base + 0.3
        pvalue = tv_permutation_pvalue(a, b, 200, random.Random(0))
        assert pvalue < 0.05

    def test_deterministic_given_seed(self):
        g = cycle_graph(5)
        perm = [1, 2, 3, 4, 0]
        r1 = invariance_sampled(g, perm, trials=300, seed=11)
        r2 = invariance_sampled(g, perm, trials=300, seed=11)
        assert r1 == r2
