"""The multiplier tests, their oracles, bounds and character views."""

import collections
import itertools
import math
import statistics
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtest import algebra as alg, combin, multtests as mt, rmcode
from rmtest.algebra import Polynomial
from rmtest.errors import ParamsMismatchError
from rmtest.estimator import _trial_streams, trial_rng
from rmtest.rmcode import CodeParams


def product_instance():
    return Polynomial.from_terms(2, 2, {(1, 1): 1})


def traced_peak(fn):
    """fn's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def enumerated_acceptance(f: Polynomial, cfg: mt.TestConfig) -> Fraction:
    """Acceptance with every factor enumerated: product_degree_counts over
    the last factor, for every partial product f*P_1*...*P_{k-1}."""
    q, n = f.q, f.n
    polys = alg.all_polynomials(q, n, min(cfg.e, n * (q - 1)))
    tables = [p.evaluate_all().values for p in polys]
    partials = [f.evaluate_all().values]
    for _ in range(cfg.k - 1):
        partials = [g * t % q for g in partials for t in tables]
    hist = rmcode.product_degree_counts(q, n, cfg.e, np.stack(partials))
    return Fraction(int(hist[:, : cfg.target_degree + 2].sum()), len(tables) ** cfg.k)


# (q, n, e, k) with q^n <= 64 and at most 2^14 multiplier tuples to enumerate
RANK_CASES = [
    (q, n, e, k)
    for q in (2, 3, 5)
    for n in range(1, 7)
    for e in range(n * (q - 1) + 1)
    for k in (1, 2, 3)
    if q**n <= 64 and q ** (combin.monomial_count(q, n, e) * k) <= 2**14
]


class TestTestEK:
    def test_members_always_accept(self):
        cfg = mt.TestConfig(CodeParams(3, 2, 2), e=1, k=2)
        f = Polynomial.from_terms(3, 2, {(1, 1): 2, (1, 0): 1})
        assert all(mt.test_e_k(f, cfg, trial_rng(7, i)) for i in range(100))

    def test_exact_acceptance_half(self):
        cfg = mt.TestConfig(CodeParams(2, 2, 0), e=1, k=1)
        assert mt.exact_acceptance_probability(product_instance(), cfg) == Fraction(1, 2)

    def test_exact_matches_sampling(self):
        cfg = mt.TestConfig(CodeParams(2, 2, 0), e=1, k=1)
        f = product_instance()
        hits = sum(mt.test_e_k(f, cfg, trial_rng(11, i)) for i in range(2000))
        assert abs(hits / 2000 - 0.5) < 0.05

    def test_member_probability_one(self):
        cfg = mt.TestConfig(CodeParams(2, 2, 1), e=1, k=1)
        assert mt.exact_acceptance_probability(Polynomial.variable(2, 2, 0), cfg) == 1

    def test_two_multipliers(self):
        # oracle: brute force over every multiplier tuple through the ring
        # product; the k = 3 case at (2, 4) is not vacuous (target 3 < 4)
        cases = [
            (product_instance(), mt.TestConfig(CodeParams(2, 2, 0), e=1, k=2)),
            (
                Polynomial.from_terms(2, 4, {(1, 1, 0, 0): 1}),
                mt.TestConfig(CodeParams(2, 4, 0), e=1, k=3),
            ),
        ]
        for f, cfg in cases:
            polys = list(alg.all_polynomials(f.q, f.n, cfg.e))
            partials = [f]
            for _ in range(cfg.k):
                partials = [alg.mul_reduced(g, p) for g in partials for p in polys]
            count = sum(g.degree <= cfg.target_degree for g in partials)
            assert mt.exact_acceptance_probability(f, cfg) == Fraction(
                count, len(polys) ** cfg.k
            )

    def test_streamed_memory_is_bounded(self):
        # 2^16 multipliers over (2, 5); the materialised tables peak at 66 MB
        f = mt.hard_instance(2, 5, 2)
        cfg = mt.TestConfig(CodeParams(2, 5, 1), e=2, k=1)
        tracemalloc.start()
        try:
            p = mt.exact_acceptance_probability(f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == Fraction(1, 8)
        assert peak < 24 * 2**20

    def test_codeword_blocks_shrink_with_q_n(self):
        # 4096 multipliers over (2, 11); blocks of 8192 codewords peaked at 71 MB
        f = mt.hard_instance(2, 11, 8)
        cfg = mt.TestConfig(CodeParams(2, 11, 2), e=1, k=1)
        tracemalloc.start()
        try:
            p = mt.exact_acceptance_probability(f, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == Fraction(1, 256)
        assert peak < 24 * 2**20

    @given(st.sampled_from(RANK_CASES), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_route_equals_enumeration(self, case, seed, data):
        q, n, e, k = case
        d = data.draw(st.integers(0, n * (q - 1)))
        rng = np.random.default_rng(seed)
        f = alg.random_polynomial(q, n, data.draw(st.integers(0, n * (q - 1))), rng)
        cfg = mt.TestConfig(CodeParams(q, n, d), e=e, k=k)
        want = enumerated_acceptance(f, cfg)
        assert mt.exact_acceptance_probability(f, cfg) == want
        with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", 1):
            assert mt.exact_acceptance_probability(f, cfg) == want

    def test_rank_route_edge_cases(self):
        f = mt.hard_instance(3, 2, 0)
        # vacuous: no coefficient lies above d + ek = 4, so the maps are empty
        cfg = mt.TestConfig(CodeParams(3, 2, 2), e=1, k=2)
        maps = rmcode.high_coefficient_maps(3, 2, 1, f.evaluate_all().values[None], 4)
        assert cfg.vacuous and maps.shape == (1, 3, 0)
        assert mt.exact_acceptance_probability(f, cfg) == 1
        # f = 0 accepts for every multiplier tuple
        for k in (1, 2):
            cfg = mt.TestConfig(CodeParams(3, 2, 0), e=1, k=k)
            assert mt.exact_acceptance_probability(Polynomial.zero(3, 2), cfg) == 1
        # e >= n(q-1): the multipliers are the whole ring
        for q, n, e, k in ((2, 2, 2, 1), (2, 2, 3, 2), (3, 1, 2, 2), (5, 1, 6, 1)):
            f = alg.random_polynomial(q, n, n * (q - 1), np.random.default_rng(q + e))
            cfg = mt.TestConfig(CodeParams(q, n, 0), e=e, k=k)
            assert mt.exact_acceptance_probability(f, cfg) == enumerated_acceptance(f, cfg)

    def test_rank_route_settles_n12(self):
        # 2^79 multipliers; fP keeps degree <= 6 iff the degree-2 part of P
        # on the 7-dimensional subspace vanishes: C(7, 2) = 21 coefficients
        f = mt.hard_instance(2, 12, 7)
        cfg = mt.TestConfig(CodeParams(2, 12, 4), e=2, k=1)
        p, peak = traced_peak(lambda: mt.exact_acceptance_probability(f, cfg))
        assert p == Fraction(1, 2**21)
        assert peak < 24 * 2**20

    def test_vacuous_flag(self):
        assert mt.TestConfig(CodeParams(2, 3, 2), e=1, k=1).vacuous
        assert not mt.TestConfig(CodeParams(2, 3, 1), e=1, k=1).vacuous


class TestHardInstance:
    def test_shape(self):
        f = mt.hard_instance(2, 3, 1)
        one = Polynomial.one(2, 3)
        expect = (one + Polynomial.variable(2, 3, 0)) * (one + Polynomial.variable(2, 3, 1))
        assert f == expect
        assert f.degree == 2
        assert f.evaluate_all().support_size() == 2

    def test_acceptance_floor(self):
        f = mt.hard_instance(2, 3, 1)
        floor = Fraction(1, 2 ** combin.monomial_count(2, 1, 1))
        assert floor == Fraction(1, 4)
        p_stated = mt.exact_acceptance_probability(
            f, mt.TestConfig(CodeParams(2, 3, 2), e=1, k=1)
        )
        assert p_stated == 1 >= floor
        p_far = mt.exact_acceptance_probability(
            f, mt.TestConfig(CodeParams(2, 3, 1), e=1, k=1)
        )
        assert p_far == Fraction(1, 2) >= floor

    def test_multiplier_vanishing_probability_exact(self):
        assert mt.subspace_vanishing_probability(2, 3, 1, 1) == Fraction(1, 4)
        assert mt.subspace_vanishing_probability(3, 2, 1, 1) == Fraction(1, 9)

    @pytest.mark.parametrize("q,n", [(2, 12), (3, 7), (5, 5)])
    def test_vanishing_rank_equals_closed_form(self, q, n):
        for L in range(n + 1):
            for e in range(4):
                want = Fraction(1, q ** combin.monomial_count(q, L, e))
                assert mt.subspace_vanishing_probability(q, n, L, e) == want

    def test_distance_is_subspace_size(self):
        f = mt.hard_instance(2, 3, 1)
        assert rmcode.distance(f, CodeParams(2, 3, 1)).distance == 2


class TestSoundnessBound:
    def test_eta_value(self):
        assert mt.eta_factor(2, 1) == pytest.approx(1 / (2 * math.log(2)))
        assert mt.eta_factor(3, 2) == pytest.approx(1 / (3.0 * math.log(3)))

    def test_small_delta_floor(self):
        cfg = mt.TestConfig(CodeParams(2, 8, 2), e=1, k=1)
        bp = mt.soundness_bound(cfg, delta=2)
        assert bp.n_count == 1  # negative variable count collapses to one
        assert bp.bound == pytest.approx(2 ** (-bp.eta))

    def test_monotone_in_delta(self):
        cfg = mt.TestConfig(CodeParams(2, 8, 2), e=1, k=1)
        values = [mt.soundness_bound(cfg, d).bound for d in range(1, 5000, 61)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_vacuous_flag(self):
        cfg = mt.TestConfig(CodeParams(2, 8, 2), e=1, k=3)
        bp = mt.soundness_bound(cfg, delta=1)
        assert bp.vacuous == (bp.bound > 1)

    def test_premise_detection(self):
        # desk-scale instances sit outside the bound's parameter ranges
        cfg = mt.TestConfig(CodeParams(2, 3, 1), e=1, k=1)
        assert mt.soundness_premise(cfg, 2).vacuous
        # a comfortably large co-degree admits the premise
        big = mt.TestConfig(CodeParams(2, 40, 8), e=8, k=1)
        assert not mt.soundness_premise(big, 2).vacuous

    def test_domination_or_recorded_vacuous_premise(self):
        # for every far function on an exactly enumerable instance, either
        # the premise fails (the expected outcome at this scale,
        # recorded explicitly) or the bound dominates the exact acceptance
        cfg = mt.TestConfig(CodeParams(2, 3, 1), e=1, k=1)
        far, vacuous = 0, 0
        for f in alg.all_polynomials(2, 3):
            dist = rmcode.distance(f, cfg.code).distance
            if dist < 1:
                continue
            far += 1
            premise = mt.soundness_premise(cfg, dist)
            if premise.vacuous:
                vacuous += 1
                continue
            p = mt.exact_acceptance_probability(f, cfg)
            assert float(p) <= mt.soundness_bound(cfg, dist).bound
        assert far > 0
        # co-degree 2 cannot reach the required ranges: all premises vacuous
        assert vacuous == far

    def test_case2_bound_binds(self):
        # exact-degree instances: acceptance never exceeds the staged bound;
        # keep deg(f) low enough that every stage retains co-degree >= 3e
        rng = np.random.default_rng(19)
        cases = 0
        for q, n, e, k in ((2, 4, 1, 1), (3, 2, 1, 1), (2, 6, 1, 2), (2, 10, 2, 1)):
            cap = n * (q - 1) - 3 * e - e * (k - 1)
            for _ in range(30):
                f = alg.random_polynomial(q, n, cap, rng)
                if f.is_zero() or f.degree == 0:
                    continue
                dprime = int(f.degree)
                for d in range(0, dprime):
                    bound, applicable = mt.case2_bound(q, n, dprime, e, k)
                    assert applicable
                    cfg = mt.TestConfig(CodeParams(q, n, d), e=e, k=k)
                    p = mt.exact_acceptance_probability(f, cfg)
                    assert p <= bound
                    cases += 1
        assert cases > 20


class TestCorrH:
    def test_identity_shape_reduces_to_single_multiplier(self):
        f = product_instance()
        cfg = mt.TestConfig(CodeParams(2, 2, 0), e=1, k=1)
        h = mt.UnivariatePoly(2, (0, 1))
        for i in range(300):
            assert mt.corr_h(f, cfg, h, trial_rng(13, i)) == mt.test_e_k(
                f, cfg, trial_rng(13, i)
            )

    def test_square_shape_matches_enumeration(self):
        h = mt.UnivariatePoly(3, (0, 0, 1))
        f = Polynomial.from_terms(3, 2, {(2, 1): 1})
        cfg = mt.TestConfig(CodeParams(3, 2, 1), e=1, k=2)
        p = mt.exact_corr_h_probability(f, cfg, h)
        count = 0
        polys = list(alg.all_polynomials(3, 2, 1))
        for P in polys:
            prod = alg.mul_reduced(f, h.eval_poly(P))
            count += prod.degree <= 1 + 2
        assert p == Fraction(count, len(polys))

    def test_member_always_accepts(self):
        h = mt.UnivariatePoly(3, (1, 2, 1))
        f = Polynomial.variable(3, 2, 0)
        cfg = mt.TestConfig(CodeParams(3, 2, 1), e=1, k=2)
        assert mt.exact_corr_h_probability(f, cfg, h) == 1

    @pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2), (7, 2)])
    def test_ring_horner_equals_pointwise_composition(self, q, n):
        rng = np.random.default_rng(q * 10 + n)
        for _ in range(20):
            coeffs = rng.integers(0, q, size=int(rng.integers(1, q))).tolist() + [1]
            h = mt.UnivariatePoly(q, tuple(coeffs))
            p = alg.random_polynomial(q, n, int(rng.integers(0, n * (q - 1) + 1)), rng)
            table = alg.EvalTable(q, n, h.value_table()[p.evaluate_all().values])
            assert h.eval_poly(p) == alg.interpolate(table)

    def test_degree_q_rejected(self):
        cfg = mt.TestConfig(CodeParams(2, 2, 0), e=1, k=2)
        with pytest.raises(ValueError):
            mt.corr_h(product_instance(), cfg, mt.UnivariatePoly(2, (0, 0, 1)), trial_rng(0, 0))

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError):
            mt.UnivariatePoly(3, (1, 0, 3))

    def test_consistency_with_plain_test(self):
        # shaped acceptance <= plain k-multiplier acceptance^(1/2^k)
        h = mt.UnivariatePoly(3, (0, 0, 1))
        cfg = mt.TestConfig(CodeParams(3, 2, 1), e=1, k=2)
        rng = np.random.default_rng(31)
        for _ in range(20):
            f = alg.random_polynomial(3, 2, 4, rng)
            p_corr = float(mt.exact_corr_h_probability(f, cfg, h))
            p_plain = float(mt.exact_acceptance_probability(f, cfg))
            assert p_corr <= p_plain ** (1 / 4) + 1e-12


class TestCharacterAverages:
    def test_zero_function_gives_one(self):
        g = mt.UnivariatePoly(3, (0, 1))
        assert mt.raw_character_average(Polynomial.zero(3, 2), 1, g).is_exactly_one()

    def test_composed_average_equals_acceptance(self):
        h = mt.UnivariatePoly(3, (0, 0, 1))
        cfg = mt.TestConfig(CodeParams(3, 2, 1), e=1, k=2)
        rng = np.random.default_rng(37)
        for _ in range(10):
            f = alg.random_polynomial(3, 2, 4, rng)
            cs = mt.character_average(f, cfg, h)
            p = mt.exact_corr_h_probability(f, cfg, h)
            assert cs.rational_if_real() == p
            assert abs(abs(cs.value()) - float(p)) < 1e-9

    def test_squaring_base_case(self):
        rng = np.random.default_rng(41)
        for q, n, e in ((2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 0)):
            for _ in range(15):
                f = alg.random_polynomial(q, n, n * (q - 1), rng)
                for a in range(1, q):
                    for b in range(q):
                        gab = mt.UnivariatePoly(q, (b, a))
                        lhs = abs(mt.raw_character_average(f, e, gab).value()) ** 2
                        ga = mt.UnivariatePoly(q, (0, a))
                        rhs = mt.raw_character_average(f, e, ga).value()
                        assert abs(lhs - rhs) < 1e-9

    @pytest.mark.parametrize("cells", [None, 1, 37])
    def test_streamed_counts_equal_direct_sums(self, cells):
        # (3, 2): 27 multipliers of degree <= 1, 729 dual words of order 2
        q, n = 3, 2
        f = alg.random_polynomial(q, n, 4, np.random.default_rng(47))
        ftab = f.evaluate_all().values
        ps = [p.evaluate_all().values for p in alg.all_polynomials(q, n, 1)]
        duals = [w.evaluate_all().values for w in alg.all_polynomials(q, n, 2)]
        g = mt.UnivariatePoly(q, (1, 2, 1))
        h = mt.UnivariatePoly(q, (2, 1))

        def counts(residues):
            return tuple(int(c) for c in np.bincount(np.array(residues) % q, minlength=q))

        want_raw = counts([g.value_table()[p] @ ftab for p in ps])
        want_pair = counts([p1 * p2 * 2 @ ftab for p1 in ps for p2 in ps])
        want_double = counts([h.value_table()[p] * ftab @ w for p in ps for w in duals])
        cfg = mt.TestConfig(CodeParams(q, n, 0), e=1)
        with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", cells or rmcode._PRODUCT_BLOCK_CELLS):
            assert mt.raw_character_average(f, 1, g).counts == want_raw
            assert mt.pair_character_average(f, 1, 2).counts == want_pair
            assert mt.character_average(f, cfg, h).counts == want_double
        # target order n(q-1): the dual is {0}, so every residue is 0
        whole = mt.character_average(f, mt.TestConfig(CodeParams(q, n, 3), e=1), h)
        assert (whole.counts, whole.total) == ((27, 0, 0), 27)

    def test_streamed_memory_is_bounded(self):
        # 2^16 multipliers; the materialised tables peaked at 33 and 64 MB
        f = mt.hard_instance(2, 5, 2)
        g = mt.UnivariatePoly(2, (0, 1))
        raw, peak = traced_peak(lambda: mt.raw_character_average(f, 2, g))
        assert (raw.counts, raw.total) == ((32768, 32768), 65536)
        assert peak < 8 * 2**20
        cfg = mt.TestConfig(CodeParams(2, 5, 1), e=1)
        double, peak = traced_peak(lambda: mt.character_average(f, cfg, g))
        assert (double.counts, double.total) == ((2359296, 1835008), 4194304)
        assert peak < 8 * 2**20

    def test_two_step_inequality(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            f = alg.random_polynomial(3, 2, 4, rng)
            for g2 in (1, 2):
                for g1 in range(3):
                    for g0 in range(3):
                        g = mt.UnivariatePoly(3, (g0, g1, g2))
                        lhs = abs(mt.raw_character_average(f, 1, g).value()) ** 4
                        rhs = mt.pair_character_average(f, 1, (2 * g2) % 3).value()
                        assert abs(rhs.imag) < 1e-9
                        assert lhs <= rhs.real + 1e-9


def assert_report_matches(rep, dists, dprimes=None):
    """Every field of a RobustReport against a plain list of distances;
    dprimes=None expects the default radii 0 .. max + 1."""
    assert rep.distance_counts == collections.Counter(dists)
    assert rep.min_distance == min(dists)
    assert rep.median_distance == float(statistics.median(dists))
    if dprimes is None:
        dprimes = range(max(dists) + 2)
    assert set(rep.fraction_below) == set(rep.fraction_at_most) == set(dprimes)
    for dp in dprimes:
        assert rep.fraction_below[dp] == Fraction(sum(x < dp for x in dists), len(dists))
        assert rep.fraction_at_most[dp] == Fraction(sum(x <= dp for x in dists), len(dists))


class TestRobustExperiment:
    def test_member_all_zero(self):
        cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=1)
        rep = mt.robust_distance_experiment(Polynomial.zero(2, 3), cfg)
        assert rep.distance_counts == {0: 16}
        assert rep.min_distance == 0

    def test_distance_zero_fraction_is_acceptance(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=1)
        rep = mt.robust_distance_experiment(f, cfg)
        assert rep.mode == "exact"
        p = mt.exact_acceptance_probability(f, cfg)
        assert rep.fraction_at_most[0] == p == Fraction(1, 2)

    def test_sampled_mode(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=1)
        rep = mt.robust_distance_experiment(f, cfg, trials=100, seed=5)
        assert rep.mode == "sampled" and rep.samples == 100

    def test_reduction_inequality_exhaustive(self):
        cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=1)
        for f in alg.all_polynomials(2, 3):
            report = mt.robust_distance_experiment(f, cfg, (1, 2))
            for dp, (lhs, rhs, held) in mt.reduction_check(f, cfg, report).items():
                assert held, (alg.poly_to_text(f), dp, lhs, rhs)

    def test_reduction_check_needs_exact_report(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=1)
        sampled = mt.robust_distance_experiment(f, cfg, (1, 2), trials=50, seed=1)
        with pytest.raises(ValueError):
            mt.reduction_check(f, cfg, sampled)

    def test_requires_single_multiplier(self):
        cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=2)
        with pytest.raises(ValueError):
            mt.robust_distance_experiment(Polynomial.zero(2, 3), cfg)

    @pytest.mark.parametrize(
        "q,n,d,e", [(2, 4, 0, 1), (3, 2, 1, 1), (5, 1, 0, 2), (7, 1, 0, 2), (3, 3, 0, 1)]
    )
    def test_counts_equal_per_multiplier_distances(self, q, n, d, e):
        # exact mode compares one multiplier per scalar class; this scans all.
        # q^M samples: even at q = 2, odd at odd q
        codewords = np.stack([g.evaluate_all().values for g in alg.all_polynomials(q, n, d + e)])
        cfg = mt.TestConfig(CodeParams(q, n, d), e=e, k=1)
        rng = np.random.default_rng(q * 10 + n)
        for f in (
            alg.random_polynomial(q, n, n * (q - 1), rng),
            alg.random_polynomial(q, n, d + e + 1, rng),
        ):
            tables = [
                alg.mul_reduced(f, p).evaluate_all().values for p in alg.all_polynomials(q, n, e)
            ]
            dists = [int(np.count_nonzero(codewords != t, axis=1).min()) for t in tables]
            rep = mt.robust_distance_experiment(f, cfg)
            assert rep.distance_counts == collections.Counter(dists)
            total = q ** combin.monomial_count(q, n, e)
            assert rep.samples == sum(rep.distance_counts.values()) == total
            assert_report_matches(rep, dists)
            dprimes = (-1, 0, 1, 2, q**n + 5)
            for cells in (rmcode._PRODUCT_BLOCK_CELLS, 1):
                with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", cells):
                    rep = mt.robust_distance_experiment(f, cfg, dprimes)
                    assert_report_matches(rep, dists, dprimes)

    @pytest.mark.parametrize("trials", [1, 2, 7, 100])
    def test_sampled_report_equals_per_trial_loop(self, trials):
        q, n, d, e = 3, 2, 0, 1
        f = alg.random_polynomial(q, n, n * (q - 1), np.random.default_rng(61))
        cfg = mt.TestConfig(CodeParams(q, n, d), e=e, k=1)
        codewords = np.stack([g.evaluate_all().values for g in alg.all_polynomials(q, n, d + e)])
        tables = [
            alg.mul_reduced(f, alg.random_polynomial(q, n, e, rng)).evaluate_all().values
            for rng in _trial_streams(9, trials)
        ]
        dists = [int(np.count_nonzero(codewords != t, axis=1).min()) for t in tables]
        for cells in (rmcode._PRODUCT_BLOCK_CELLS, 1):
            with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", cells):
                for dprimes in (None, (-1, 0, 1, 2, q**n + 5)):
                    rep = mt.robust_distance_experiment(f, cfg, dprimes, trials=trials, seed=9)
                    assert (rep.mode, rep.samples, rep.seed) == ("sampled", trials, 9)
                    assert_report_matches(rep, dists, dprimes)
        with pytest.raises(ValueError):
            mt.robust_distance_experiment(f, cfg, trials=0)

    def test_sampled_memory_is_bounded_by_block_cells(self):
        # 1000 tables of 256 cells are 2 MB of int64; trial blocks of 16
        # keep the run far below that
        f = mt.hard_instance(2, 8, 4)
        cfg = mt.TestConfig(CodeParams(2, 8, 0), e=1, k=1)
        with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", 1 << 12):
            mt.robust_distance_experiment(f, cfg, trials=2, seed=4)  # first-call imports
            rep, peak = traced_peak(
                lambda: mt.robust_distance_experiment(f, cfg, trials=1000, seed=4)
            )
        assert rep.samples == sum(rep.distance_counts.values()) == 1000
        assert peak < 2**20

    def test_memory_is_bounded(self):
        # the order-2 target over (2, 5) has 2^16 words: their tables alone
        # are 16 MB of int64, so only a streamed scan stays under 12 MB
        f = mt.hard_instance(2, 5, 2)
        cfg = mt.TestConfig(CodeParams(2, 5, 1), e=1, k=1)
        rep, peak = traced_peak(lambda: mt.robust_distance_experiment(f, cfg))
        assert rep.distance_counts == {0: 8, 2: 48, 4: 8}
        assert peak < 12 * 2**20
        rep, peak = traced_peak(
            lambda: mt.robust_distance_experiment(f, cfg, trials=10, seed=3)
        )
        assert rep.distance_counts == {2: 8, 4: 2}
        assert peak < 12 * 2**20


# (q, n, d) with q^n <= 81 and d + 1 <= n whose q^((d+1)n) direction
# matrices the brute force below walks in well under a second
AKKLR_CASES = [
    (q, n, d)
    for q in (2, 3, 5)
    for n in range(1, 7)
    for d in range(3)
    if q**n <= 81 and d + 1 <= n and q ** ((d + 1) * n) <= 3**8
]


def akklr_brute_force(f: Polynomial, d: int) -> Fraction:
    """Rejection probability over every full-rank direction matrix and
    every offset, through the dense interpolation matrix."""
    q, n, dim = f.q, f.n, d + 1
    table = f.evaluate_all().values
    powers = q ** np.arange(n - 1, -1, -1)
    grid = np.array(list(itertools.product(range(q), repeat=dim)))
    offsets = np.array(list(itertools.product(range(q), repeat=n)))
    high = alg.degree_table(q, dim) > d
    rejected = total = 0
    for entries in itertools.product(range(q), repeat=dim * n):
        dirs = np.array(entries).reshape(dim, n)
        if alg.rank_mod(dirs, q) < dim:
            continue
        pts = (offsets[:, None, :] + (grid @ dirs)[None, :, :]) % q
        coeffs = table[pts @ powers] @ alg.interp_matrix(q, dim).T % q
        rejected += int(np.count_nonzero(coeffs[:, high].any(axis=1)))
        total += len(offsets)
    return Fraction(rejected, total)



class TestAKKLR:
    def test_member_always_accepts(self):
        code = CodeParams(2, 4, 1)
        f = Polynomial.variable(2, 4, 0) + Polynomial.one(2, 4)
        assert all(mt.akklr_test(f, code, trial_rng(17, i)) for i in range(100))

    def test_cube_product_rejection_exact(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        pr = mt.akklr_exact_rejection_probability(f, CodeParams(2, 3, 1))
        assert pr == Fraction(1, 2)
        assert pr > 0

    def test_sampled_rejection_tracks_exact(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        code = CodeParams(2, 3, 1)
        rejections = sum(
            not mt.akklr_test(f, code, trial_rng(23, i)) for i in range(1500)
        )
        assert abs(rejections / 1500 - 0.5) < 0.06

    def test_restriction_agrees_pointwise(self):
        rng = np.random.default_rng(29)
        f = alg.random_polynomial(3, 3, 4, rng)
        dirs, offset = mt.sample_affine_subspace(3, 3, 2, rng)
        res = alg.restrict_to_affine(f, dirs, offset)
        for t0 in range(3):
            for t1 in range(3):
                x = (offset + np.array([t0, t1]) @ dirs) % 3
                assert res.evaluate((t0, t1)) == f.evaluate(tuple(int(v) for v in x))

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            mt.akklr_test(Polynomial.zero(2, 2), CodeParams(2, 2, 2), trial_rng(0, 0))

    @given(st.sampled_from(AKKLR_CASES), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_exact_matches_every_direction_matrix(self, case, seed):
        q, n, d = case
        f = alg.random_polynomial(q, n, n * (q - 1), np.random.default_rng(seed))
        want = akklr_brute_force(f, d)
        assert mt.akklr_exact_rejection_probability(f, CodeParams(q, n, d)) == want
        with mock.patch.object(mt, "_SUBSPACE_BLOCK_CELLS", 1):
            assert mt.akklr_exact_rejection_probability(f, CodeParams(q, n, d)) == want

    def test_exact_memory_is_bounded(self):
        # 1023 lines with 1024 offsets each; the value is the rank-rejection
        # loop's over all 1023 nonzero directions
        f = mt.hard_instance(2, 10, 8) + Polynomial.from_terms(
            2, 10, {(1, 0, 1, 0, 0, 0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0, 1, 1, 0, 0, 0): 1}
        )
        p, peak = traced_peak(
            lambda: mt.akklr_exact_rejection_probability(f, CodeParams(2, 10, 0))
        )
        assert p == Fraction(168, 341)
        assert peak < 8 * 2**20




# f over (3, 2) against a (2, 2) code, and a shape over F_5 on an F_3
# problem: each oracle refuses instead of answering for another ring
F32 = alg.random_polynomial(3, 2, 4, np.random.default_rng(53))
CODE22 = CodeParams(2, 2, 0)
CFG22 = mt.TestConfig(CODE22, e=1)
CFG32 = mt.TestConfig(CodeParams(3, 2, 1), e=1)
LINEAR2 = mt.UnivariatePoly(2, (0, 1))
SHAPE5 = mt.UnivariatePoly(5, (1, 2))
MISMATCHED_CODE = {
    "exact_acceptance_probability": lambda: mt.exact_acceptance_probability(F32, CFG22),
    "exact_corr_h_probability": lambda: mt.exact_corr_h_probability(F32, CFG22, LINEAR2),
    "character_average": lambda: mt.character_average(F32, CFG22, LINEAR2),
    "robust_distance_experiment": lambda: mt.robust_distance_experiment(F32, CFG22),
    "akklr_test": lambda: mt.akklr_test(F32, CODE22, trial_rng(0, 0)),
    "akklr_exact_rejection_probability": lambda: mt.akklr_exact_rejection_probability(
        F32, CODE22
    ),
    "is_member": lambda: rmcode.is_member(F32, CODE22),
    "distance": lambda: rmcode.distance(F32, CODE22),
    "character_membership": lambda: rmcode.character_membership(F32, CODE22),
}
MISMATCHED_SHAPE = {
    "exact_corr_h_probability": lambda: mt.exact_corr_h_probability(F32, CFG32, SHAPE5),
    "character_average": lambda: mt.character_average(F32, CFG32, SHAPE5),
    "raw_character_average": lambda: mt.raw_character_average(F32, 1, SHAPE5),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED_CODE))
def test_polynomial_over_other_parameters_is_refused(name):
    with pytest.raises(ParamsMismatchError):
        MISMATCHED_CODE[name]()


@pytest.mark.parametrize("name", sorted(MISMATCHED_SHAPE))
def test_shape_over_another_field_is_refused(name):
    with pytest.raises(ParamsMismatchError):
        MISMATCHED_SHAPE[name]()


def test_sampled_shape_keeps_its_error_type():
    with pytest.raises(ValueError):
        mt.corr_h(F32, CFG32, SHAPE5, trial_rng(0, 0))
