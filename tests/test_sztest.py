"""Degree-drop probabilities, tightness witnesses and the equation system."""

from fractions import Fraction

import numpy as np
import pytest

from rmtest import algebra as alg, combin, genbasis as gb, sztest
from rmtest.algebra import Monomial, Polynomial
from rmtest.errors import InfeasibleInstanceError, ZeroPolynomialError
from rmtest.rmcode import product_degree_counts


class TestDegreeDropProbability:
    def test_linear_over_f2(self):
        f = Polynomial.variable(2, 2, 0)
        rep = sztest.degree_drop_probability(f, 1, 1)
        assert rep.probability == Fraction(1, 2)
        assert rep.bound == Fraction(1, 2)
        assert rep.rank == 1
        assert rep.total == 8

    def test_zero_threshold_uses_nonempty_set(self):
        f = Polynomial.variable(2, 2, 0)
        rep = sztest.degree_drop_probability(f, 1, 0)
        assert rep.probability == Fraction(1, 4)
        assert rep.bound == Fraction(1, 4)

    def test_square_over_f3(self):
        f = Polynomial.from_terms(3, 2, {(2, 0): 1})
        rep = sztest.degree_drop_probability(f, 1, 1)
        assert rep.total == 27
        assert rep.probability <= rep.bound == Fraction(1, 3)

    def test_vacuous_query_flagged(self):
        f = Polynomial.from_terms(2, 2, {(1, 1): 1})
        rep = sztest.degree_drop_probability(f, 1, 1)
        assert rep.vacuous
        assert rep.probability == 1
        assert rep.bound == 1  # empty dominating range

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sztest.degree_drop_probability(Polynomial.zero(2, 2), 1, 1)

    def test_budget(self):
        f = Polynomial.variable(3, 3, 0)
        with pytest.raises(InfeasibleInstanceError):
            sztest.degree_drop_probability(f, 3, 1, budget=100)

    def test_sampled_mode_matches_exact_loosely(self):
        f = Polynomial.variable(2, 2, 0)
        rep = sztest.degree_drop_probability(f, 1, 1, trials=2000, seed=3)
        assert rep.mode == "sampled"
        assert rep.estimate.ci_low <= 0.5 <= rep.estimate.ci_high

    def test_zero_product_counts_as_drop(self):
        # a multiplier that kills f entirely must count toward the event
        one = Polynomial.one(2, 2)
        x1 = Polynomial.variable(2, 2, 0)
        f = one + x1
        # over the 4 constant-or-(1+X1) style multipliers of degree <= 1:
        # P = 1+X1 yields fP = f (since f^2 = f); P = X1 yields 0
        rep = sztest.degree_drop_probability(f, 1, 1)
        assert rep.probability > 0


class TestTightWitness:
    def test_linear_witness(self):
        w = sztest.tight_witness(2, 2, 1)
        assert w == Polynomial.variable(2, 2, 0)
        assert w.evaluate_all().support_size() == 2

    def test_constant_witness(self):
        w = sztest.tight_witness(3, 2, 0)
        assert w == Polynomial.one(3, 2)
        assert w.evaluate_all().support_size() == 9

    def test_mixed_witness_support(self):
        w = sztest.tight_witness(3, 2, 3)
        assert w.degree == 3
        assert w.leading_monomial() == combin.extremal_monomial(3, 2, 3)
        assert w.evaluate_all().support_size() == 2  # (q-v) q^(n-u-1)

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 1)])
    def test_support_formula_all_degrees(self, q, n):
        for d in range(0, n * (q - 1) + 1):
            u, v = divmod(d, q - 1)
            w = sztest.tight_witness(q, n, d)
            assert w.degree == d
            assert w.evaluate_all().support_size() == (q - v) * q ** (n - u) // q

    def test_classical_support_floor_recovered(self):
        # with the multiplier space equal to the whole ring and s = 0, the
        # drop bound forces the classical support floor; check the witness
        # meets it with equality and nothing beats it
        for q, n in ((2, 2), (3, 1)):
            for d in range(0, n * (q - 1) + 1):
                m0 = combin.extremal_monomial(q, n, d)
                floor = combin.dominating_range_count(m0, 0, n * (q - 1))
                u, v = divmod(d, q - 1)
                assert floor == (q - v) * q ** (n - u) // q
                w = sztest.tight_witness(q, n, d)
                assert w.evaluate_all().support_size() == floor
                for f in alg.all_polynomials(q, n, d):
                    if not f.is_zero() and f.degree == d:
                        assert f.evaluate_all().support_size() >= floor


class TestVerifyTightness:
    @pytest.mark.parametrize(
        "inst",
        [
            (2, 2, 1, 1, 1),
            (2, 2, 0, 0, 0),
            (3, 2, 2, 1, 1),
            (3, 2, 4, 1, 0),
            (5, 1, 2, 1, 1),
            # 2^79 and 3^36 multipliers: settled by rank only
            (2, 12, 4, 2, 1),
            (3, 7, 5, 2, 1),
        ],
    )
    def test_equality(self, inst):
        rep = sztest.verify_tightness(*inst)
        assert rep.equal

    def test_reversed_ordering_also_tight(self):
        rep = sztest.verify_tightness(3, 2, 3, 1, 1, gb.FieldOrdering.reversed_natural(3))
        assert rep.equal

    def test_constant_multiplier_case(self):
        # e = s = 0: the only drop is the zero multiplier
        rep = sztest.verify_tightness(3, 2, 2, 0, 0)
        assert rep.probability == Fraction(1, 3)
        assert rep.equal


class TestEquationSystem:
    def test_linear_rank(self):
        f = Polynomial.variable(2, 2, 0)
        assert sztest.independent_equation_rank(f, 1, 1) == 1

    def test_constant_full_diagonal(self):
        f = Polynomial.constant(2, 2, 1)
        rank = sztest.independent_equation_rank(f, 1, 0)
        assert rank == len(combin.disjoint_range(Monomial(2, (0, 0)), 0, 1)) == 3

    def test_rank_equals_triangular_count(self):
        # the drop report's rank is the triangular count; the system built
        # here, one monomial product at a time, must have exactly that rank
        fs = [f for q, n in ((2, 2), (3, 1)) for f in alg.all_polynomials(q, n)]
        for q, n in ((2, 4), (3, 2), (5, 2)):
            rng = np.random.default_rng(q * 10 + n)
            for deg in rng.integers(n * (q - 1) + 1, size=4):
                fs.append(alg.random_polynomial(q, n, int(deg), rng))
        for f in fs:
            if f.is_zero():
                continue
            lm = f.leading_monomial()
            for e in range(f.n * (f.q - 1) + 1):
                for s in range(0, e + 1):
                    rank = sztest.independent_equation_rank(f, e, s)
                    report = sztest.degree_drop_probability(f, e, s)
                    assert rank == report.rank == combin.dominating_range_count(lm, s, e)

    def test_probability_equals_full_system_rank(self):
        # the drop event is exactly the full homogeneous system, built one
        # monomial product at a time; where the multipliers are few, the
        # drop count is also enumerated through product_degree_counts
        for q, n in ((3, 1), (2, 3), (3, 2), (5, 2), (2, 6), (3, 3)):
            if q ** (q**n) <= 27:
                fs = [f for f in alg.all_polynomials(q, n) if not f.is_zero()]
            else:
                rng = np.random.default_rng(q * 10 + n)
                degs = rng.integers(n * (q - 1) + 1, size=4)
                fs = [alg.random_polynomial(q, n, int(deg), rng) for deg in degs]
            for f in fs:
                if not f.is_zero():
                    self._check_drops_by_rank(f)

    @staticmethod
    def _check_drops_by_rank(f):
        q, n, d = f.q, f.n, int(f.degree)
        top = n * (q - 1)
        for e in range(top + 1):
            M = combin.monomial_count(q, n, e)
            for s in range(0, min(e, top - d) + 1):
                rep = sztest.degree_drop_probability(f, e, s)
                full = sztest.independent_equation_rank(f, e, s, all_rows=True)
                assert rep.probability == Fraction(1, q**full)
                assert (rep.drop_count, rep.total) == (q ** (M - full), q**M)
                if q**M <= 2**12:
                    hist = product_degree_counts(q, n, e, f.evaluate_all().values[None])
                    assert int(hist[0, : d + s + 1].sum()) == rep.drop_count

    def test_triangular_submatrix_square(self):
        f = Polynomial.from_terms(3, 2, {(2, 0): 1, (1, 0): 2})
        mat, rows, cols = sztest.equation_matrix(f, 1, 1)
        lm = f.leading_monomial()
        assert len(rows) == combin.dominating_range_count(lm, 1, 1)


class TestCodegreeFloorBound:
    def test_codegree_three_e(self):
        # with co-degree at least 3e the drop probability at shift e is at
        # most q^(-monomial_count(L//3, e)), L = co-degree // (q-1)
        rng = np.random.default_rng(7)
        cases = 0
        for q, n, e in ((2, 4, 1), (3, 2, 1)):
            top = n * (q - 1)
            for _ in range(40):
                f = alg.random_polynomial(q, n, top - 3 * e, rng)
                if f.is_zero():
                    continue
                d = int(f.degree)
                r = top - d
                if r < 3 * e:
                    continue
                L = r // (q - 1)
                bound = Fraction(1, q ** combin.monomial_count(q, L // 3, e))
                rep = sztest.degree_drop_probability(f, e, e)
                assert rep.probability <= bound
                cases += 1
        assert cases > 10
