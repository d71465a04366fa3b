"""Monomial counting and the dominating / disjoint set machinery."""

import itertools
import math

import numpy as np
import pytest

from rmtest import combin
from rmtest.algebra import Monomial, rank_mod


def brute_count(q, n, d):
    return sum(1 for e in itertools.product(range(q), repeat=n) if sum(e) <= d)


class TestMonomialCount:
    def test_small_example(self):
        assert combin.monomial_count(3, 2, 2) == 6

    def test_negative_variable_count_is_one(self):
        for d in (0, 3, 17):
            assert combin.monomial_count(3, -1, d) == 1
            assert combin.monomial_count(2, -5, d) == 1

    def test_negative_degree_is_zero(self):
        assert combin.monomial_count(3, 2, -1) == 0

    def test_multilinear_diagonal(self):
        for n in range(7):
            assert combin.monomial_count(2, n, n) == 2**n

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_agrees_with_enumeration(self, q):
        for n in range(0, 7 if q == 2 else 5):
            for d in range(0, n * (q - 1) + 1):
                assert combin.monomial_count(q, n, d) == brute_count(q, n, d)

    def test_power_lower_bound(self):
        # at least q^(e // (q-1)) monomials once enough variables exist
        for q in (2, 3):
            for e in range(0, 9):
                floor = e // (q - 1)
                for L in range(floor, floor + 3):
                    assert combin.monomial_count(q, L, e) >= q**floor


class TestGaussianBinomial:
    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 2), (2, 1)])
    def test_counts_full_rank_matrices_over_gl(self, q, n):
        # subspaces of dimension k = full-rank k x n matrices / |GL(k, q)|
        for k in range(0, n + 1):
            full = sum(
                rank_mod(np.array(m).reshape(k, n), q) == k
                for m in itertools.product(range(q), repeat=k * n)
            )
            gl = math.prod(q**k - q**i for i in range(k))
            assert combin.gaussian_binomial(q, n, k) * gl == full

    def test_known_values(self):
        assert combin.gaussian_binomial(2, 5, 3) == 155
        assert combin.gaussian_binomial(2, 7, 2) == 2667
        assert combin.gaussian_binomial(3, 4, 5) == 0


class TestSets:
    def test_single_shift_example(self):
        m = Monomial(3, (2, 0))
        assert [str(x) for x in combin.disjoint_monomials(m, 1)] == ["X2"]
        assert [str(x) for x in combin.dominating_monomials(m, 1)] == ["X1^2*X2"]

    def test_zero_shift(self):
        m = Monomial(3, (1, 1))
        assert combin.disjoint_monomials(m, 0) == (Monomial(3, (0, 0)),)
        assert combin.dominating_monomials(m, 0) == (m,)

    def test_sizes_agree_everywhere_small(self):
        for m in combin.all_monomials(3, 2):
            for s in range(0, 5):
                U = combin.dominating_monomials(m, s)
                D = combin.disjoint_monomials(m, s)
                assert len(U) == len(D)
                assert len(U) == combin.dominating_count(m, s)
                assert len(D) == combin.dominating_count(m, s)

    def test_product_bijection(self):
        # multiplying a disjoint monomial by m lands in the dominating set
        m = Monomial(3, (1, 2, 0))
        for s in range(0, 4):
            D = combin.disjoint_monomials(m, s)
            images = sorted((d * m for d in D), key=Monomial.sort_key)
            assert images == list(combin.dominating_monomials(m, s))

    def test_range_counts(self):
        m = Monomial(2, (1, 0))
        # shifts 0..2 over (2,2): {X1}, {X1X2}, {} -> 2 in total
        assert combin.dominating_range_count(m, 0, 2) == 2
        assert len(combin.dominating_range(m, 0, 2)) == 2
        assert len(combin.disjoint_range(m, 0, 2)) == 2

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            combin.dominating_monomials(Monomial(2, (0,)), -1)


class TestExtremalMonomial:
    def test_examples(self):
        assert combin.extremal_monomial(3, 2, 3) == Monomial(3, (2, 1))
        assert combin.extremal_monomial(3, 2, 0) == Monomial(3, (0, 0))
        assert combin.extremal_monomial(2, 3, 3) == Monomial(2, (1, 1, 1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            combin.extremal_monomial(2, 2, 3)

    def test_minimizes_dominating_count(self):
        for q, n in ((2, 3), (3, 3)):
            top = n * (q - 1)
            for d in range(0, top + 1):
                m0 = combin.extremal_monomial(q, n, d)
                for s in range(0, top - d + 1):
                    lo = combin.dominating_count(m0, s)
                    for m in combin.all_monomials(q, n, d):
                        assert combin.dominating_count(m, s) >= lo
