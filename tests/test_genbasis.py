"""Ordered basis, generalized coefficients and triangular decompositions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtest import algebra as alg, genbasis as gb
from rmtest.algebra import Polynomial, mul_reduced


NATURAL3 = gb.FieldOrdering.natural(3)


class TestBasisPolys:
    def test_f3_natural(self):
        b = gb.basis_polys(NATURAL3)
        assert alg.poly_to_text(b[0]) == "q=3 n=1: 1"
        assert alg.poly_to_text(b[1]) == "q=3 n=1: 1*X1"
        assert alg.poly_to_text(b[2]) == "q=3 n=1: 1*X1^2 + 2*X1"

    def test_f2(self):
        b = gb.basis_polys(gb.FieldOrdering.natural(2))
        assert b[0] == Polynomial.one(2, 1)
        assert b[1] == Polynomial.variable(2, 1, 0)

    def test_degree_and_vanishing_pattern_all_orderings_q5(self):
        for perm in itertools.permutations(range(5)):
            ordering = gb.FieldOrdering(5, perm)
            b = gb.basis_polys(ordering)
            for i in range(5):
                assert b[i].degree == i
                for j in range(5):
                    val = b[i].evaluate([ordering.xi[j]])
                    if j < i:
                        assert val == 0
                assert b[i].evaluate([ordering.xi[i]]) != 0

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            gb.FieldOrdering(3, (0, 0, 2))


class TestGeneralizedCoefficients:
    def test_square_expansion(self):
        f = Polynomial.from_terms(3, 1, {(2,): 1})
        assert gb.generalized_terms(f, NATURAL3) == [((1,), 1), ((2,), 1)]

    def test_constant(self):
        f = Polynomial.constant(3, 2, 2)
        assert gb.generalized_terms(f, NATURAL3) == [((0, 0), 2)]

    def test_roundtrip_univariate_and_bivariate(self):
        for f in alg.all_polynomials(3, 1):
            gen = gb.to_generalized(f, NATURAL3)
            assert gb.from_generalized(gen, 3, 1, NATURAL3) == f
        ord2 = gb.FieldOrdering.natural(2)
        for f in alg.all_polynomials(2, 2):
            gen = gb.to_generalized(f, ord2)
            assert gb.from_generalized(gen, 2, 2, ord2) == f

    @given(st.sampled_from([(2, 6), (3, 4), (5, 3)]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, dims, seed):
        q, n = dims
        rng = np.random.default_rng(seed)
        ordering = gb.FieldOrdering(q, tuple(int(x) for x in rng.permutation(q)))
        f = alg.random_polynomial(q, n, n * (q - 1), rng)
        gen = gb.to_generalized(f, ordering)
        assert gb.from_generalized(gen, q, n, ordering) == f

    @pytest.mark.parametrize("xi", [(0, 1), (1, 0)])
    def test_roundtrip_q2(self, xi):
        # the generalized basis at q = 2 is (1, X - xi[0]) on every axis
        ordering = gb.FieldOrdering(2, xi)
        rng = np.random.default_rng(sum(xi) + 5)
        for n in range(9):
            f = alg.random_polynomial(2, n, n, rng)
            gen = gb.to_generalized(f, ordering)
            assert gb.from_generalized(gen, 2, n, ordering) == f
            if xi == (0, 1):
                np.testing.assert_array_equal(gen, f.coeffs)

    def test_degree_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = alg.random_polynomial(3, 2, 4, rng)
            assert gb.generalized_degree(f, NATURAL3) == f.degree

    def test_degree_filter_matches_membership(self):
        # generalized coefficients above degree d vanish iff deg(f) <= d
        for f in alg.all_polynomials(3, 2, 4):
            terms = gb.generalized_terms(f, NATURAL3)
            for d in range(0, 5):
                all_low = all(sum(ix) <= d for ix, _ in terms)
                assert all_low == (f.degree <= d)


class TestGeneralizedMonomialBasis:
    def test_member_degree_and_count(self):
        for q, n, d in ((2, 3, 2), (3, 2, 3), (5, 1, 3)):
            ordering = gb.FieldOrdering.natural(q)
            members = gb.generalized_monomials(ordering, n, d)
            from rmtest import combin

            assert len(members) == combin.monomial_count(q, n, d)
            for gm in members:
                poly = gm.as_polynomial()
                assert poly.degree == gm.degree <= d

    def test_members_span_the_degree_capped_space(self):
        # evaluation vectors of the level products have full rank, so they
        # form a basis of the degree-<=d space
        for q, n, d in ((2, 3, 2), (3, 2, 3)):
            ordering = gb.FieldOrdering.natural(q)
            members = gb.generalized_monomials(ordering, n, d)
            rows = np.stack(
                [gm.as_polynomial().evaluate_all().values for gm in members]
            )
            assert alg.rank_mod(rows, q) == len(members)

    def test_matches_coefficient_transform(self):
        # expanding f over the product basis and changing back reproduces f
        ordering = gb.FieldOrdering.natural(3)
        rng = np.random.default_rng(53)
        for _ in range(20):
            f = alg.random_polynomial(3, 2, 4, rng)
            assert gb.from_generalized(gb.to_generalized(f, ordering), 3, 2, ordering) == f

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (5, 1), (7, 1)])
    def test_matches_product_of_lifted_basis_polys(self, q, n):
        # the ring route: one univariate basis polynomial per variable,
        # lifted to that variable and multiplied in the quotient ring
        orderings = [gb.FieldOrdering.natural(q), gb.FieldOrdering.reversed_natural(q)]
        if q > 2:  # F_2 has no third ordering
            orderings.append(gb.FieldOrdering(q, tuple(range(1, q)) + (0,)))
        for ordering in orderings:
            basis = gb.basis_polys(ordering)
            for levels in itertools.product(range(q), repeat=n):
                product = Polynomial.one(q, n)
                for var, level in enumerate(levels):
                    lifted = {}
                    for mon, c in basis[level].terms():
                        exps = [0] * n
                        exps[var] = mon.exponents[0]
                        lifted[tuple(exps)] = c
                    product = mul_reduced(product, Polynomial.from_terms(q, n, lifted))
                assert gb.GeneralizedMonomial(levels, ordering).as_polynomial() == product


class TestStructureConstants:
    def test_f3_values(self):
        gamma = gb.structure_constants(NATURAL3).gamma
        b = gb.basis_polys(NATURAL3)
        assert gamma[1, 1, 1] == 1 == b[1].evaluate([1])
        assert gamma[2, 1, 1] == 1
        for r in range(3):
            for j in range(3):
                assert gamma[r, 0, j] == (1 if r == j else 0)

    def test_reconstruction_q5(self):
        ordering = gb.FieldOrdering.natural(5)
        gamma = gb.structure_constants(ordering).gamma
        b = gb.basis_polys(ordering)
        for i in range(5):
            for j in range(5):
                rebuilt = Polynomial.zero(5, 1)
                for r in range(5):
                    if gamma[r, i, j]:
                        rebuilt = rebuilt + b[r].scale(int(gamma[r, i, j]))
                assert rebuilt == mul_reduced(b[i], b[j])

    def test_triangularity_and_diagonal_all_orderings_q3(self):
        for perm in itertools.permutations(range(3)):
            ordering = gb.FieldOrdering(3, perm)
            gamma = gb.structure_constants(ordering).gamma
            b = gb.basis_polys(ordering)
            for r in range(3):
                assert gamma[r, r, r] == b[r].evaluate([ordering.xi[r]]) != 0
                for i in range(3):
                    for j in range(3):
                        if r < max(i, j):
                            assert gamma[r, i, j] == 0


class TestBasisProperty:
    @pytest.mark.parametrize("q", [2, 3])
    def test_exhaustive(self, q):
        ordering = gb.FieldOrdering.natural(q)
        basis = gb.basis_polys(ordering)
        for f in alg.all_polynomials(q, 1):
            for i in range(q):
                gen = gb.to_generalized(mul_reduced(f, basis[i]), ordering)
                assert all(int(gen[j]) == 0 for j in range(i))
                assert int(gen[i]) == f.evaluate([ordering.xi[i]])

    def test_sampled_q5(self):
        ordering = gb.FieldOrdering.natural(5)
        basis = gb.basis_polys(ordering)
        rng = np.random.default_rng(23)
        for _ in range(500):
            f = alg.random_polynomial(5, 1, 4, rng)
            i = int(rng.integers(0, 5))
            gen = gb.to_generalized(mul_reduced(f, basis[i]), ordering)
            assert all(int(gen[j]) == 0 for j in range(i))
            assert int(gen[i]) == f.evaluate([ordering.xi[i]])


class TestUTDecomposition:
    def test_multiplier_free_of_the_variable(self):
        # P without X2: only the level-0 component is nonzero
        p = Polynomial.from_terms(3, 2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})
        f = Polynomial.from_terms(3, 2, {(1, 1): 1, (0, 2): 2})
        dec = gb.ut_decompose(f, p, 1, NATURAL3)
        assert all(dec.multiplier_components[k].is_zero() for k in range(1, 3))
        assert gb.reassemble(dec) == mul_reduced(f, p)

    def test_constant_f(self):
        f = Polynomial.constant(3, 2, 2)
        p = Polynomial.from_terms(3, 2, {(1, 2): 1, (0, 1): 1})
        dec = gb.ut_decompose(f, p, 1, NATURAL3)
        # h components of a constant are constants; products scale the Q_k
        for k in range(3):
            assert dec.products[k] == dec.multiplier_components[k].scale(2)
        assert gb.reassemble(dec) == mul_reduced(f, p)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_reassembly_random(self, q):
        ordering = gb.FieldOrdering.natural(q)
        rng = np.random.default_rng(29 + q)
        for _ in range(1000 if q == 3 else 150):
            f = alg.random_polynomial(q, 2, 2 * (q - 1), rng)
            p = alg.random_polynomial(q, 2, 2 * (q - 1), rng)
            var = int(rng.integers(0, 2))
            dec = gb.ut_decompose(f, p, var, ordering)
            assert gb.reassemble(dec) == mul_reduced(f, p)

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_h_and_products_by_their_definitions(self, q, n, reverse):
        ordering = (gb.FieldOrdering.reversed_natural if reverse else gb.FieldOrdering.natural)(q)
        gamma = gb.structure_constants(ordering).gamma
        rng = np.random.default_rng(100 * q + 10 * n + reverse)
        f = alg.random_polynomial(q, n, n * (q - 1), rng)
        p = alg.random_polynomial(q, n, n * (q - 1), rng)
        for var in range(n):
            dec = gb.ut_decompose(f, p, var, ordering)
            zero = Polynomial.zero(q, n - 1)
            for (j, k), h in dec.h.items():
                assert h == sum(
                    (c.scale(int(gamma[k, i, j])) for i, c in enumerate(dec.f_components)),
                    zero,
                )
            e_var = [int(i == var) for i in range(n)]
            for k in range(q):
                restricted = alg.restrict(f, e_var, ordering.xi[k])
                expected = mul_reduced(dec.multiplier_components[k], restricted)
                for j in range(k):
                    expected = expected + mul_reduced(
                        dec.multiplier_components[j], dec.h[(j, k)]
                    )
                assert dec.products[k] == expected

    def test_component_assembly_inverse(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            f = alg.random_polynomial(3, 3, 6, rng)
            comps = gb.components_along(f, 1, NATURAL3)
            assert gb.assemble_along(comps, 1, NATURAL3) == f


class TestProductComponents:
    def test_single_factor_tensor_is_identity(self):
        rng = np.random.default_rng(37)
        pc = gb.product_components([alg.random_polynomial(3, 2, 2, rng)], 0, NATURAL3)
        assert np.array_equal(pc.beta, np.eye(3, dtype=np.int64))

    def test_two_factor_diagonal_matches_structure_constants(self):
        rng = np.random.default_rng(41)
        gamma = gb.structure_constants(NATURAL3).gamma
        pc = gb.product_components(
            [alg.random_polynomial(3, 2, 3, rng) for _ in range(2)], 1, NATURAL3
        )
        for r in range(3):
            assert pc.beta[r, r, r] == gamma[r, r, r] != 0

    @pytest.mark.parametrize("entry,raises", [((1, 0, 1), True), ((1, 0, 2), False)])
    def test_expansion_check_reads_tuples_up_to_each_level(self, monkeypatch, entry, raises):
        # an entry with every index <= its level enters that level's check;
        # one with a larger index is outside the triangular expansion
        real = gb._beta_tensor

        def changed(ordering, k):
            beta = real(ordering, k).copy()
            beta[entry] = (beta[entry] + 1) % ordering.q
            return beta

        monkeypatch.setattr(gb, "_beta_tensor", changed)
        # 1 has only a level-0 component along X1, and X1^2 = b_2 + b_1 has
        # levels 1 and 2, so both changed entries multiply nonzero products
        ps = [Polynomial.one(3, 2), Polynomial.from_terms(3, 2, {(2, 0): 1})]
        if raises:
            with pytest.raises(AssertionError, match="triangular expansion mismatch"):
                gb.product_components(ps, 0, NATURAL3)
        else:
            gb.product_components(ps, 0, NATURAL3)

    @pytest.mark.parametrize("q,k,runs", [(2, 2, 1000), (3, 2, 100), (5, 2, 40), (3, 3, 40)])
    def test_expansion_verified_random(self, q, k, runs):
        # product_components raises if the expansion or its diagonal fails
        ordering = gb.FieldOrdering.natural(q)
        rng = np.random.default_rng(43 + q + k)
        for _ in range(runs):
            ps = [alg.random_polynomial(q, 2, q - 1, rng) for _ in range(k)]
            gb.product_components(ps, int(rng.integers(0, 2)), ordering)
