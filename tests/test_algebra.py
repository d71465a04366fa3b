"""Ring arithmetic, orderings, transforms and text formats."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtest import algebra as alg
from rmtest.algebra import EvalTable, Monomial, Polynomial
from rmtest.errors import (
    DegenerateFormError,
    ParamsMismatchError,
    ZeroPolynomialError,
)


def test_prime_check():
    assert alg.is_prime(2) and alg.is_prime(3) and alg.is_prime(5)
    assert not alg.is_prime(4) and not alg.is_prime(9) and not alg.is_prime(1)
    with pytest.raises(ValueError):
        Polynomial.zero(4, 2)
    with pytest.raises(ValueError):
        Monomial(9, (1,))


class TestReducedProduct:
    def test_square_collapses_over_f2(self):
        x = Polynomial.variable(2, 1, 0)
        assert x * x == x

    def test_cube_collapses_over_f3(self):
        x = Polynomial.variable(3, 1, 0)
        assert x * (x * x) == x

    def test_binomial_square_matches_pointwise(self):
        f = Polynomial.variable(2, 2, 0) + Polynomial.variable(2, 2, 1)
        prod = f * f
        assert prod == f  # X1 + X2 over F_2
        values = f.evaluate_all().values
        assert prod.evaluate_all() == EvalTable(2, 2, values * values % 2)

    def test_params_mismatch(self):
        with pytest.raises(ParamsMismatchError):
            alg.mul_reduced(Polynomial.one(2, 2), Polynomial.one(3, 2))
        with pytest.raises(ParamsMismatchError):
            alg.mul_reduced(Polynomial.one(2, 2), Polynomial.one(2, 3))

    def test_products_and_samples_are_read_only(self):
        x, y = Polynomial.variable(3, 2, 0), Polynomial.variable(3, 2, 1)
        table = (x + y).evaluate_all()
        outputs = [
            alg.mul_reduced(x, y),
            alg.mul_reduced(x, Polynomial.zero(3, 2)),
            alg.random_polynomial(3, 2, 2, np.random.default_rng(0)),
            x + y,
            x - y,
            -x,
            x.scale(2),
            alg.interpolate(table),
        ]
        for arr in [f.coeffs for f in outputs] + [table.values]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        assert x - y == x + y.scale(2) and -x == x.scale(2)
        assert alg.interpolate(table) == x + y

    @pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 1), (3, 2), (257, 1)])
    def test_ring_isomorphism_exhaustive_small(self, q, n):
        polys = list(alg.all_polynomials(q, n)) if q**(q**n) <= 7_000_000 else None
        if polys is None or len(polys) > 300:
            rng = np.random.default_rng(11)
            pairs = [
                (
                    alg.random_polynomial(q, n, n * (q - 1), rng),
                    alg.random_polynomial(q, n, n * (q - 1), rng),
                )
                for _ in range(200)
            ]
        else:
            pairs = [(f, g) for f in polys for g in polys]
        for f, g in pairs:
            lhs = alg.mul_reduced(f, g).evaluate_all()
            rhs = f.evaluate_all().values * g.evaluate_all().values % q
            assert lhs == EvalTable(q, n, rhs)


def _product_dims():
    return st.sampled_from(
        [(q, n) for q in (2, 3, 5, 7) for n in range(11) if q**n <= 1024]
    )


class TestProductIndex:
    """mul_reduced's product-index lookups against the pointwise route."""

    @pytest.mark.parametrize("cap", ["default", "q", "q*q"])
    @given(_product_dims(), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_mul_reduced_matches_pointwise(self, cap, dims, seed, data):
        q, n = dims
        top = n * (q - 1)
        rng = np.random.default_rng(seed)
        f = alg.random_polynomial(q, n, data.draw(st.integers(0, top)), rng)
        g = alg.random_polynomial(q, n, data.draw(st.integers(0, top)), rng)
        pointwise = EvalTable(q, n, f.evaluate_all().values * g.evaluate_all().values)
        with pytest.MonkeyPatch.context() as mp:
            if cap != "default":
                mp.setattr(alg, "_PRODUCT_ROWS", q if cap == "q" else q * q)
            assert alg.mul_reduced(f, g) == alg.interpolate(pointwise)

    def test_table_is_the_reduced_monomial_product(self):
        for q, w in ((2, 3), (3, 2), (5, 1)):
            table = alg._product_index(q, w)
            assert table.dtype == np.int32 and not table.flags.writeable
            for i in range(q**w):
                for j in range(q**w):
                    prod = Monomial.from_index(q, w, i) * Monomial.from_index(q, w, j)
                    assert table[i, j] == prod.index()

    def test_sum_table_adds_points(self):
        for q, n in ((2, 3), (3, 2), (5, 1), (7, 0)):
            table = alg.sum_index(q, n)
            assert table.dtype == np.int32 and not table.flags.writeable
            for i in range(q**n):
                for j in range(q**n):
                    x, y = Monomial.from_index(q, n, i), Monomial.from_index(q, n, j)
                    point = tuple((a + b) % q for a, b in zip(x.exponents, y.exponents))
                    assert table[i, j] == Monomial(q, point).index()

    def test_large_q_folds_without_a_table(self, monkeypatch):
        # a 65537 x 65537 table would take 16 GiB
        def no_table(q, w):
            raise AssertionError(f"built a product table for q={q}")

        monkeypatch.setattr(alg, "_product_index", no_table)
        q = 65537
        f = Polynomial.from_terms(q, 1, {(0,): 3, (1,): q - 1, (40000,): 5, (q - 1,): 2})
        g = Polynomial.from_terms(q, 1, {(2,): 7, (30000,): 11, (q - 2,): q - 4})
        expect = {}
        for mf, cf in f.terms():
            for mg, cg in g.terms():
                key = (mf * mg).exponents
                expect[key] = expect.get(key, 0) + cf * cg
        assert alg.mul_reduced(f, g) == Polynomial.from_terms(q, 1, expect)


class TestMonomials:
    def test_reduced_product_and_disjointness_over_f3(self):
        m1, m2 = Monomial(3, (2,)), Monomial(3, (1,))
        assert m1.unreduced_exponents(m2) == (3,)
        assert m1 * m2 == Monomial(3, (1,))
        assert not m1.is_disjoint(m2)

    def test_disjoint_product(self):
        m1, m2 = Monomial(3, (2, 0)), Monomial(3, (0, 1))
        assert m1 * m2 == Monomial(3, (2, 1))
        assert m1.is_disjoint(m2)
        assert m1.unreduced_exponents(m2) == (2, 1)

    def test_disjoint_matches_per_variable_rule_exhaustive(self):
        monos = [Monomial(2, (a, b)) for a in range(2) for b in range(2)]
        for m1 in monos:
            for m2 in monos:
                rule = all(
                    a + b < 2 for a, b in zip(m1.exponents, m2.exponents)
                )
                assert m1.is_disjoint(m2) == rule


class TestGradedLex:
    def test_equal_degree_tiebreak(self):
        assert Monomial(3, (2, 0)) > Monomial(3, (1, 1))

    def test_degree_dominates(self):
        assert Monomial(3, (0, 1)) < Monomial(3, (1, 1))

    def test_total_order_and_product_compatibility(self):
        monos = [Monomial(3, (a, b)) for a in range(3) for b in range(3)]
        ordered = sorted(monos)
        # strict chain
        for a, b in zip(ordered, ordered[1:]):
            assert a < b and not b < a
        # unreduced products preserve the order
        for m1 in monos:
            for m2 in monos:
                if not m1 <= m2:
                    continue
                for m3 in monos:
                    u1 = m1.unreduced_exponents(m3)
                    u2 = m2.unreduced_exponents(m3)
                    assert (sum(u1), u1) <= (sum(u2), u2)

    def test_index_roundtrip(self):
        for idx in range(27):
            assert Monomial.from_index(3, 3, idx).index() == idx


class TestLeadingMonomial:
    def test_affine_over_f2(self):
        f = Polynomial.one(2, 1) + Polynomial.variable(2, 1, 0)
        assert f.leading_monomial() == Monomial(2, (1,))

    def test_lex_tiebreak(self):
        f = Polynomial.from_terms(3, 2, {(1, 1): 1, (2, 0): 1})
        assert f.leading_monomial() == Monomial(3, (2, 0))

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(2, 2).leading_monomial()
        assert Polynomial.zero(2, 2).degree == float("-inf")

    def test_degree_matches_max_nonzero_exhaustive(self):
        for f in alg.all_polynomials(2, 2):
            if f.is_zero():
                continue
            expected = max(m.degree for m, _ in f.terms())
            assert f.degree == expected == f.leading_monomial().degree

    def test_degree_matches_batch_degrees(self):
        rng = np.random.default_rng(5)
        for q, n in ((2, 3), (3, 2), (5, 2)):
            polys = [Polynomial.zero(q, n), Polynomial.constant(q, n, 1)] + [
                alg.random_polynomial(q, n, e, rng)
                for e in range(n * (q - 1) + 1)
                for _ in range(3)
            ]
            degs = alg.batch_degrees(q, n, np.stack([f.coeffs for f in polys]))
            assert [f.degree for f in polys] == [
                alg.NEG_INF if d < 0 else int(d) for d in degs
            ]


class TestTransforms:
    def test_univariate_interpolation(self):
        assert alg.interpolate(EvalTable(2, 1, [0, 1])) == Polynomial.variable(2, 1, 0)

    def test_zero_table(self):
        assert alg.interpolate(EvalTable(3, 2, [0] * 9)).is_zero()

    def test_roundtrip_cubic_space(self):
        # the degree-3 space over (2, 3) is the whole ring: 2^(2^3) functions
        count = 0
        for f in alg.all_polynomials(2, 3, 3):
            assert alg.interpolate(f.evaluate_all()) == f
            count += 1
        assert count == 256

    def test_shape_error(self):
        with pytest.raises(ValueError):
            EvalTable(2, 2, [0, 1, 1])

    @given(st.integers(0, 3**4 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_hypothesis(self, seed, data):
        q, n = data.draw(st.sampled_from([(2, 3), (3, 2), (5, 1)]))
        rng = np.random.default_rng(seed)
        f = alg.random_polynomial(q, n, n * (q - 1), rng)
        assert alg.interpolate(f.evaluate_all()) == f
        # table -> poly -> table as well
        table = EvalTable(q, n, rng.integers(0, q, q**n))
        assert alg.interpolate(table).evaluate_all() == table


def _dims():
    return st.sampled_from([(q, n) for q in (2, 3, 5) for n in range(9) if q**n <= 256])


class TestBatchTransforms:
    """The grouped per-axis transform against the dense Kronecker matrices."""

    @given(_dims(), st.sampled_from([0, 1, 7, 40]), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_batch_matches_dense_matrices(self, dims, count, seed):
        q, n = dims
        rows = np.random.default_rng(seed).integers(0, q, size=(count, q**n))
        np.testing.assert_array_equal(
            alg.batch_evaluate(q, n, rows), rows @ alg.eval_matrix(q, n).T % q
        )
        np.testing.assert_array_equal(
            alg.batch_interpolate(q, n, rows), rows @ alg.interp_matrix(q, n).T % q
        )

    @pytest.mark.parametrize("n", range(11))
    def test_xor_butterfly_matches_dense_matrices(self, n):
        # q = 2 takes the XOR butterfly; entries outside {0, 1}, negatives
        # included, and a Fortran-ordered input (its reshapes are copies)
        rng = np.random.default_rng(n)
        dense = {
            alg.batch_evaluate: alg.eval_matrix(2, n),
            alg.batch_interpolate: alg.interp_matrix(2, n),
        }
        for shape in ((1, 2**n), (7, 2**n), (3, 4, 2**n)):
            rows = rng.integers(-3, 5, size=shape)
            for rows in (rows, np.asfortranarray(rows)):
                for batch, mat in dense.items():
                    got = batch(2, n, rows)
                    assert got.dtype == np.int64 and got.shape == shape
                    np.testing.assert_array_equal(got, rows @ mat.T % 2)

    def test_one_row_and_many_rows_agree(self):
        rng = np.random.default_rng(3)
        for q, n in ((2, 7), (3, 4), (5, 3)):
            rows = rng.integers(0, q, size=(5, q**n))
            batch = alg.batch_interpolate(q, n, rows)
            for row, coeffs in zip(rows, batch):
                np.testing.assert_array_equal(
                    alg.interpolate(EvalTable(q, n, row)).coeffs, coeffs
                )
                assert Polynomial(q, n, coeffs).evaluate_all() == EvalTable(q, n, row)

    def test_roundtrip_memory_stays_linear(self):
        # a dense transform matrix at (2, 12) alone would take 128 MB
        q, n = 2, 12
        rows = np.random.default_rng(0).integers(0, q, size=(8, q**n))
        tracemalloc.start()
        try:
            back = alg.batch_interpolate(q, n, alg.batch_evaluate(q, n, rows))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, rows)
        assert peak < 16 * 2**20


def kernel_rank(mat: np.ndarray, q: int) -> int:
    """R - log_q of the number of x in F_q^R with x @ mat = 0, by brute force."""
    rows = mat.shape[0]
    xs = np.array(list(itertools.product(range(q), repeat=rows)), dtype=np.int64)
    kernel = np.count_nonzero(~(xs.reshape(q**rows, rows) @ mat % q).any(axis=1))
    return rows - round(math.log(kernel, q))


class TestRankMod:
    """The stacked elimination against per-matrix calls and kernel counts."""

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(1, 4),
        st.integers(0, 4),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_stack_equals_single_calls_and_kernel_counts(self, q, count, rows, cols, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(-q, 2 * q, size=(count, rows, cols))
        if rows >= 2:
            # a dependent row (a multiple of another) and a zero row
            stack[0, -1] = stack[0, 0] * int(rng.integers(q))
            stack[-1, 0] = 0
        ranks = alg.rank_mod(stack, q)
        assert ranks.shape == (count,) and ranks.dtype == np.int64
        for mat, rank in zip(stack, ranks):
            single = alg.rank_mod(mat, q)
            assert type(single) is int and single == rank
            assert rank == kernel_rank(mat % q, q) == kernel_rank((mat % q).T, q)

    def test_leading_shape_and_empty_sides(self):
        rng = np.random.default_rng(5)
        stack = rng.integers(0, 3, size=(2, 3, 4, 5))
        want = [[alg.rank_mod(m, 3) for m in row] for row in stack]
        np.testing.assert_array_equal(alg.rank_mod(stack, 3), want)
        assert alg.rank_mod(np.zeros((0, 4), dtype=np.int64), 3) == 0
        assert alg.rank_mod(np.zeros((4, 0), dtype=np.int64), 3) == 0
        np.testing.assert_array_equal(alg.rank_mod(np.zeros((3, 2, 0)), 2), [0, 0, 0])

    def test_full_rank_identity_and_large_prime(self):
        assert alg.rank_mod(np.eye(9, dtype=np.int64), 2) == 9
        # q = 13 leaves the uint8 range for the step's products
        mat = np.array([[1, 12, 5], [2, 11, 10], [0, 1, 3]])
        assert alg.rank_mod(mat, 13) == 2 == kernel_rank(mat, 13)


class TestRestrict:
    def test_substitution(self):
        f = Polynomial.from_terms(2, 2, {(1, 1): 1})
        assert f.restrict([0, 1], 1) == Polynomial.variable(2, 1, 0)

    def test_vanishing_on_own_kernel(self):
        f = Polynomial.variable(2, 2, 0) + Polynomial.variable(2, 2, 1)
        assert f.restrict([1, 1], 0).is_zero()

    def test_agreement_on_hyperplane_points(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            f = alg.random_polynomial(3, 3, 6, rng)
            ell = [int(x) for x in rng.integers(0, 3, 3)]
            if not any(ell):
                ell[0] = 1
            alpha = int(rng.integers(0, 3))
            res = f.restrict(ell, alpha)
            pivot = next(j for j, c in enumerate(ell) if c)
            rows = [e for j in range(3) if j != pivot for e in [np.eye(3, dtype=int)[j]]]
            rows.append(ell)
            a_inv = alg.inverse_mod_matrix(rows, 3)
            for y0 in range(3):
                for y1 in range(3):
                    x = a_inv @ np.array([y0, y1, alpha]) % 3
                    assert res.evaluate((y0, y1)) == f.evaluate(tuple(int(v) for v in x))

    def test_degree_never_grows(self):
        forms = [
            (a, b, c)
            for a in range(2)
            for b in range(2)
            for c in range(2)
            if (a, b, c) != (0, 0, 0)
        ]
        assert len(forms) == 7
        for f in alg.all_polynomials(2, 3, 2):
            for ell in forms:
                for alpha in (0, 1):
                    assert f.restrict(ell, alpha).degree <= f.degree

    def test_zero_form_rejected(self):
        with pytest.raises(DegenerateFormError):
            Polynomial.one(2, 2).restrict([0, 0], 0)


class TestRandomPolynomial:
    def test_constant_case_frequencies(self):
        rng = np.random.default_rng(123)
        counts = np.zeros(3, dtype=int)
        draws = 10_000
        for _ in range(draws):
            f = alg.random_polynomial(3, 2, 0, rng)
            counts[int(f.coeffs[0])] += 1
        # 95% binomial band around 1/3
        p = 1 / 3
        half = 1.96 * (p * (1 - p) / draws) ** 0.5
        for c in counts:
            assert abs(c / draws - p) < half + 1e-9

    def test_full_degree_uniform_chi_square(self):
        rng = np.random.default_rng(2024)
        draws = 16_000
        counts = np.zeros(16, dtype=int)
        for _ in range(draws):
            f = alg.random_polynomial(2, 2, 2, rng)
            idx = int(sum(int(c) << j for j, c in enumerate(f.coeffs)))
            counts[idx] += 1
        expected = draws / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30.5779  # chi-square critical value, df=15, alpha=0.01

    def test_seed_determinism(self):
        a = [alg.random_polynomial(3, 2, 2, np.random.default_rng(99)) for _ in range(5)]
        b = [alg.random_polynomial(3, 2, 2, np.random.default_rng(99)) for _ in range(5)]
        assert a == b

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            alg.random_polynomial(2, 2, 3, np.random.default_rng(0))


class TestTextFormats:
    def test_writer_format(self):
        f = Polynomial.from_terms(3, 2, {(2, 1): 2, (0, 0): 1})
        assert alg.poly_to_text(f) == "q=3 n=2: 2*X1^2*X2 + 1"

    def test_parser_normalizes_term_order_and_duplicates(self):
        f = alg.poly_from_text("q=3 n=2: 1 + 2*X1^2*X2 + 1*X1^2*X2 + 2")
        assert f == Polynomial.from_terms(3, 2, {(2, 1): 3, (0, 0): 3})
        assert f.is_zero()

    def test_roundtrip_random(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            f = alg.random_polynomial(3, 2, 4, rng)
            assert alg.poly_from_text(alg.poly_to_text(f)) == f

    def test_zero(self):
        assert alg.poly_from_text("q=2 n=2: 0").is_zero()
        assert alg.poly_to_text(Polynomial.zero(2, 2)) == "q=2 n=2: 0"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            alg.poly_from_text("nope")
