"""Code membership, exact distances, duality and character indicators."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmtest import algebra as alg, combin, rmcode
from rmtest.multtests import UnivariatePoly
from rmtest.algebra import Polynomial
from rmtest.errors import InfeasibleInstanceError
from rmtest.estimator import trial_rng
from rmtest.rmcode import CodeParams


def sz_min_weight(q, n, d):
    a, b = divmod(d, q - 1)
    return (q - b) * q ** (n - a) // q


@pytest.mark.parametrize("q,n,e", [(2, 2, 0), (2, 2, 5), (3, 2, 1), (3, 1, 7)])
def test_multiplier_code_is_the_clamped_multiplier_space(q, n, e):
    mults = rmcode.multiplier_code(q, n, e)
    assert mults.d == min(e, n * (q - 1))
    assert mults.size == len(list(alg.all_polynomials(q, n, e))) == q**mults.dimension


class TestMembership:
    def test_quadratic_not_affine(self):
        f = Polynomial.from_terms(2, 2, {(1, 1): 1})
        assert not rmcode.is_member(f, CodeParams(2, 2, 1))

    def test_zero_is_member_at_order_zero(self):
        assert rmcode.is_member(Polynomial.zero(2, 2), CodeParams(2, 2, 0))

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_agrees_with_dual_orthogonality(self, d):
        code = CodeParams(2, 2, d)
        dual = rmcode.dual_code(code)
        for f in alg.all_polynomials(2, 2):
            if dual is None:
                dual_ok = True
            else:
                dual_ok = all(
                    int(rmcode.inner_product(f, qq)) == 0
                    for qq in alg.all_polynomials(2, 2, dual.d)
                )
            assert dual_ok == rmcode.is_member(f, code)


class TestDistance:
    def test_quadratic_distance_one(self):
        f = Polynomial.from_terms(2, 2, {(1, 1): 1})
        res = rmcode.distance(f, CodeParams(2, 2, 1))
        assert res.distance == 1
        assert res.nearest.is_zero()
        assert res.method == "exact-coset"

    def test_member_distance_zero(self):
        f = Polynomial.variable(3, 2, 0)
        res = rmcode.distance(f, CodeParams(3, 2, 1))
        assert res.distance == 0
        assert res.nearest == f

    def test_subspace_indicator_isolation(self):
        # the (1+x1)(1+x2) indicator over three variables sits exactly
        # 2 = q^L away from every other quadratic
        one = Polynomial.one(2, 3)
        f = (one + Polynomial.variable(2, 3, 0)) * (one + Polynomial.variable(2, 3, 1))
        dists = []
        for g in alg.all_polynomials(2, 3, 2):
            if g == f:
                continue
            diff = (f - g).evaluate_all().support_size()
            dists.append(diff)
        assert min(dists) == 2

    def test_budget_error_names_requirement(self):
        f = Polynomial.zero(3, 3)
        code = CodeParams(3, 3, 3)
        assert code.dimension == 17
        with pytest.raises(InfeasibleInstanceError) as exc:
            rmcode.distance(f, code, budget=1000)
        assert exc.value.required == 3**17

    def test_distinct_codewords_separated(self):
        # nonzero codewords of weight below the classical floor do not exist
        for q, n in ((2, 3), (3, 2)):
            for d in range(0, n * (q - 1) + 1):
                assert rmcode.min_weight(CodeParams(q, n, d)) == sz_min_weight(q, n, d)


@functools.lru_cache(maxsize=None)
def all_codewords(q, n, d):
    """Every polynomial of degree <= d in counter order, with its tables."""
    polys = list(alg.all_polynomials(q, n, d))
    return polys, np.stack([p.evaluate_all().values for p in polys])


# (q, n, d) with q^n <= 64 whose codes the brute force scans in well under
# a second
COSET_CASES = [
    (q, n, d)
    for q in (2, 3, 5)
    for n in range(1, 7)
    if q**n <= 64
    for d in range(n * (q - 1) + 1)
    if CodeParams(q, n, d).size <= 2**12
]


# (q, d) over n = 1 at large q, codes of at most 2^12 words
LARGE_Q_CASES = [(q, d) for q in (11, 13, 17) for d in range(q) if q ** (d + 1) <= 2**12]


def mds_weights(q, length, k):
    """Weight distribution of an [length, k] MDS code over F_q (MacWilliams
    and Sloane, ch. 11, thm 6); the order-d code over n = 1 and its dual are
    MDS."""
    dmin = length - k + 1
    out = [1] + [0] * length
    for w in range(dmin, length + 1):
        out[w] = math.comb(length, w) * (q - 1) * sum(
            (-1) ** j * math.comb(w - 1, j) * q ** (w - dmin - j) for j in range(w - dmin + 1)
        )
    return np.array(out, dtype=object)


def assert_matches_scan(code, rows):
    """coset_distances at three cell budgets against a scan of every
    codeword in counter order; returns the distances."""
    q, n, d = code.q, code.n, code.d
    polys, tables = all_codewords(q, n, d)
    scan = np.count_nonzero(tables[None, :, :] != rows[:, None, :], axis=2)
    idx = alg.monomial_indices_up_to_degree(q, n, d)
    for cells in (rmcode._PRODUCT_BLOCK_CELLS, 1, 37):
        with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", cells):
            dists, nearest = rmcode.coset_distances(code, rows)
        np.testing.assert_array_equal(dists, scan.min(axis=1))
        words = np.zeros((len(rows), q**n), dtype=np.int64)
        words[:, idx] = nearest
        assert [Polynomial(q, n, w) for w in words] == [polys[j] for j in scan.argmin(axis=1)]
    return dists


class TestCosetDistances:
    """The streamed kernel against a scan of every codeword in counter order."""

    @given(st.sampled_from(COSET_CASES), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, case, seed, data):
        q, n, d = case
        _, tables = all_codewords(q, n, d)
        rng = np.random.default_rng(seed)
        members = data.draw(st.lists(st.booleans(), min_size=1, max_size=5))
        rows = np.stack(
            [tables[rng.integers(len(tables))] if m else rng.integers(0, q, q**n) for m in members]
        )
        dists = assert_matches_scan(CodeParams(q, n, d), rows)
        assert not dists[np.array(members)].any()

    @pytest.mark.parametrize("q,d", LARGE_Q_CASES)
    def test_large_q_matches_brute_force(self, q, d):
        # one-byte tables hold 2q - 2; the generator multiples reach (q-1)^2
        code = CodeParams(q, 1, d)
        _, tables = all_codewords(q, 1, d)
        rng = np.random.default_rng(q * 10 + d)
        rows = np.concatenate([rng.integers(0, q, (4, q)), tables[rng.integers(len(tables), size=2)]])
        assert not assert_matches_scan(code, rows)[4:].any()
        via_dual = rmcode.macwilliams_transform(mds_weights(q, q, q - 1 - d), q, q)
        for cells in (rmcode._PRODUCT_BLOCK_CELLS, 1, 37):
            with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", cells):
                assert list(rmcode.weight_distribution(code)) == list(via_dual)


class TestWeightDistribution:
    def test_macwilliams_agrees_with_direct(self):
        for q, n, d in ((2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 2, 3)):
            code = CodeParams(q, n, d)
            direct = rmcode.weight_distribution(code)
            dual = rmcode.dual_code(code)
            dual_counts = rmcode.weight_distribution(dual)
            via_dual = rmcode.macwilliams_transform(dual_counts, q, q**n)
            assert list(direct) == list(via_dual)

    def test_total_is_code_size(self):
        code = CodeParams(3, 2, 2)
        assert sum(int(c) for c in rmcode.weight_distribution(code)) == code.size

    def test_patched_cell_budget_is_honoured(self):
        # (2,5,2): 2^16 words of 32 cells; at 2^8 cells the low table has
        # 2^3 rows and the 2^13 offsets come in blocks of 2^3
        code = CodeParams(2, 5, 2)
        want = rmcode.weight_distribution(code)
        cells = 2**8
        blocks = []

        def spy(q, count, rows):
            for block in alg.coefficient_blocks(q, count, rows):
                blocks.append((count, block.shape[0]))
                yield block

        with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", cells):
            high, low = rmcode._code_split(code, cells)
            assert low.size <= cells and len(high) == 13
            with mock.patch.object(rmcode, "coefficient_blocks", spy):
                assert list(rmcode.weight_distribution(code)) == list(want)
            tracemalloc.start()
            try:
                rmcode.weight_distribution(code)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        offset_blocks = [rows for count, rows in blocks if count == len(high)]
        assert len(offset_blocks) > 1
        assert sum(offset_blocks) == 2**13
        assert max(offset_blocks) * 32 <= cells
        assert peak < 2**20

    def test_min_weight_uses_dual_when_needed(self):
        # force the dual route with a small budget that still fits the dual
        code = CodeParams(3, 3, 4)  # dimension 23, dual dimension 4
        assert rmcode.min_weight(code, budget=10_000) == sz_min_weight(3, 3, 4)


class TestProductDegreeCounts:
    """The streamed histogram against products through the ring."""

    @given(st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_ring_products(self, seed, data):
        q, n = data.draw(
            st.sampled_from([(q, n) for q in (2, 3, 5) for n in (1, 2, 3, 4) if q**n <= 27])
        )
        nq = n * (q - 1)
        # keep the ring route at no more than 3^5 multipliers
        es = [e for e in range(nq + 1) if q ** combin.monomial_count(q, n, e) <= 243]
        e = data.draw(st.sampled_from(es))
        rng = np.random.default_rng(seed)
        fs = [
            alg.random_polynomial(q, n, nq, rng)
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        h = None
        if data.draw(st.booleans()):
            hdeg = data.draw(st.integers(1, q - 1))
            coeffs = list(rng.integers(0, q, size=hdeg)) + [int(rng.integers(1, q))]
            h = UnivariatePoly(q, tuple(int(c) for c in coeffs))
        want = np.zeros((len(fs), nq + 2), dtype=np.int64)
        for p in alg.all_polynomials(q, n, e):
            g = p if h is None else h.eval_poly(p)
            for j, f in enumerate(fs):
                deg = alg.mul_reduced(f, g).degree
                want[j, 0 if deg == alg.NEG_INF else deg + 1] += 1
        ftables = np.stack([f.evaluate_all().values for f in fs])
        shape = None if h is None else h.value_table()
        assert np.array_equal(rmcode.product_degree_counts(q, n, e, ftables, shape), want)
        with mock.patch.object(rmcode, "_PRODUCT_BLOCK_CELLS", 1):
            got = rmcode.product_degree_counts(q, n, e, ftables, shape)
        assert np.array_equal(got, want)


class TestHighCoefficientMaps:
    """The batched maps against ring products with single monomials."""

    @pytest.mark.parametrize("cells", [None, 1, 100])
    @pytest.mark.parametrize("q,n,e,threshold", [(2, 5, 2, 3), (3, 3, 2, 2), (5, 2, 3, 4)])
    def test_rows_are_high_coefficients_of_monomial_products(self, q, n, e, threshold, cells):
        rng = np.random.default_rng(q * 100 + n)
        fs = [alg.random_polynomial(q, n, n * (q - 1), rng) for _ in range(3)]
        ftables = np.stack([f.evaluate_all().values for f in fs])
        with mock.patch.object(
            rmcode, "_PRODUCT_BLOCK_CELLS", cells or rmcode._PRODUCT_BLOCK_CELLS
        ):
            maps = rmcode.high_coefficient_maps(q, n, e, ftables, threshold)
        monos = alg.monomial_indices_up_to_degree(q, n, e)
        high = alg.degree_table(q, n) > threshold
        assert maps.shape == (3, len(monos), np.count_nonzero(high))
        for f, fmap in zip(fs, maps):
            for a, row in zip(monos, fmap):
                unit = np.zeros(q**n, dtype=np.int64)
                unit[a] = 1
                prod = alg.mul_reduced(f, Polynomial(q, n, unit))
                np.testing.assert_array_equal(row, prod.coeffs[high])


class TestInnerProduct:
    def test_zero_partner(self):
        f = Polynomial.variable(2, 1, 0)
        assert int(rmcode.inner_product(f, Polynomial.zero(2, 1))) == 0

    def test_univariate_example(self):
        f = Polynomial.variable(2, 1, 0)
        assert int(rmcode.inner_product(f, Polynomial.one(2, 1))) == 1

    def test_dual_pair_orthogonal(self):
        for P in alg.all_polynomials(2, 2, 1):
            for Q in alg.all_polynomials(2, 2, 0):
                assert int(rmcode.inner_product(P, Q)) == 0

    def test_duality_exhaustive_small(self):
        for q, n in ((2, 2), (3, 2)):
            for d in range(0, n * (q - 1) + 1):
                code = CodeParams(q, n, d)
                dual = rmcode.dual_code(code)
                if dual is None:
                    continue
                for P in alg.all_polynomials(q, n, d):
                    for Q in alg.all_polynomials(q, n, dual.d):
                        assert int(rmcode.inner_product(P, Q)) == 0


class TestCharacterMembership:
    def test_univariate_nonmember(self):
        cs = rmcode.character_membership(Polynomial.variable(2, 1, 0), CodeParams(2, 1, 0))
        assert cs.counts == (1, 1)
        assert cs.is_exactly_zero()
        assert abs(cs.value()) < 1e-12

    def test_member_gives_one(self):
        cs = rmcode.character_membership(Polynomial.one(2, 1), CodeParams(2, 1, 0))
        assert cs.is_exactly_one()
        assert abs(cs.value() - 1) < 1e-12

    def test_indicator_matches_membership(self):
        code = CodeParams(2, 2, 1)
        for f in alg.all_polynomials(2, 2):
            cs = rmcode.character_membership(f, code)
            member = rmcode.is_member(f, code)
            assert cs.is_exactly_one() == member
            assert cs.is_exactly_zero() == (not member)
            assert abs(cs.value() - (1 if member else 0)) < 1e-9

    def test_sampled_mode(self):
        f = Polynomial.variable(3, 1, 0)
        cs = rmcode.character_membership(f, CodeParams(3, 1, 0), trials=500, seed=1)
        assert cs.mode == "sampled"
        assert cs.total == 500
        assert abs(cs.value()) < 0.2

    @pytest.mark.parametrize("q, n, d", [(2, 8, 2), (3, 4, 1)])
    def test_sampled_counts_match_the_two_step_route(self, q, n, d):
        code = CodeParams(q, n, d)
        values = np.random.default_rng(q * 100 + n).integers(0, q, size=q**n)
        f = alg.interpolate(alg.EvalTable(q, n, values))
        cs = rmcode.character_membership(f, code, trials=400, seed=3)
        gen = rmcode.generator_matrix(rmcode.dual_code(code))
        coeffs = trial_rng(3, 0).integers(0, q, size=(400, len(gen)))
        residues = (coeffs @ gen % q) @ values % q
        assert cs.counts == tuple(int(c) for c in np.bincount(residues, minlength=q))
        assert min(cs.counts) > 0

    def test_rational_reading(self):
        cs = rmcode.CharacterSum(3, (5, 2, 2), 9)
        assert cs.rational_if_real() is not None
        assert float(cs.rational_if_real()) == pytest.approx(cs.value().real)
        assert abs(cs.value().imag) < 1e-12


class TestDirectionSearch:
    def test_report_covers_every_direction(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        res = rmcode.find_good_direction(f, CodeParams(2, 3, 1), 1)
        assert len(res.reports) == (2**3 - 1) // (2 - 1)

    def test_cube_product_has_no_good_direction_at_order_one(self):
        # every hyperplane in some parallel class kills X1*X2*X3 down to the
        # affine code, so the search must come back empty
        f = Polynomial.from_terms(2, 3, {(1, 1, 1): 1})
        res = rmcode.find_good_direction(f, CodeParams(2, 3, 1), 1)
        assert res.found is None
        assert any(0 in rep.restriction_distances for rep in res.reports)

    def test_mixed_function_has_good_direction(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 0): 1, (0, 0, 1): 1})  # X1X2 + X3
        res = rmcode.find_good_direction(f, CodeParams(2, 3, 1), 1)
        assert res.found == (0, 0, 1)
        rep = next(r for r in res.reports if r.form == (0, 0, 1))
        assert rep.qualifies and min(rep.restriction_distances) >= 1

    def test_member_never_qualifies(self):
        f = Polynomial.variable(2, 3, 0)
        res = rmcode.find_good_direction(f, CodeParams(2, 3, 1), 1)
        assert res.found is None
        assert all(not rep.qualifies for rep in res.reports)

    def test_threshold_scaling(self):
        f = Polynomial.from_terms(2, 3, {(1, 1, 0): 1, (0, 0, 1): 1})
        res = rmcode.find_good_direction(f, CodeParams(2, 3, 1), 9)
        assert res.threshold == 2  # ceil(9/8)
