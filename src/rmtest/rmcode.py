"""Reed-Muller membership, exact distance, duality and character sums.

The order-d code over (q, n) is the set of functions whose reduced
polynomial has total degree at most d.  Distances are absolute Hamming
distances computed by exact coset enumeration; weight distributions can
also be obtained through the dual code when the primal is too large to
enumerate, with the dimension and orthogonality facts that identify the
dual checked on the way.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import combin
from .algebra import (
    Polynomial,
    batch_degrees,
    batch_evaluate,
    batch_interpolate,
    coefficient_blocks,
    degree_table,
    ensure_prime,
    monomial_indices_up_to_degree,
)
from .errors import ParamsMismatchError
from .estimator import check_budget, get_budget, trial_rng

# Table cells per block (2^18).  A code's cached low-codeword table holds at
# most this many (one byte each for q <= 128), the coset kernel compares this
# many per step and builds its offsets this many at a time, codeword_tables
# yields int64 blocks of at most this many (2 MB), sampled robustness runs
# stack their product tables in trial blocks of at most this many,
# product_degree_counts and high_coefficient_maps interpolate this many per
# call and the streamed character averages tally this many residues at a
# time; the transform and the degree scan hold about two more int64 arrays
# of this size.
_PRODUCT_BLOCK_CELLS = (2 << 20) // 8


@dataclass(frozen=True)
class CodeParams:
    """Code identified by field size q, dimension n and order d."""

    q: int
    n: int
    d: int

    def __post_init__(self):
        ensure_prime(self.q)
        if not 0 <= self.d <= (self.q - 1) * self.n:
            raise ValueError(
                f"order {self.d} outside [0, {(self.q - 1) * self.n}]"
            )

    @property
    def r(self) -> int:
        """Co-degree (q-1)n - d; the dual code has order r - 1."""
        return (self.q - 1) * self.n - self.d

    @property
    def dimension(self) -> int:
        return combin.monomial_count(self.q, self.n, self.d)

    @property
    def size(self) -> int:
        return self.q**self.dimension

    def require(self, f: Polynomial) -> None:
        """Raise ParamsMismatchError unless f lives over this code's (q, n)."""
        if (f.q, f.n) != (self.q, self.n):
            raise ParamsMismatchError(
                f"polynomial over (q, n) = ({f.q}, {f.n}), code over ({self.q}, {self.n})"
            )


def multiplier_code(q: int, n: int, e: int) -> CodeParams:
    """The multipliers of degree <= e over (q, n), as the code of order
    min(e, n(q-1)): its rows, dimension M and size q^M."""
    return CodeParams(q, n, min(e, (q - 1) * n))


@dataclass(frozen=True)
class DistanceResult:
    distance: int
    nearest: Polynomial
    method: str
    enumerated: int


def is_member(f: Polynomial, code: CodeParams) -> bool:
    """Membership is a degree test; the zero polynomial always belongs."""
    code.require(f)
    return f.degree <= code.d


def monomial_tables(q: int, n: int, idx: np.ndarray) -> np.ndarray:
    """Evaluation tables of the monomials at the indices idx, one row each."""
    units = np.zeros((len(idx), q**n), dtype=np.int64)
    units[np.arange(len(idx)), idx] = 1
    return batch_evaluate(q, n, units)


def generator_matrix(code: CodeParams) -> np.ndarray:
    """Evaluation tables of the monomials of degree <= d, one row each, in
    monomial index order."""
    return monomial_tables(
        code.q, code.n, monomial_indices_up_to_degree(code.q, code.n, code.d)
    )


def _reduce_once(a: np.ndarray, q: int) -> None:
    """a %= q in place for an unsigned array with entries below 2q: a - q
    wraps around above a exactly when a < q."""
    np.minimum(a, a - q, out=a)


@functools.lru_cache(maxsize=16)
def _code_split(code: CodeParams, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) of the code for blocks of cells table cells.

    low holds the codewords spanned by the last m generator rows, in counter
    order, with q^m * q^n <= cells (m = 0 when one table is already larger);
    high holds the other generator rows.  Every codeword is an offset (a
    combination of the high rows) plus a row of low.  low is built
    additively, one broadcast add per generator row, in the narrowest
    unsigned dtype that holds 2q - 2; high is kept in the same dtype.  Both
    are read-only.
    """
    q, K = code.q, code.q**code.n
    gen = generator_matrix(code)
    m = 0
    while m < len(gen) and q ** (m + 1) * K <= cells:
        m += 1
    dtype = np.min_scalar_type(2 * q - 2)
    low = np.zeros((1, K), dtype=dtype)
    for row in gen[len(gen) - m :]:
        # a * row for every a, reduced in int64 before narrowing
        multiples = (np.arange(q)[:, None] * row % q).astype(dtype)
        low = (low[:, None, :] + multiples[None, :, :]).reshape(-1, K)
        _reduce_once(low, q)
    high = gen[: len(gen) - m].astype(dtype)
    low.flags.writeable = False
    high.flags.writeable = False
    return high, low


def _offsets(code: CodeParams, high: np.ndarray, sign: int):
    """Yield sign * (digits @ high) mod q, in high's dtype, for every digit
    vector over the high rows in counter order; built in blocks of at most
    _PRODUCT_BLOCK_CELLS cells."""
    rows = max(1, _PRODUCT_BLOCK_CELLS // high.shape[1])
    for digits in coefficient_blocks(code.q, len(high), rows):
        yield from ((sign * digits) @ high % code.q).astype(high.dtype)


def codeword_tables(code: CodeParams):
    """Yield (coefficient rows, evaluation rows) over the whole code, the
    coefficients over generator_matrix's rows in counter order.

    Each block is the cached low table shifted by one offset: q^m int64
    rows, at most _PRODUCT_BLOCK_CELLS cells (one row when a table alone
    is larger).
    """
    high, low = _code_split(code, _PRODUCT_BLOCK_CELLS)
    blocks = coefficient_blocks(code.q, code.dimension, len(low))
    for coeffs, off in zip(blocks, _offsets(code, high, 1)):
        tables = low + off
        _reduce_once(tables, code.q)
        yield coeffs, tables.astype(np.int64)


def product_degree_counts(
    q: int, n: int, e: int, ftables: np.ndarray, shape: np.ndarray | None = None
) -> np.ndarray:
    """hist[j, t + 1] = number of multipliers P of degree <= min(e, n(q-1))
    with deg(f_j * shape(P)) = t, t = -1 for the zero product.

    ftables holds one evaluation table f_j per row; shape is a table of
    values applied pointwise to P (the identity when None).  The multipliers
    are streamed, _PRODUCT_BLOCK_CELLS product cells per interpolation, so
    memory does not grow with their number.
    """
    K = q**n
    nq = n * (q - 1)
    rows = len(ftables)
    row_base = np.arange(rows) * (nq + 2) + 1
    block = max(1, _PRODUCT_BLOCK_CELLS // (rows * K))  # multipliers per call
    hist = np.zeros(rows * (nq + 2), dtype=np.int64)
    for _, tables in codeword_tables(multiplier_code(q, n, e)):
        if shape is not None:
            tables = shape[tables]
        for start in range(0, len(tables), block):
            ptabs = tables[start : start + block]
            prods = ftables[None, :, :] * ptabs[:, None, :] % q
            degs = batch_degrees(q, n, batch_interpolate(q, n, prods.reshape(-1, K)))
            cells = degs.reshape(len(ptabs), rows) + row_base
            hist += np.bincount(cells.ravel(), minlength=hist.size)
    return hist.reshape(rows, nq + 2)


def high_coefficient_maps(
    q: int, n: int, e: int, ftables: np.ndarray, threshold: int
) -> np.ndarray:
    """maps[j, m, c] = coefficient of the c-th monomial of degree above
    threshold (in index order) in f_j * X^a, X^a the m-th monomial of degree
    <= min(e, n(q-1)), the rows of generator_matrix.

    maps[j] is the F_q-linear map P -> the coefficients of f_j * P above the
    threshold, so deg(f_j * P) <= threshold for exactly q^(M - rank) of the
    q^M multipliers P.  ftables holds one evaluation table f_j per row.  The
    generator rows are built and the products interpolated in blocks of
    about _PRODUCT_BLOCK_CELLS cells, and the maps are kept in the narrowest
    unsigned dtype that holds q - 1.
    """
    K = q**n
    idx = monomial_indices_up_to_degree(q, n, multiplier_code(q, n, e).d)
    high = np.flatnonzero(degree_table(q, n) > threshold)
    dtype = np.min_scalar_type(q - 1)
    maps = np.empty((len(ftables), len(idx), len(high)), dtype=dtype)
    step = max(1, _PRODUCT_BLOCK_CELLS // K)  # table rows per block
    for m in range(0, len(idx), step):
        gen = monomial_tables(q, n, idx[m : m + step])
        rows = max(1, step // len(gen))  # f_j per block
        for j in range(0, len(ftables), rows):
            prods = ftables[j : j + rows, None, :] * gen[None, :, :] % q
            coeffs = batch_interpolate(q, n, prods.reshape(-1, K))[:, high]
            maps[j : j + rows, m : m + step] = coeffs.reshape(len(prods), len(gen), -1)
    return maps


def _coset_weights(code: CodeParams, rows: np.ndarray):
    """Yield (h, start, weights) with weights[i, j] the Hamming distance, as
    int32, from rows[start + i] to the codeword h * q^m + j in counter
    order: offset h plus row j of the cached low table.

    The code is linear, so wt(row - offset - low_j) = #[(row - offset) !=
    low_j]: each offset only shifts the rows, and every compare is against
    the same low table, at most _PRODUCT_BLOCK_CELLS cells per step.
    """
    high, low = _code_split(code, _PRODUCT_BLOCK_CELLS)
    rows = rows.astype(low.dtype)
    step = max(1, _PRODUCT_BLOCK_CELLS // low.size)  # rows per compare
    for h, off in enumerate(_offsets(code, high, -1)):
        for start in range(0, len(rows), step):
            shifted = rows[start : start + step] + off
            _reduce_once(shifted, code.q)
            yield h, start, (shifted[:, None, :] != low).sum(axis=2, dtype=np.int32)


def coset_distances(code: CodeParams, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dists[i] = least Hamming distance from the evaluation table rows[i] to
    the code; nearest[i] = the coefficients (over generator_matrix's rows) of
    the first codeword at that distance in counter order.

    The weights come from _coset_weights, so memory does not grow with the
    code.  Offsets come in counter order, argmin keeps the first low row and
    a later offset must be strictly closer, which keeps the tie rule.
    """
    best = np.full(len(rows), code.q**code.n + 1)  # above every distance
    index = np.zeros(len(rows), dtype=np.int64)
    for h, start, weights in _coset_weights(code, rows):
        j, dj = weights.argmin(axis=1), weights.min(axis=1)
        closer = np.flatnonzero(dj < best[start : start + len(dj)])
        best[start + closer] = dj[closer]
        index[start + closer] = h * weights.shape[1] + j[closer]
    powers = code.q ** np.arange(code.dimension - 1, -1, -1, dtype=np.int64)
    return best, index[:, None] // powers % code.q


def distance(f: Polynomial, code: CodeParams, budget: int | None = None) -> DistanceResult:
    """Exact distance to the code by enumerating the coset of f."""
    code.require(f)
    check_budget(code.size, budget, "coset enumeration")
    q, n = code.q, code.n
    dists, nearest = coset_distances(code, f.evaluate_all().values[None, :])
    coeffs = np.zeros(q**n, dtype=np.int64)
    coeffs[monomial_indices_up_to_degree(q, n, code.d)] = nearest[0]
    return DistanceResult(int(dists[0]), Polynomial(q, n, coeffs), "exact-coset", code.size)


def weight_distribution(code: CodeParams, budget: int | None = None) -> np.ndarray:
    """counts[w] = number of codewords of Hamming weight w, by enumeration:
    the coset weights of the zero row."""
    check_budget(code.size, budget, "code enumeration")
    K = code.q**code.n
    counts = np.zeros(K + 1, dtype=np.int64)
    for _, _, weights in _coset_weights(code, np.zeros((1, K), dtype=np.int64)):
        counts += np.bincount(weights.ravel(), minlength=K + 1)
    return counts.astype(object)


def _krawtchouk(npoints: int, q: int, w: int, j: int) -> int:
    return sum(
        (-1) ** i * (q - 1) ** (w - i) * math.comb(j, i) * math.comb(npoints - j, w - i)
        for i in range(0, w + 1)
    )


def macwilliams_transform(dual_counts: np.ndarray, q: int, npoints: int) -> np.ndarray:
    """Weight distribution of a code from its dual's, exactly.

    counts[w] = (1/|dual|) sum_j dual_counts[j] * K_w(j); every division
    must come out integral, which is asserted.
    """
    dual_size = int(sum(int(c) for c in dual_counts))
    out = np.zeros(npoints + 1, dtype=object)
    nz = [j for j in range(npoints + 1) if dual_counts[j]]
    for w in range(npoints + 1):
        total = sum(int(dual_counts[j]) * _krawtchouk(npoints, q, w, j) for j in nz)
        quot, rem = divmod(total, dual_size)
        if rem:
            raise AssertionError("weight transform gave a non-integer count")
        out[w] = quot
    return out


def dual_code(code: CodeParams) -> CodeParams | None:
    """The dual (order r-1) or None when the dual is the zero code."""
    if code.r < 1:
        return None
    return CodeParams(code.q, code.n, code.r - 1)


def min_weight(code: CodeParams, budget: int | None = None) -> int:
    """Minimum weight of a nonzero codeword.

    Enumerates the code directly when it fits the budget; otherwise
    enumerates the dual and transforms, after confirming the dual really is
    dual (complementary dimension plus exhaustive orthogonality on a basis).
    """
    budget = get_budget(budget)
    npoints = code.q**code.n
    if code.size <= budget:
        counts = weight_distribution(code, budget)
    else:
        dual = dual_code(code)
        if dual is None:
            dual_counts = np.zeros(npoints + 1, dtype=object)
            dual_counts[0] = 1
        else:
            # code.size > budget here, so this is dual.size > budget
            check_budget(min(code.size, dual.size), budget, "code/dual enumeration")
            _assert_duality(code, dual)
            dual_counts = weight_distribution(dual, budget)
        counts = macwilliams_transform(dual_counts, code.q, npoints)
        if sum(int(c) for c in counts) != code.size:
            raise AssertionError("transformed distribution has wrong total")
    return next(w for w in range(1, npoints + 1) if counts[w])


def _assert_duality(code: CodeParams, dual: CodeParams) -> None:
    q, n = code.q, code.n
    if code.dimension + dual.dimension != q**n:
        raise AssertionError("dimensions are not complementary")
    # orthogonality of the monomial bases is enough by bilinearity
    gram = generator_matrix(code) @ generator_matrix(dual).T % q
    if gram.any():
        raise AssertionError("claimed dual is not orthogonal")


def inner_product(f: Polynomial, g: Polynomial) -> int:
    """Sum of the pointwise products over all of F_q^n, reduced mod q."""
    f._check(g)
    return int((f.evaluate_all().values * g.evaluate_all().values).sum()) % f.q


# ---------------------------------------------------------------------------
# Character sums over the q-th roots of unity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterSum:
    """Average of q-th roots of unity kept as exact per-residue counts.

    counts[a] tallies how many terms contributed omega^a; the floating
    value is derived on demand, and the 0/1 indicator decisions can be made
    on the integers alone (q prime, so the only rational cyclotomic
    relation is that all roots sum to zero).
    """

    q: int
    counts: tuple[int, ...]
    total: int
    mode: str = "exact"

    def value(self) -> complex:
        omega = cmath.exp(2j * cmath.pi / self.q)
        return sum(c * omega**a for a, c in enumerate(self.counts)) / self.total

    def rational_if_real(self) -> Fraction | None:
        """Exact value when the counts show it is rational (all nonzero
        residues equally hit); None otherwise."""
        rest = self.counts[1:]
        if all(c == rest[0] for c in rest):
            return Fraction(self.counts[0] - rest[0], self.total)
        return None

    def is_exactly_one(self) -> bool:
        return self.counts[0] == self.total

    def is_exactly_zero(self) -> bool:
        return all(c == self.counts[0] for c in self.counts)


def _character_counts(q: int, residue_blocks) -> CharacterSum:
    """Exact character sum of every residue in an iterable of fresh
    nonnegative integer arrays, each reduced mod q in place and tallied, then
    freed before the next one is built."""
    counts = np.zeros(q, dtype=np.int64)
    for residues in residue_blocks:
        residues %= q
        counts += np.bincount(residues.ravel(), minlength=q)
        del residues
    return CharacterSum(q, tuple(int(c) for c in counts), int(counts.sum()))


def character_membership(
    f: Polynomial,
    code: CodeParams,
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> CharacterSum:
    """Membership indicator as the dual-code character average.

    Exact mode (trials=None) averages omega^{<f,Q>} over the entire dual
    code: exactly 1 for members and 0 for non-members.  Sampled mode
    averages over uniformly drawn dual words.
    """
    code.require(f)
    q = code.q
    ftab = f.evaluate_all().values
    dual = dual_code(code)
    if dual is None:
        # dual = {0}: every inner product is 0
        total = 1 if trials is None else trials
        counts = tuple([total] + [0] * (q - 1))
        return CharacterSum(q, counts, total, "exact" if trials is None else "sampled")
    if trials is None:
        check_budget(dual.size, budget, "dual enumeration")
        return _character_counts(q, (tables @ ftab for _, tables in codeword_tables(dual)))
    gen = generator_matrix(dual)
    rng = trial_rng(seed, 0)
    coeffs = rng.integers(0, q, size=(trials, len(gen)))
    # exact by associativity mod q: one matrix-vector product per dual
    # basis word instead of one codeword table per draw
    cs = _character_counts(q, [coeffs @ (gen @ ftab % q)])
    return CharacterSum(q, cs.counts, cs.total, "sampled")


# ---------------------------------------------------------------------------
# Direction search (restrictions staying far from the lower-dimensional code)
# ---------------------------------------------------------------------------


def direction_representatives(q: int, n: int) -> list[tuple[int, ...]]:
    """One normalized representative per scalar class of nonzero forms,
    in lexicographic order (leading nonzero coefficient scaled to 1)."""
    forms = next(coefficient_blocks(q, n, q**n))[1:]  # counter order is lex order
    lead = forms[np.arange(len(forms)), (forms != 0).argmax(axis=1)]
    out = [tuple(int(c) for c in row) for row in forms[lead == 1]]
    assert len(out) == (q**n - 1) // (q - 1)
    return out


@dataclass(frozen=True)
class DirectionReport:
    form: tuple[int, ...]
    restriction_distances: tuple[int, ...]  # one per field element
    qualifies: bool


@dataclass(frozen=True)
class DirectionSearchResult:
    found: tuple[int, ...] | None
    threshold: int
    reports: tuple[DirectionReport, ...]


def find_good_direction(
    f: Polynomial, code: CodeParams, delta: int, budget: int | None = None
) -> DirectionSearchResult:
    """First direction whose every restriction stays delta/q^3-far.

    Scans all normalized nonzero forms; for each, restricts f to the q
    parallel hyperplanes and requires exact distance at least
    ceil(delta/q^3) from the order-d code one dimension down.  Returns the
    first qualifying form, or None with the full per-direction report.
    """
    q, n = code.q, code.n
    threshold = -(-delta // q**3)  # ceil
    sub_d = min(code.d, (q - 1) * (n - 1))
    subcode = CodeParams(q, n - 1, sub_d)
    reports = []
    found = None
    for form in direction_representatives(q, n):
        dists = []
        for alpha in range(q):
            res = f.restrict(form, alpha)
            dists.append(distance(res, subcode, budget).distance)
        ok = all(dd >= threshold for dd in dists)
        reports.append(DirectionReport(form, tuple(dists), ok))
        if ok and found is None:
            found = form
    return DirectionSearchResult(found, threshold, tuple(reports))
