"""Randomized membership tests for the degree-d code and their oracles.

The multiplier test draws k independent uniform polynomials of degree at
most e and accepts when the product with f still has degree at most d+ek.
Variants: the same with a fixed univariate shape applied to one random
multiplier, a robustness experiment tracking the distance (not just the
membership) of the product, and the classic restrict-to-a-random-affine-
subspace test.  Every randomized test has an exhaustive enumeration oracle
computing its acceptance probability exactly, plus the closed-form bounds
the analysis promises, so small instances can be checked end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import combin, rmcode
from .algebra import (
    Polynomial,
    batch_evaluate,
    batch_interpolate,
    coefficient_blocks,
    degree_table,
    monomial_indices_up_to_degree,
    mul_reduced,
    rank_mod,
    random_polynomial,
    restrict_to_affine,
    sum_index,
)
from .errors import ParamsMismatchError
from .estimator import _trial_streams, check_budget
from .rmcode import (
    CharacterSum,
    CodeParams,
    _character_counts,
    codeword_tables,
    coset_distances,
    dual_code,
    generator_matrix,
    high_coefficient_maps,
    multiplier_code,
    product_degree_counts,
)

DEFAULT_CQ = 6  # stand-in for the nonconstructive restriction constant


@dataclass(frozen=True)
class TestConfig:
    """Parameters of a multiplier test run."""

    code: CodeParams
    e: int
    k: int = 1

    def __post_init__(self):
        if self.e < 0:
            raise ValueError("multiplier degree must be nonnegative")
        if self.k < 1:
            raise ValueError("need at least one multiplier")

    @property
    def target_degree(self) -> int:
        return self.code.d + self.e * self.k

    @property
    def vacuous(self) -> bool:
        """The product can never exceed the target degree: always accepts."""
        return self.target_degree >= self.code.n * (self.code.q - 1)


@dataclass(frozen=True)
class UnivariatePoly:
    """Univariate polynomial of exact degree k = len(coeffs)-1 over F_q."""

    q: int
    coeffs: tuple[int, ...]  # c_0 .. c_k

    def __post_init__(self):
        coeffs = tuple(c % self.q for c in self.coeffs)
        if not coeffs or coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_scalar(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.q
        return acc

    def eval_poly(self, p: Polynomial) -> Polynomial:
        """Horner evaluation in the quotient ring, each constant added into
        the constant coefficient of a fresh array."""
        q, n = p.q, p.n
        acc = Polynomial.constant(q, n, self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            coeffs = mul_reduced(acc, p).coeffs.copy()
            coeffs[0] = (coeffs[0] + c) % q
            acc = Polynomial._wrap(q, n, coeffs)
        return acc

    def value_table(self) -> np.ndarray:
        """h(x) for every field element, for pointwise composition."""
        return np.array([self.eval_scalar(x) for x in range(self.q)], dtype=np.int64)


# ---------------------------------------------------------------------------
# The multiplier test
# ---------------------------------------------------------------------------


def test_e_k(f: Polynomial, cfg: TestConfig, rng: np.random.Generator) -> bool:
    """One run: accept iff f times k random degree-<=e multipliers stays
    within degree d + ek."""
    q, n = cfg.code.q, cfg.code.n
    prod = f
    for _ in range(cfg.k):
        prod = mul_reduced(prod, random_polynomial(q, n, cfg.e, rng))
    return prod.degree <= cfg.target_degree


def exact_acceptance_probability(
    f: Polynomial, cfg: TestConfig, budget: int | None = None
) -> Fraction:
    """Acceptance probability, exactly, without enumerating the last factor.

    For g = f*P_1*...*P_{k-1}, the test accepts iff every coefficient of
    g*P_k above d+ek vanishes, which is linear in P_k: q^(M - rank) of the
    q^M multipliers P_k pass, rank being that of rmcode.high_coefficient_maps.
    The outer k-1 multipliers are enumerated as blocks of partial product
    tables g, one map per partial product, ranked as one stack.  The budget
    counts the map cells built, q^(M(k-1)) * M * q^n.
    """
    cfg.code.require(f)
    q, n = cfg.code.q, cfg.code.n
    K = q**n
    mults = multiplier_code(q, n, cfg.e)
    M = mults.dimension
    check_budget(q ** (M * (cfg.k - 1)) * M * K, budget, "rank map cells")
    if cfg.k > 1:  # whole tables only for the enumerated outer factors
        gen = generator_matrix(mults)
    ftab = f.evaluate_all().values
    accepted = 0
    for block in coefficient_blocks(
        q, (cfg.k - 1) * M, max(1, rmcode._PRODUCT_BLOCK_CELLS // (M * K))
    ):
        partial = np.broadcast_to(ftab, (len(block), K))
        for i in range(cfg.k - 1):
            partial = partial * (block[:, i * M : (i + 1) * M] @ gen) % q
        maps = high_coefficient_maps(q, n, cfg.e, partial, cfg.target_degree)
        ranks = np.bincount(rank_mod(maps, q), minlength=M + 1)
        accepted += sum(int(c) * q ** (M - r) for r, c in enumerate(ranks) if c)
    return Fraction(accepted, q ** (M * cfg.k))


def hard_instance(q: int, n: int, L: int) -> Polynomial:
    """The indicator of the subspace fixing the first n-L coordinates to 0:
    the product over those coordinates of (1 - x_i^{q-1})."""
    if not 0 <= L <= n:
        raise ValueError("subspace dimension out of range")
    out = Polynomial.one(q, n)
    for i in range(n - L):
        xi_pow = Polynomial.variable(q, n, i) ** (q - 1)
        out = mul_reduced(out, Polynomial.one(q, n) - xi_pow)
    return out


def subspace_vanishing_probability(
    q: int, n: int, L: int, e: int, budget: int | None = None
) -> Fraction:
    """Probability that one uniform degree-<=e multiplier vanishes on the
    L-dimensional subspace fixing the first n-L coordinates, as q^-rank of
    the M x q^L submatrix of the generator matrix at the subspace's points
    (the closed form is q^(-monomial_count(q, L, e)))."""
    idx = monomial_indices_up_to_degree(q, n, multiplier_code(q, n, e).d)
    check_budget(len(idx) * q**L, budget, "rank map cells")
    # the points are the indices below q^L (first n-L digits zero): a
    # monomial in one of the first n-L variables is zero on all of them,
    # and one in the last L variables takes its values over (q, L)
    sub = np.zeros((len(idx), q**L), dtype=np.int64)
    inner = idx < q**L
    sub[inner] = rmcode.monomial_tables(q, L, idx[inner])
    return Fraction(1, q ** rank_mod(sub, q))


# ---------------------------------------------------------------------------
# Soundness bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    """Closed-form soundness bound for a given distance Delta.

    eta carries the derivation-consistent exponent reading
    1/(q^(k/(q-1)) ln q); the looser reading with exponent k/q - 1 is
    reported alongside for comparison.
    """

    eta: float
    eta_alt_reading: float
    L: int
    n_count: int
    bound: float
    vacuous: bool  # bound exceeds 1


def _ilog(q: int, x: int) -> int:
    """Largest L with q**L <= x (x >= 1)."""
    if x < 1:
        raise ValueError("need a positive argument")
    L = 0
    while q ** (L + 1) <= x:
        L += 1
    return L


def eta_factor(q: int, k: int) -> float:
    return 1.0 / (q ** (k / (q - 1)) * math.log(q))


def soundness_bound(cfg: TestConfig, delta: int) -> BoundParams:
    """k * q^(-eta * monomial_count(floor(L/10) - DEFAULT_CQ, e)) with
    L = floor(log_q delta)."""
    if delta < 1:
        raise ValueError("distance must be at least 1")
    q, k, e = cfg.code.q, cfg.k, cfg.e
    eta = eta_factor(q, k)
    eta_alt = 1.0 / (q ** (k / q - 1) * math.log(q))
    L = _ilog(q, delta)
    n_count = combin.monomial_count(q, L // 10 - DEFAULT_CQ, e)
    bound = k * q ** (-eta * n_count)
    return BoundParams(eta, eta_alt, L, n_count, bound, bound > 1)


@dataclass(frozen=True)
class PremiseCheck:
    """Whether (delta, e) sit inside the soundness bound's valid ranges."""

    delta_in_range: bool  # delta^{4(q-1)} <= q^{r - 8(q-1)}, checked exactly
    e_in_range: bool  # 4ke <= r
    vacuous: bool


def soundness_premise(cfg: TestConfig, delta: int) -> PremiseCheck:
    q, r, k, e = cfg.code.q, cfg.code.r, cfg.k, cfg.e
    exponent = r - 8 * (q - 1)
    delta_ok = delta >= 1 and (
        exponent >= 0 and delta ** (4 * (q - 1)) <= q**exponent
    )
    e_ok = 4 * k * e <= r
    return PremiseCheck(delta_ok, e_ok, not (delta_ok and e_ok))


def case2_bound(q: int, n: int, dprime: int, e: int, k: int) -> tuple[Fraction, bool]:
    """Degree-drop bound for f of exact degree dprime: sum over the k stages
    of q^(-monomial_count(floor(L_i/3), e)) where L_i tracks the co-degree
    of the partial product.  Applicable when every stage keeps co-degree at
    least 3e (checked on the last, smallest one)."""
    total = Fraction(0)
    applicable = True
    for i in range(k):
        r_i = (q - 1) * n - (dprime + e * i)
        if r_i < 3 * e:
            applicable = False
        L_i = max(r_i, 0) // (q - 1)
        total += Fraction(1, q ** combin.monomial_count(q, L_i // 3, e))
    return total, applicable


# ---------------------------------------------------------------------------
# Fixed univariate shape applied to a random multiplier
# ---------------------------------------------------------------------------


def _require_shape(h: UnivariatePoly, q: int, *, test: bool = True) -> None:
    """Require h over F_q and, for a test's shape, deg(h) < q: at degree q
    the composition can be identically zero (X^q - X), which would make the
    test meaningless."""
    if h.q != q:
        raise ParamsMismatchError(f"shape polynomial over F_{h.q}, problem over F_{q}")
    if test and h.degree >= q:
        raise ValueError(f"shape degree must be below q, got {h.degree}")


def corr_h(
    f: Polynomial, cfg: TestConfig, h: UnivariatePoly, rng: np.random.Generator
) -> bool:
    """Accept iff f * h(P) stays within degree d + e*deg(h) for one uniform P
    (deg(h) < q)."""
    q, n = cfg.code.q, cfg.code.n
    _require_shape(h, q)
    p = random_polynomial(q, n, cfg.e, rng)
    prod = mul_reduced(f, h.eval_poly(p))
    return prod.degree <= cfg.code.d + cfg.e * h.degree


def exact_corr_h_probability(
    f: Polynomial, cfg: TestConfig, h: UnivariatePoly, budget: int | None = None
) -> Fraction:
    """Acceptance probability of the shaped test by enumerating every P.

    The composition is applied pointwise on evaluation tables, an
    independent route from the ring Horner used by the sampler.
    """
    cfg.code.require(f)
    q, n = cfg.code.q, cfg.code.n
    _require_shape(h, q)
    count = multiplier_code(q, n, cfg.e).size
    check_budget(count, budget, "multiplier enumeration")
    hist = product_degree_counts(
        q, n, cfg.e, f.evaluate_all().values[None, :], shape=h.value_table()
    )
    threshold = cfg.code.d + cfg.e * h.degree
    return Fraction(int(hist[0, : threshold + 2].sum()), count)


# ---------------------------------------------------------------------------
# Character-sum views of the same acceptance probabilities
# ---------------------------------------------------------------------------


def _cross_residues(row_blocks, code: CodeParams):
    """Yield rows @ words.T for every block of rows and every codeword block
    of code, at most _PRODUCT_BLOCK_CELLS products at a time."""
    for rows in row_blocks:
        for _, words in codeword_tables(code):
            step = max(1, rmcode._PRODUCT_BLOCK_CELLS // len(words))
            for start in range(0, len(rows), step):
                yield rows[start : start + step] @ words.T


def raw_character_average(
    f: Polynomial, e: int, g: UnivariatePoly, budget: int | None = None
) -> CharacterSum:
    """Average over uniform degree-<=e multipliers P of omega^<g(P), f>."""
    q = f.q
    _require_shape(g, q, test=False)
    code = multiplier_code(q, f.n, e)
    check_budget(code.size, budget, "multiplier enumeration")
    gvals, fvals = g.value_table(), f.evaluate_all().values
    return _character_counts(
        q, (gvals[tables] @ fvals for _, tables in codeword_tables(code))
    )


def pair_character_average(
    f: Polynomial, e: int, scalar: int, budget: int | None = None
) -> CharacterSum:
    """Average over independent P1, P2 of omega^<scalar * P1 * P2, f>."""
    q = f.q
    code = multiplier_code(q, f.n, e)
    check_budget(code.size**2, budget, "pair enumeration")
    weights = f.evaluate_all().values * (scalar % q) % q
    weighted = (tables * weights % q for _, tables in codeword_tables(code))
    return _character_counts(q, _cross_residues(weighted, code))


def character_average(
    f: Polynomial, cfg: TestConfig, h: UnivariatePoly, budget: int | None = None
) -> CharacterSum:
    """Double character average over P and the dual of the target code.

    The inner average over dual words is the exact membership indicator of
    f*h(P), so the absolute value of the result equals the shaped test's
    acceptance probability.
    """
    cfg.code.require(f)
    q, n = cfg.code.q, cfg.code.n
    _require_shape(h, q)
    target_d = min(cfg.code.d + cfg.e * h.degree, n * (q - 1))
    dual = dual_code(CodeParams(q, n, target_d))
    code = multiplier_code(q, n, cfg.e)
    count = code.size
    dual_count = 1 if dual is None else dual.size
    check_budget(count * dual_count, budget, "double enumeration")
    if dual is None:
        # the dual is {0}: every residue is 0
        return CharacterSum(q, (count,) + (0,) * (q - 1), count)
    hvals, fvals = h.value_table(), f.evaluate_all().values
    prods = (hvals[tables] * fvals % q for _, tables in codeword_tables(code))
    return _character_counts(q, _cross_residues(prods, dual))


# ---------------------------------------------------------------------------
# Robust-distance experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobustReport:
    mode: str  # "exact" | "sampled"
    samples: int
    distance_counts: dict  # distance -> count
    fraction_below: dict  # Delta' -> Fraction of samples with distance < Delta'
    fraction_at_most: dict  # Delta' -> Fraction of samples with distance <= Delta'
    min_distance: int
    median_distance: float
    seed: int | None = None


def _class_multipliers(multipliers: CodeParams):
    """Yield (tables of P, weights) a block of multipliers P at a time, one
    P per scalar class: dist(a*f*P, C) = dist(f*P, C) for a != 0, so P = 0
    (weight 1) and the P whose leading nonzero coefficient is 1 (weight
    q - 1) stand for all q^M multipliers."""
    q = multipliers.q
    for block, tables in codeword_tables(multipliers):
        lead = block[np.arange(len(block)), (block != 0).argmax(axis=1)]
        keep = lead <= 1
        yield tables[keep], np.where(lead[keep] == 1, q - 1, 1)


def _sampled_multipliers(q: int, n: int, e: int, trials: int, seed: int):
    """Yield (tables of P, weight 1) for the seeded multipliers of trials
    0..trials-1, at most _PRODUCT_BLOCK_CELLS // q^n trials a block."""
    streams = _trial_streams(seed, trials)
    step = max(1, rmcode._PRODUCT_BLOCK_CELLS // q**n)
    for _ in range(0, trials, step):
        coeffs = np.stack(
            [random_polynomial(q, n, e, rng).coeffs for rng in itertools.islice(streams, step)]
        )
        yield batch_evaluate(q, n, coeffs), 1


def robust_distance_experiment(
    f: Polynomial,
    cfg: TestConfig,
    dprimes: tuple[int, ...] | None = None,
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> RobustReport:
    """Distribution of the exact distance of f*P from the order-(d+e) code.

    Exact mode (trials=None) enumerates the multipliers P, one per scalar
    class with its multiplicity, so samples is q^M; sampled mode draws them
    from seeded streams.  Both yield blocks of multiplier tables, and the
    products with f's table go through rmcode.coset_distances into one
    histogram of the q^n + 1 distances, so memory is bounded by
    _PRODUCT_BLOCK_CELLS, not by the samples, and every field is read from
    it: the full distance distribution and the fraction below /
    at-or-below each candidate radius, which is the quantity the
    robustness statements bound.
    """
    cfg.code.require(f)
    if cfg.k != 1:
        raise ValueError("the robustness experiment multiplies by a single P")
    q, n = cfg.code.q, cfg.code.n
    K = q**n
    target = CodeParams(q, n, min(cfg.code.d + cfg.e, n * (q - 1)))
    check_budget(target.size, budget, "coset enumeration")
    if trials is None:
        mults = multiplier_code(q, n, cfg.e)
        samples = mults.size
        check_budget(samples * target.size, budget, "multiplier x coset enumeration")
        blocks = _class_multipliers(mults)
        mode, seed_out = "exact", None
    else:
        if trials < 1:
            raise ValueError("need at least one trial")
        blocks = _sampled_multipliers(q, n, cfg.e, trials, seed)
        samples, mode, seed_out = trials, "sampled", seed
    ftab = f.evaluate_all().values
    hist = np.zeros(K + 1, dtype=np.int64)
    for tables, weights in blocks:
        np.add.at(hist, coset_distances(target, tables * ftab % q)[0], weights)
    present = np.flatnonzero(hist)
    cum = np.cumsum(hist)  # cum[v] = samples at distance <= v

    def at_most(dp: int) -> Fraction:
        return Fraction(int(cum[min(dp, K)]) if dp >= 0 else 0, samples)

    if dprimes is None:
        dprimes = tuple(range(0, int(present[-1]) + 2))
    # the two middle order statistics, equal when samples is odd
    lo, hi = np.searchsorted(cum, [(samples - 1) // 2, samples // 2], side="right")
    return RobustReport(
        mode,
        samples,
        {int(v): int(hist[v]) for v in present},
        {int(dp): at_most(dp - 1) for dp in dprimes},
        {int(dp): at_most(dp) for dp in dprimes},
        int(present[0]),
        float((lo + hi) / 2),
        seed_out,
    )


def reduction_check(
    f: Polynomial, cfg: TestConfig, report: RobustReport, budget: int | None = None
) -> dict[int, tuple[Fraction, Fraction, bool]]:
    """Both sides of the robustness reduction, exactly, at every radius of
    report, the exact robustness experiment of f under cfg.

    Left: the probability that f*P lands within distance dprime of the
    order-(d+e) code (the "lucky multiplier" event, report.fraction_at_most).
    Right: q^dprime times the two-multiplier acceptance probability at order
    d+2e, computed once for every radius.  Returns
    {dprime: (left, right, left <= right)}.
    """
    if report.mode != "exact":
        raise ValueError("the reduction check needs the exact robustness report")
    pair_cfg = TestConfig(cfg.code, cfg.e, k=2)
    accept = exact_acceptance_probability(f, pair_cfg, budget)
    checks = {}
    for dp, lucky in report.fraction_at_most.items():
        rhs = Fraction(cfg.code.q) ** dp * accept
        checks[dp] = (lucky, rhs, lucky <= rhs)
    return checks


# ---------------------------------------------------------------------------
# Affine-restriction test
# ---------------------------------------------------------------------------


def sample_affine_subspace(
    q: int, n: int, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform (directions, offset) with the directions of full rank,
    by rejection; the acceptance event only depends on the subspace."""
    while True:
        dirs = rng.integers(0, q, size=(dim, n))
        if rank_mod(dirs, q) == dim:
            break
    offset = rng.integers(0, q, size=n)
    return dirs, offset


def akklr_test(f: Polynomial, code: CodeParams, rng: np.random.Generator) -> bool:
    """Accept iff f restricted to a random (d+1)-dimensional affine
    subspace has degree at most d."""
    code.require(f)
    q, n, d = code.q, code.n, code.d
    if d + 1 > n:
        raise ValueError(f"need d+1 <= n, got d={d}, n={n}")
    dirs, offset = sample_affine_subspace(q, n, d + 1, rng)
    restricted = restrict_to_affine(f, dirs, offset)
    return restricted.degree <= d


# Gathered subspace values per interpolation in the exact AKKLR oracle:
# 2^14 cells (128 KB of int64) stay in cache, and measured faster than 2^12
# and 2^16 at (q, n, d) = (2, 10, 0), (2, 7, 1), (2, 6, 2) and (3, 4, 1).
_SUBSPACE_BLOCK_CELLS = 1 << 14


def _rref_bases(q: int, n: int, dim: int, block: int):
    """Yield every dim-dimensional linear subspace of F_q^n once, by its
    reduced row-echelon basis, as blocks of at most `block` dim x n bases:
    pivot columns in combinations order, then the entries right of each
    pivot outside the pivot columns in counter order."""
    for pivots in itertools.combinations(range(n), dim):
        free = [
            (i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots
        ]
        rows, cols = np.array(free, dtype=np.intp).reshape(-1, 2).T
        for coeffs in coefficient_blocks(q, len(free), block):
            bases = np.zeros((len(coeffs), dim, n), dtype=np.int64)
            bases[:, range(dim), pivots] = 1
            bases[:, rows, cols] = coeffs
            yield bases


def akklr_exact_rejection_probability(
    f: Polynomial, code: CodeParams, budget: int | None = None
) -> Fraction:
    """Rejection probability over all (d+1)-dimensional affine subspaces.

    Each linear subspace is enumerated once by its reduced row-echelon
    basis and paired with every offset; every affine subspace is hit by
    q^(d+1) such pairs, so the uniform average over pairs equals the
    average over subspaces.  A restriction is rejected iff one of its
    coefficients above degree d is nonzero.  The budget counts the pairs
    walked, gaussian_binomial(q, n, d+1) * q^n.
    """
    code.require(f)
    q, n, d = code.q, code.n, code.d
    if d + 1 > n:
        raise ValueError(f"need d+1 <= n, got d={d}, n={n}")
    dim = d + 1
    check_budget(
        combin.gaussian_binomial(q, n, dim) * q**n, budget, "subspace enumeration"
    )
    ftab = f.evaluate_all().values
    # offset + span point, added separately on the high and the low half
    # of the digits, so the sum tables have at most q^ceil(n/2) rows
    low = q ** (n - n // 2)
    add_high, add_low = sum_index(q, n // 2), sum_index(q, n - n // 2)
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    grid = next(coefficient_blocks(q, dim, block_size=q**dim))
    above = np.flatnonzero(degree_table(q, dim) > d)  # monomials above degree d
    rejected = 0
    total = 0
    for bases in _rref_bases(q, n, dim, max(1, _SUBSPACE_BLOCK_CELLS // q ** (n + dim))):
        span = np.matmul(grid, bases) % q @ powers  # bases x grid
        points = add_high[:, None, span // low] * low + add_low[None, :, span % low]
        values = ftab[points].reshape(-1, q**dim)  # (offset, basis) x grid
        coeffs = batch_interpolate(q, dim, values)
        rejected += int(np.count_nonzero(coeffs[:, above].any(axis=1)))
        total += len(values)
    return Fraction(rejected, total)
