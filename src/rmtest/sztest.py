"""Exact degree-drop probabilities under random multipliers and the
monomial-counting bound that governs them.

For f of exact degree d and a uniform multiplier of degree at most e, the
probability that the product's degree falls below d+s is at most
q^(-|dominating range of LM(f) over shifts s..e|), with equality for an
explicit witness built from the ordered basis.  The linear system behind
the bound (one homogeneous equation per high-degree product monomial) is
materialized so its rank can be compared against both the drop counts
and the triangular-submatrix guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import combin, genbasis

# batch_interpolate is unused here but stays bound: rmbench/test_rmbench.py
# checks that its tracer reaches this from-import.
from .algebra import (
    Monomial,
    Polynomial,
    batch_interpolate,  # noqa: F401
    monomial_indices_up_to_degree,
    mul_reduced,
    rank_mod,
    random_polynomial,
)
from .errors import ZeroPolynomialError
from .estimator import EstimateResult, check_budget, estimate
from .rmcode import high_coefficient_maps, multiplier_code


@dataclass(frozen=True)
class SZBoundReport:
    mode: str  # "exact" | "sampled"
    probability: Fraction | None  # exact mode
    estimate: EstimateResult | None  # sampled mode
    bound: Fraction  # from LM(f)
    extremal_bound: Fraction  # from the extremal monomial at deg(f)
    rank: int  # triangular rows of the drop system, independent: bound = q^-rank
    vacuous: bool
    drop_count: int | None = None
    total: int | None = None


def degree_drop_probability(
    f: Polynomial,
    e: int,
    s: int,
    trials: int | None = None,
    seed: int = 0,
    budget: int | None = None,
) -> SZBoundReport:
    """Probability over uniform degree-<=e multipliers that deg(fP) < d+s.

    Exact mode counts the drops as q^(M - rank) of the q^M multipliers, by
    the rank of the map P -> the coefficients of fP from degree d+s up
    (rmcode.high_coefficient_maps; the zero product counts as a drop), and
    its budget counts that map's M * q^n cells; sampled mode is a seeded
    Monte Carlo run.  The report carries the counting bound computed from
    the leading monomial of f and the weaker extremal-monomial bound at the
    same degree.
    """
    q, n = f.q, f.n
    if f.is_zero():
        raise ZeroPolynomialError("degree-drop queries need a nonzero f")
    if not 0 <= s <= e:
        raise ValueError(f"need 0 <= s <= e, got s={s}, e={e}")
    if e > n * (q - 1):
        raise ValueError("multiplier degree exceeds the ring's top degree")
    d = int(f.degree)
    rank = combin.dominating_range_count(f.leading_monomial(), s, e)
    bound = Fraction(1, q**rank)
    m0 = combin.extremal_monomial(q, n, d)
    extremal = Fraction(1, q ** combin.dominating_range_count(m0, s, e))
    if d + s > n * (q - 1):
        # vacuous: every product has degree at most n(q-1) < d+s
        return SZBoundReport("exact", Fraction(1), None, bound, extremal, rank, True)
    if trials is None:
        mults = multiplier_code(q, n, e)
        M = mults.dimension
        check_budget(M * q**n, budget, "rank map cells")
        ftab = f.evaluate_all().values[None, :]
        rank_drop = rank_mod(high_coefficient_maps(q, n, e, ftab, d + s - 1)[0], q)
        drops, total = q ** (M - rank_drop), mults.size
        return SZBoundReport(
            "exact",
            Fraction(drops, total),
            None,
            bound,
            extremal,
            rank,
            False,
            drops,
            total,
        )

    def event(rng):
        p = random_polynomial(q, n, e, rng)
        return mul_reduced(f, p).degree < d + s

    est = estimate(event, trials, seed)
    return SZBoundReport("sampled", None, est, bound, extremal, rank, False)


def tight_witness(
    q: int, n: int, d: int, ordering: genbasis.FieldOrdering | None = None
) -> Polynomial:
    """The degree-d polynomial whose drop probability meets the extremal bound.

    With d = (q-1)u + v, it is the product of the level-(q-1) basis
    polynomial in the first u variables and the level-v one in the next;
    its support has exactly (q-v) * q^(n-u-1) points.
    """
    levels = combin.extremal_monomial(q, n, d).exponents
    if ordering is None:
        ordering = genbasis.FieldOrdering.natural(q)
    return genbasis.GeneralizedMonomial(levels, ordering).as_polynomial()


@dataclass(frozen=True)
class TightnessReport:
    q: int
    n: int
    d: int
    e: int
    s: int
    probability: Fraction
    target: Fraction
    equal: bool
    witness: Polynomial


def verify_tightness(
    q: int,
    n: int,
    d: int,
    e: int,
    s: int,
    ordering: genbasis.FieldOrdering | None = None,
    budget: int | None = None,
) -> TightnessReport:
    """Exact equality check of the witness's drop probability with the
    extremal-monomial bound."""
    witness = tight_witness(q, n, d, ordering)
    report = degree_drop_probability(witness, e, s, budget=budget)
    prob = report.probability
    target = report.extremal_bound
    return TightnessReport(q, n, d, e, s, prob, target, prob == target, witness)


# ---------------------------------------------------------------------------
# The homogeneous linear system behind the bound
# ---------------------------------------------------------------------------


def equation_matrix(
    f: Polynomial, e: int, s: int, all_rows: bool = False
) -> tuple[np.ndarray, list[Monomial], list[Monomial]]:
    """Coefficient matrix of the system "high product monomials vanish".

    Columns are indexed by the multiplier monomials of degree <= e.  With
    all_rows=False the rows are the unreduced products of LM(f) with its
    disjoint monomials at shifts s..e (the rows the triangular-submatrix
    argument certifies); with all_rows=True every monomial of degree at
    least deg(f)+s appears, which makes the system equivalent to the drop
    event itself.  Entries sum f's coefficients over reduced-product
    collisions, mirroring the reduced-versus-unreduced distinction.
    """
    q, n = f.q, f.n
    lm = f.leading_monomial()
    d = lm.degree
    cols = [Monomial.from_index(q, n, int(i)) for i in monomial_indices_up_to_degree(q, n, e)]
    if all_rows:
        rows = [
            m
            for m in combin.all_monomials(q, n)
            if m.degree >= d + s
        ]
    else:
        rows = [
            Monomial(q, dm.unreduced_exponents(lm))
            for dm in combin.disjoint_range(lm, s, e)
        ]
    row_pos = {m: i for i, m in enumerate(rows)}
    mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
    fterms = f.terms()
    for cj, mc in enumerate(cols):
        for mj, beta in fterms:
            prod = mc * mj  # reduced product
            ri = row_pos.get(prod)
            if ri is not None:
                mat[ri, cj] = (mat[ri, cj] + beta) % q
    return mat, rows, cols


def independent_equation_rank(
    f: Polynomial, e: int, s: int, all_rows: bool = False
) -> int:
    """Rank over F_q of the vanishing system; at least the disjoint-range
    size of LM(f) by the triangular submatrix."""
    mat, rows, _ = equation_matrix(f, e, s, all_rows)
    if not rows:
        return 0
    return rank_mod(mat, f.q)
