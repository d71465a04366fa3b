"""Monomial counting and the dominating / disjoint monomial sets.

For a reduced monomial m of degree d, the dominating set at shift s holds
the monomials of degree d+s that dominate m coordinatewise (every exponent
at least m's and below q); the disjoint set at s holds the degree-s
monomials whose product with m needs no reduction.  u -> m*u maps the
disjoint set at s one to one onto the dominating set at s, so one count
serves both; the two enumeration functions stay separate routes.
Enumeration is by odometer over exponent vectors; instance sizes are tiny
and exactness matters more than asymptotics.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .algebra import Monomial, ensure_prime


@functools.lru_cache(maxsize=None)
def monomial_count(q: int, n: int, d: int) -> int:
    """Number of monomials in n variables, individual degree < q, total <= d.

    Also the dimension of the degree-<=d code.  Defined as 1 for n < 0 and
    0 for d < 0 (with n >= 0).
    """
    ensure_prime(q)
    if n < 0:
        return 1
    if d < 0:
        return 0
    # DP over variables: ways[j] = #vectors with coordinate sum exactly j
    ways = np.zeros(d + 1, dtype=object)
    ways[0] = 1
    step = np.ones(min(q, d + 1), dtype=object)
    for _ in range(n):
        ways = np.convolve(ways, step)[: d + 1]
    return int(ways.sum())


def gaussian_binomial(q: int, n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def extremal_monomial(q: int, n: int, d: int) -> Monomial:
    """The degree-d monomial packing q-1 into the earliest variables.

    Writing d = (q-1)u + v with 0 <= v < q-1, this is
    X_1^{q-1} ... X_u^{q-1} X_{u+1}^v.  Among monomials of degree exactly d
    it minimizes the dominating-set sizes at every shift.
    """
    if not 0 <= d <= n * (q - 1):
        raise ValueError(f"degree {d} outside [0, {n * (q - 1)}]")
    u, v = divmod(d, q - 1)
    exps = [q - 1] * u + ([v] if v else []) + [0] * (n - u - (1 if v else 0))
    return Monomial(q, tuple(exps))


def dominating_monomials(m: Monomial, s: int) -> tuple[Monomial, ...]:
    """All monomials of degree deg(m)+s dominating m coordinatewise."""
    if s < 0:
        raise ValueError("shift must be nonnegative")
    q, target = m.q, m.degree + s
    out = []
    for exps in _bounded_vectors(tuple(m.exponents), (q - 1,) * m.n, target):
        out.append(Monomial(q, exps))
    out.sort(key=Monomial.sort_key)
    return tuple(out)


def disjoint_monomials(m: Monomial, s: int) -> tuple[Monomial, ...]:
    """All degree-s monomials disjoint from m (per-variable sums below q)."""
    if s < 0:
        raise ValueError("shift must be nonnegative")
    q = m.q
    highs = tuple(q - 1 - e for e in m.exponents)
    out = [Monomial(q, exps) for exps in _bounded_vectors((0,) * m.n, highs, s)]
    out.sort(key=Monomial.sort_key)
    return tuple(out)


def _bounded_vectors(lows, highs, total):
    """Exponent vectors with lows <= v <= highs (coordinatewise) summing to total."""
    n = len(lows)

    def rec(j, remaining):
        if j == n:
            if remaining == 0:
                yield ()
            return
        # prune on what the remaining coordinates can still absorb
        tail_high = sum(highs[j + 1 :])
        tail_low = sum(lows[j + 1 :])
        lo = max(lows[j], remaining - tail_high)
        hi = min(highs[j], remaining - tail_low)
        for e in range(lo, hi + 1):
            for rest in rec(j + 1, remaining - e):
                yield (e,) + rest

    yield from rec(0, total)


def dominating_range(m: Monomial, s: int, e: int) -> tuple[Monomial, ...]:
    """Union of the dominating sets over shifts s..e (disjoint degrees)."""
    return tuple(
        itertools.chain.from_iterable(dominating_monomials(m, t) for t in range(s, e + 1))
    )


def disjoint_range(m: Monomial, s: int, e: int) -> tuple[Monomial, ...]:
    return tuple(
        itertools.chain.from_iterable(disjoint_monomials(m, t) for t in range(s, e + 1))
    )


def disjoint_profile(m: Monomial) -> np.ndarray:
    """profile[t] = number of degree-t monomials disjoint from m.

    Coefficient extraction from prod_j (1 + x + ... + x^{q-1-e_j}).  It is
    also the dominating-set size at shift t: u -> m*u maps the disjoint set
    at t one to one onto the dominating set at t.
    """
    q = m.q
    poly = np.ones(1, dtype=np.int64)
    for e in m.exponents:
        poly = np.convolve(poly, np.ones(q - e, dtype=np.int64))
    return poly


def dominating_count(m: Monomial, s: int) -> int:
    """Size of the dominating set (equally, the disjoint set) at shift s."""
    prof = disjoint_profile(m)
    return int(prof[s]) if 0 <= s < len(prof) else 0


def dominating_range_count(m: Monomial, s: int, e: int) -> int:
    """Size of the union of dominating sets over shifts s..e."""
    prof = disjoint_profile(m)
    lo, hi = max(s, 0), min(e, len(prof) - 1)
    return int(prof[lo : hi + 1].sum()) if lo <= hi else 0


def all_monomials(q: int, n: int, degree: int | None = None) -> tuple[Monomial, ...]:
    """Every reduced monomial, optionally filtered to one total degree."""
    out = []
    for exps in itertools.product(range(q), repeat=n):
        if degree is None or sum(exps) == degree:
            out.append(Monomial(q, exps))
    return tuple(out)
