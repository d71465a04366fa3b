"""Independent routes to every value the benchmark's calls return.

Each check recomputes the expected value by a different route from the
oracle under test: closed forms, the rank of the linear map from a
multiplier to the high coefficients of its product (probability q^-rank),
ring-side products instead of pointwise table products, and this module's
own evaluation tables and codeword enumeration.  Sampled calls are checked
against a wide binomial band around the exact value, so a change of the
sampling stream that keeps the distribution is not scored as a failure.

Nothing here is timed; the worker runs these after the timed phase with
the tracer off.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from rmtest import genbasis, multtests as mt, sztest
from rmtest.algebra import Polynomial, mul_reduced

from plan import CALIBRATION_EVENTS

# A sampled count passes when it lies within this many binomial standard
# deviations (plus a small slack for p near 0 or 1) of its expectation.
BAND_SIGMAS = 6.0
BAND_SLACK = 3.0


# ---------------------------------------------------------------------------
# Own tables: monomial values, evaluation, degrees, rank
# ---------------------------------------------------------------------------


def _digits(q: int, n: int) -> np.ndarray:
    """(n, q^n) digit matrix in mixed-radix order, X_1 most significant."""
    return np.indices((q,) * n).reshape(n, -1)


def _degrees(q: int, n: int) -> np.ndarray:
    return _digits(q, n).sum(axis=0)


def degree(p: Polynomial) -> int:
    nz = np.flatnonzero(p.coeffs)
    return int(_degrees(p.q, p.n)[nz].max()) if len(nz) else -1


def monomial_values(q: int, n: int, mono_idx: np.ndarray) -> np.ndarray:
    """Rows: the value of each listed monomial at every point, computed as
    products of coordinate powers (0^0 = 1)."""
    pts = _digits(q, n)
    exps = _digits(q, n)[:, mono_idx]
    out = np.ones((len(mono_idx), q**n), dtype=np.int64)
    for i in range(n):
        powers = np.array(
            [[pow(int(x), int(a), q) for x in range(q)] for a in range(q)], dtype=np.int64
        )
        out = out * powers[exps[i]][:, pts[i]] % q
    return out


def table(p: Polynomial) -> np.ndarray:
    nz = np.flatnonzero(p.coeffs)
    if not len(nz):
        return np.zeros(p.q**p.n, dtype=np.int64)
    return p.coeffs[nz] @ monomial_values(p.q, p.n, nz) % p.q


def rank_mod_q(mat: np.ndarray, q: int) -> int:
    """Rank over F_q by row reduction vectorised across rows."""
    a = np.array(mat, dtype=np.int64) % q
    rank = 0
    for col in range(a.shape[1]):
        nz = np.flatnonzero(a[rank:, col])
        if not len(nz):
            continue
        piv = rank + nz[0]
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), q - 2, q) % q
        factors = a[:, col].copy()
        factors[rank] = 0
        a = (a - factors[:, None] * a[rank][None, :]) % q
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def all_vectors(q: int, k: int) -> np.ndarray:
    """Every vector of F_q^k, one per row."""
    return _digits(q, k).T if k else np.zeros((1, 0), dtype=np.int64)


def multipliers(q: int, n: int, e: int) -> list[Polynomial]:
    """Every polynomial of degree <= e."""
    idx = np.flatnonzero(_degrees(q, n) <= e)
    out = []
    for row in all_vectors(q, len(idx)):
        coeffs = np.zeros(q**n, dtype=np.int64)
        coeffs[idx] = row
        out.append(Polynomial(q, n, coeffs))
    return out


def codewords(q: int, n: int, d: int) -> np.ndarray:
    """Evaluation tables of every polynomial of degree <= d."""
    idx = np.flatnonzero(_degrees(q, n) <= d)
    return all_vectors(q, len(idx)) @ monomial_values(q, n, idx) % q


def distances_to_code(rows: np.ndarray, words: np.ndarray, chunk: int = 64) -> np.ndarray:
    out = np.empty(len(rows), dtype=np.int64)
    for s in range(0, len(rows), chunk):
        blk = rows[s : s + chunk]
        out[s : s + chunk] = (blk[:, None, :] != words[None, :, :]).sum(axis=2).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------


def prob_degree_at_most(g: Polynomial, e: int, bound: int) -> Fraction:
    """P over uniform P of degree <= e that deg(gP) <= bound, as q^-rank of
    the map from P's coefficients to gP's coefficients above ``bound``."""
    q, n = g.q, g.n
    if degree(g) < 0:
        return Fraction(1)
    degs = _degrees(q, n)
    high = degs > bound
    if not high.any():
        return Fraction(1)
    cols = []
    for m in np.flatnonzero(degs <= e):
        mono = np.zeros(q**n, dtype=np.int64)
        mono[m] = 1
        cols.append(mul_reduced(g, Polynomial(q, n, mono)).coeffs[high])
    return Fraction(1, q ** rank_mod_q(np.stack(cols, axis=1), q))


def acceptance(f: Polynomial, d: int, e: int, k: int) -> Fraction:
    """P[deg(f P_1 ... P_k) <= d + ek]: the outer k-1 multipliers are
    enumerated on the ring side and the last one is taken by rank."""
    if k == 1:
        return prob_degree_at_most(f, e, d + e)
    total = Fraction(0)
    ps = multipliers(f.q, f.n, e)
    for p in ps:
        total += acceptance(mul_reduced(f, p), d + e, e, k - 1)
    return total / len(ps)


def drop_probability(f: Polynomial, e: int, s: int) -> Fraction:
    d = degree(f)
    if d + s > f.n * (f.q - 1):
        return Fraction(1)
    return prob_degree_at_most(f, e, d + s - 1)


def corr_h_probability(f: Polynomial, d: int, e: int, h: mt.UnivariatePoly) -> Fraction:
    """Ring-side Horner composition of h with every multiplier."""
    ps = multipliers(f.q, f.n, e)
    bound = d + e * h.degree
    hits = sum(degree(mul_reduced(f, h.eval_poly(p))) <= bound for p in ps)
    return Fraction(hits, len(ps))


def distance(f: Polynomial, d: int) -> int:
    return int(distances_to_code(table(f)[None, :], codewords(f.q, f.n, d))[0])


def min_weight(q: int, n: int, d: int) -> int:
    """Classical minimum distance (q - b) q^(n - a - 1), d = a(q-1) + b."""
    a, b = divmod(d, q - 1)
    return (q - b) * q ** (n - a) // q


def robust_counts(f: Polynomial, d: int, e: int) -> dict:
    """Distance distribution of fP from the order-(d+e) code over all P."""
    q, n = f.q, f.n
    rows = np.stack([table(mul_reduced(f, p)) for p in multipliers(q, n, e)])
    dists = distances_to_code(rows, codewords(q, n, min(d + e, n * (q - 1))))
    values, counts = np.unique(dists, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def line_rejection(f: Polynomial) -> Fraction:
    """P[f is not constant on a uniform affine line]: the d = 0 AKKLR test,
    taken over every (nonzero direction, offset) pair."""
    q, n = f.q, f.n
    tab = table(f)
    pts = _digits(q, n).T  # point index -> digits
    powers = q ** np.arange(n - 1, -1, -1)
    dirs = pts[1:]
    rejected = 0
    for v in dirs:
        line = (pts[:, None, :] + np.arange(q)[None, :, None] * v[None, None, :]) % q
        vals = tab[line @ powers]
        rejected += int(np.count_nonzero((vals != vals[:, :1]).any(axis=1)))
    return Fraction(rejected, len(dirs) * len(pts))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def in_band(count: int, trials: int, p: Fraction) -> bool:
    mean = trials * float(p)
    sd = math.sqrt(trials * float(p) * (1 - float(p)))
    return abs(count - mean) <= BAND_SIGMAS * sd + BAND_SLACK


class Checker:
    """Memoizes the exact reference per instance, so each distinct input is
    solved once per run however many rounds call it."""

    def __init__(self):
        self._exact = {}

    def _memo(self, key, fn):
        if key not in self._exact:
            self._exact[key] = fn()
        return self._exact[key]

    def check(self, call, result) -> bool:
        fam = call.family
        if fam.startswith("suite."):
            return check_criterion(fam[len("suite."):], result)
        _, q, n, p = call.params
        p = dict(p)
        f = call.inputs.get("f")
        key = (call.params, None if f is None else f.coeffs.tobytes())
        memo = lambda fn: self._memo(key, fn)  # noqa: E731
        if call.is_sampled:
            return check_sampled(fam, q, n, p, f, result, memo)
        if fam == "distance":
            return check_distance(result, f, p["d"], memo(lambda: distance(f, p["d"])))
        return result == memo(lambda: exact_value(fam, q, n, p, f))


def exact_value(fam, q, n, p, f):
    if fam in ("accept_k1", "accept_k2"):
        return acceptance(f, p["d"], p["e"], p["k"])
    if fam == "degree_drop":
        return drop_probability(f, p["e"], p["s"])
    if fam == "corr_h":
        return corr_h_probability(f, p["d"], p["e"], mt.UnivariatePoly(q, p["h"]))
    if fam == "min_weight":
        return min_weight(q, n, p["d"])
    if fam == "robust":
        return robust_counts(f, p["d"], p["e"])
    if fam == "akklr":
        if p["d"] != 0:
            raise ValueError("the line route covers d = 0 only")
        return line_rejection(f)
    raise ValueError(fam)


def check_distance(result, f: Polynomial, d: int, expected: int) -> bool:
    """The reported distance is the minimum, and the reported nearest word
    is a codeword at that distance."""
    near = result.nearest
    return (
        result.distance == expected
        and degree(near) <= d
        and int(np.count_nonzero(table(near) != table(f))) == expected
    )


def check_sampled(fam, q, n, p, f, result, memo) -> bool:
    trials = p["trials"]
    if fam.startswith("calib_"):
        exact = Fraction(*CALIBRATION_EVENTS[fam][2])
        return in_band(result, trials, exact)
    if fam == "test_e_k":
        exact = memo(lambda: acceptance(f, p["d"], p["e"], p["k"]))
    elif fam == "corr_h":
        exact = memo(lambda: corr_h_probability(f, p["d"], p["e"], mt.UnivariatePoly(q, p["h"])))
    elif fam == "degree_drop":
        exact = memo(lambda: drop_probability(f, p["e"], p["s"]))
    elif fam == "akklr_test":
        exact = 1 - memo(lambda: line_rejection(f))
    elif fam == "character":
        member = degree(f) <= p["d"]
        if member:
            return tuple(result) == (trials,) + (0,) * (q - 1)
        # a non-member pairs uniformly with the dual code: every residue
        # is equally likely
        return sum(result) == trials and all(
            in_band(c, trials, Fraction(1, q)) for c in result
        )
    elif fam == "robust":
        exact = memo(lambda: robust_counts(f, p["d"], p["e"]))
        total = sum(exact.values())
        return (
            sum(result.values()) == trials
            and set(result) <= set(exact)
            and all(
                in_band(result.get(v, 0), trials, Fraction(c, total))
                for v, c in exact.items()
            )
        )
    else:
        raise ValueError(fam)
    return in_band(result, trials, exact)


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

# Loop sizes fixed by each criterion's definition, with their closed forms.
BATTERY_COUNTS = {
    # 625 (monomial, shift) pairs over q in {2,3}, n <= 4
    "dominating_sets": {"set_checks": 625, "minimality_failures": []},
    # q^q univariate polys times q nodes for q in {2,3}, plus 500 * 5 at q=5;
    # 3 fields * 350 reassemblies; 3 fields * (60 + 60 + 25) products
    "basis_structure": {
        "basis_property_checks": 2 * 2**2 + 3 * 3**3 + 500 * 5,
        "reassembly_checks": 3 * 350,
        "product_component_checks": 3 * (60 + 60 + 25),
        "structure_constants_all_orderings_q3": True,
    },
    "multilinear": {"systems": 500, "chain_violations": 0},
    # every f over (2,2) at 3 orders, every f over (3,1) at 3 orders
    "character": {"checked": 3 * 2**4 + 3 * 3**3},
    # (tables) * (e in {0,1}) * (a, b) pairs; two-step: q=3, 18 shapes
    "squaring": {
        "base_case_checks": 2 * (2 * 2**2 + 2 * 2**4)
        + 2 * 6 * (3**3 + 3**9),
        "two_step_checks": 2 * 18 * (3**3 + 3**9),
    },
    # every f over (2,3) at two radii
    "robust_reduction": {"checked": 2 * 2**8, "violations": 0},
}


def check_criterion(label: str, rep: dict) -> bool:
    if rep.get("passed") is not True:
        return False
    for key, value in BATTERY_COUNTS.get(label, {}).items():
        if rep.get(key) != value:
            return False
    if label == "min_support":
        cases = rep["cases"]
        grid = [(q, n, d) for q in (2, 3) for n in (1, 2, 3) for d in range(n * (q - 1) + 1)]
        return [(c["q"], c["n"], c["d"]) for c in cases] == grid and all(
            c["min_support"] == min_weight(c["q"], c["n"], c["d"]) for c in cases
        )
    if label == "drop_bound":
        # nonzero f of degree <= cap times the (e, s) pairs of e in {0,1,2}
        want = {(2, 2): 2**4 - 1, (3, 2): 3**8 - 1}
        return all(
            s["violations"] == 0 and s["checked"] == 6 * want[(s["q"], s["n"])]
            for s in rep["sweeps"]
        )
    if label == "tightness":
        ok = rep["instances"] == 30
        for c in rep["cases"]:
            witness = sztest.tight_witness(
                c["q"], c["n"], c["d"], genbasis.FieldOrdering(c["q"], tuple(c["ordering"]))
            )
            expected = drop_probability(witness, c["e"], c["s"])
            ok &= c["equal"] and Fraction(c["probability"]) == expected
        return ok
    if label == "hard_instance":
        f = mt.hard_instance(2, 3, 1)
        return (
            Fraction(rep["floor"]) == Fraction(1, 4)
            and Fraction(rep["p_at_order_2"]) == 1
            and rep["order_2_vacuous"] is True
            and Fraction(rep["p_at_order_1"]) == acceptance(f, 1, 1, 1)
            and Fraction(rep["subspace_vanish_probability"]) == Fraction(1, 4)
            and rep["distance_from_order_1"] == distance(f, 1)
        )
    return True
