"""Workload plans: the fixed instance mix of each workload and the inputs
drawn for it from the workload seed.

A plan is a list of rounds; every round makes one call per instance
family, in the same order, so a slow phase of the host hits every family
alike.  The families and their parameters depend only on the workload;
the seed draws the input polynomials and the sampler seeds, and the
program receives only those generated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from rmtest import algebra as alg, estimator, multtests as mt, rmcode, suite, sztest
from rmtest.algebra import Polynomial
from rmtest.rmcode import CodeParams

WORKLOADS = ("exact-wide", "sampled", "battery")

# Seconds per round on a 2-vCPU Intel Xeon VM when its host is in a fast
# phase; a run makes --seconds / NOMINAL_ROUND_S rounds.  Fixing the work
# (not the time) keeps the call count, and so the tail percentile, the same
# in every run.
NOMINAL_ROUND_S = {"exact-wide": 3.1, "sampled": 0.53, "battery": 6.2}


@dataclass
class Call:
    """One call into rmtest's public API.

    ``run`` takes no arguments and returns the value that ``check``
    (see reference.py) compares against an independent route.  ``items``
    is the work the call completes: sampled trials, enumerated multipliers,
    codewords or subspaces, or one criterion.
    """

    family: str
    params: tuple
    inputs: dict
    items: int
    run: Callable[[], Any] = field(repr=False)
    is_sampled: bool = False


def rounds_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_ROUND_S[workload]))


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *tags])))


def _digit_degrees(q: int, n: int) -> np.ndarray:
    """Total degree of every monomial in mixed-radix index order."""
    digits = np.indices((q,) * n).reshape(n, -1)
    return digits.sum(axis=0)


def random_poly(q: int, n: int, degree: int, rng: np.random.Generator) -> Polynomial:
    """Uniform coefficients on every monomial of degree <= ``degree``, with
    one top-degree coefficient forced nonzero so the degree is exact."""
    degs = _digit_degrees(q, n)
    coeffs = np.where(degs <= degree, rng.integers(0, q, size=q**n), 0)
    top = np.flatnonzero(degs == degree)
    coeffs[top[rng.integers(len(top))]] = rng.integers(1, q)
    return Polynomial(q, n, coeffs)


def subspace_indicator(
    q: int, n: int, codim: int, low_degree: int, rng: np.random.Generator
) -> Polynomial:
    """Indicator of {x_i = a_i for i in S} (|S| = codim, S and a drawn) plus
    a random polynomial of degree <= low_degree.  Acceptance events of the
    multiplier tests sit far from 0 and 1 on these, so sampled counts are
    checked with power."""
    coords = set(rng.choice(n, size=codim, replace=False).tolist())
    coeffs = np.ones(1, dtype=np.int64)
    for i in range(n):
        factor = np.zeros(q, dtype=np.int64)
        if i in coords:
            # 1 - (x - a)^(q-1), expanded by the binomial theorem
            a = int(rng.integers(q))
            for j in range(q):
                factor[j] = -math.comb(q - 1, j) * pow(-a, q - 1 - j, q)
            factor[0] += 1
        else:
            factor[0] = 1
        coeffs = np.kron(coeffs, factor % q)
    low = random_poly(q, n, low_degree, rng) if low_degree >= 0 else None
    if low is not None:
        coeffs = (coeffs + low.coeffs) % q
    return Polynomial(q, n, coeffs)


# ---------------------------------------------------------------------------
# exact-wide
# ---------------------------------------------------------------------------

# (family, oracle, q, n, extra params); q^n runs from 125 to 1024.
EXACT_FAMILIES = (
    ("accept_k1", 2, 10, dict(d=3, e=1, k=1)),
    ("accept_k1", 2, 8, dict(d=2, e=1, k=1)),
    ("accept_k1", 3, 5, dict(d=2, e=1, k=1)),
    ("accept_k1", 5, 3, dict(d=2, e=1, k=1)),
    ("accept_k2", 2, 6, dict(d=1, e=1, k=2)),
    ("accept_k2", 3, 4, dict(d=1, e=1, k=2)),
    ("degree_drop", 2, 9, dict(e=1, s=1, fdeg=2)),
    ("degree_drop", 3, 5, dict(e=1, s=1, fdeg=3)),
    ("corr_h", 3, 5, dict(d=2, e=1, h=(0, 0, 1))),
    ("corr_h", 5, 3, dict(d=2, e=1, h=(1, 2, 1))),
    ("distance", 2, 10, dict(d=1)),
    ("distance", 3, 6, dict(d=1)),
    ("distance", 5, 3, dict(d=1)),
    ("min_weight", 2, 10, dict(d=1)),
    ("min_weight", 3, 6, dict(d=1)),
    ("min_weight", 5, 4, dict(d=1)),
    ("robust", 2, 7, dict(d=0, e=1)),
    ("robust", 5, 3, dict(d=0, e=1)),
    ("akklr", 2, 10, dict(d=0)),
    ("akklr", 3, 5, dict(d=0)),
    ("akklr", 5, 3, dict(d=0)),
)


def _exact_call(index: int, family: str, q: int, n: int, p: dict, seed: int) -> Call:
    rng = _rng(seed, 1, index)
    params = (family, q, n, tuple(sorted(p.items())))
    if family in ("accept_k1", "accept_k2"):
        f = random_poly(q, n, p["d"] + 1, rng)
        cfg = mt.TestConfig(CodeParams(q, n, p["d"]), p["e"], p["k"])
        items = (q ** _monomial_count(q, n, p["e"])) ** p["k"]
        return Call(family, params, {"f": f}, items,
                    lambda: mt.exact_acceptance_probability(f, cfg))
    if family == "degree_drop":
        f = random_poly(q, n, p["fdeg"], rng)
        items = q ** _monomial_count(q, n, p["e"])
        return Call(family, params, {"f": f}, items,
                    lambda: sztest.degree_drop_probability(f, p["e"], p["s"]).probability)
    if family == "corr_h":
        f = random_poly(q, n, p["d"] + 1, rng)
        cfg = mt.TestConfig(CodeParams(q, n, p["d"]), p["e"])
        h = mt.UnivariatePoly(q, p["h"])
        items = q ** _monomial_count(q, n, p["e"])
        return Call(family, params, {"f": f}, items,
                    lambda: mt.exact_corr_h_probability(f, cfg, h))
    if family == "distance":
        f = random_poly(q, n, min(n * (q - 1), p["d"] + 2), rng)
        code = CodeParams(q, n, p["d"])
        return Call(family, params, {"f": f}, code.size,
                    lambda: rmcode.distance(f, code))
    if family == "min_weight":
        code = CodeParams(q, n, p["d"])
        return Call(family, params, {}, code.size, lambda: rmcode.min_weight(code))
    if family == "robust":
        f = random_poly(q, n, p["d"] + 2, rng)
        cfg = mt.TestConfig(CodeParams(q, n, p["d"]), p["e"])
        items = q ** _monomial_count(q, n, p["e"])
        return Call(family, params, {"f": f}, items,
                    lambda: mt.robust_distance_experiment(f, cfg).distance_counts)
    if family == "akklr":
        f = random_poly(q, n, p["d"] + 2, rng)
        code = CodeParams(q, n, p["d"])
        items = q ** ((p["d"] + 1) * n)
        return Call(family, params, {"f": f}, items,
                    lambda: mt.akklr_exact_rejection_probability(f, code))
    raise ValueError(family)


def _monomial_count(q: int, n: int, e: int) -> int:
    return int(np.count_nonzero(_digit_degrees(q, n) <= e))


# ---------------------------------------------------------------------------
# sampled
# ---------------------------------------------------------------------------


def _event_drop_half(f, rng):
    p = alg.random_polynomial(2, 2, 1, rng)
    return alg.mul_reduced(f, p).degree < 2


def _event_hard_accept(f, rng):
    return mt.test_e_k(f, mt.TestConfig(CodeParams(2, 3, 1), e=1, k=1), rng)


def _event_vanish_quarter(f, rng):
    tab = alg.random_polynomial(2, 3, 1, rng).evaluate_all().values
    return bool(tab[0] == 0 and tab[1] == 0)


# The suite's three calibration events: (event, its fixed input, exact value)
CALIBRATION_EVENTS = {
    "calib_drop_half": (_event_drop_half, lambda: Polynomial.variable(2, 2, 0), (1, 2)),
    "calib_hard_accept": (_event_hard_accept, lambda: mt.hard_instance(2, 3, 1), (1, 2)),
    "calib_vanish_quarter": (_event_vanish_quarter, lambda: None, (1, 4)),
}

SAMPLED_FAMILIES = (
    ("calib_drop_half", 2, 2, dict(trials=1000)),
    ("calib_hard_accept", 2, 3, dict(trials=1000)),
    ("calib_vanish_quarter", 2, 3, dict(trials=1000)),
    ("test_e_k", 2, 8, dict(d=2, e=1, k=2, codim=3, trials=300)),
    ("corr_h", 3, 5, dict(d=1, e=1, h=(0, 0, 1), codim=2, trials=300)),
    ("degree_drop", 2, 10, dict(e=1, s=1, codim=3, trials=300)),
    ("akklr_test", 3, 4, dict(d=0, codim=1, trials=300)),
    ("character", 2, 8, dict(d=2, codim=2, trials=1000)),
    ("robust", 2, 7, dict(d=0, e=1, codim=2, trials=60)),
)


def _sampled_inputs(index: int, family: str, q: int, n: int, p: dict, seed: int) -> dict:
    """Input polynomial of a sampled family: fixed for the whole run."""
    if family.startswith("calib_"):
        return {"f": CALIBRATION_EVENTS[family][1]()}
    rng = _rng(seed, 2, index)
    low = p.get("d", p.get("fdeg", 0))
    if family == "degree_drop":
        low = 0
    if family == "character" and rng.integers(2):
        # half the seeds draw a code member, whose sampled average is exactly 1
        return {"f": random_poly(q, n, p["d"], rng)}
    return {"f": subspace_indicator(q, n, p["codim"], low, rng)}


def _sampled_call(index, family, q, n, p, inputs, sampler_seed) -> Call:
    params = (family, q, n, tuple(sorted(p.items())))
    trials = p["trials"]
    f = inputs.get("f")
    ins = dict(inputs, seed=sampler_seed)
    if family.startswith("calib_"):
        event = CALIBRATION_EVENTS[family][0]
        run = lambda: estimator.estimate(  # noqa: E731
            lambda rng: event(f, rng), trials, sampler_seed
        ).successes
    elif family == "test_e_k":
        cfg = mt.TestConfig(CodeParams(q, n, p["d"]), p["e"], p["k"])
        run = lambda: estimator.estimate(  # noqa: E731
            lambda rng: mt.test_e_k(f, cfg, rng), trials, sampler_seed
        ).successes
    elif family == "corr_h":
        cfg = mt.TestConfig(CodeParams(q, n, p["d"]), p["e"])
        h = mt.UnivariatePoly(q, p["h"])
        run = lambda: estimator.estimate(  # noqa: E731
            lambda rng: mt.corr_h(f, cfg, h, rng), trials, sampler_seed
        ).successes
    elif family == "degree_drop":
        run = lambda: sztest.degree_drop_probability(  # noqa: E731
            f, p["e"], p["s"], trials=trials, seed=sampler_seed
        ).estimate.successes
    elif family == "akklr_test":
        code = CodeParams(q, n, p["d"])
        run = lambda: estimator.estimate(  # noqa: E731
            lambda rng: mt.akklr_test(f, code, rng), trials, sampler_seed
        ).successes
    elif family == "character":
        code = CodeParams(q, n, p["d"])
        run = lambda: rmcode.character_membership(  # noqa: E731
            f, code, trials=trials, seed=sampler_seed
        ).counts
    elif family == "robust":
        cfg = mt.TestConfig(CodeParams(q, n, p["d"]), p["e"])
        run = lambda: mt.robust_distance_experiment(  # noqa: E731
            f, cfg, trials=trials, seed=sampler_seed
        ).distance_counts
    else:
        raise ValueError(family)
    return Call(family, params, ins, trials, run, is_sampled=True)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

BATTERY_CRITERIA = tuple(label for label, _ in suite.CRITERIA if label != "calibration")


def _battery_call(label: str, seed: int) -> Call:
    fn = dict(suite.CRITERIA)[label]
    return Call(f"suite.{label}", (label,), {"seed": seed}, 1, lambda: fn(seed, None))


# ---------------------------------------------------------------------------


def table_sizes(workload: str) -> list[tuple[int, int]]:
    """(q, n) pairs whose transform tables set-up builds before timing."""
    if workload == "exact-wide":
        fams = EXACT_FAMILIES
    elif workload == "sampled":
        fams = SAMPLED_FAMILIES
    else:
        return [(q, n) for q in (2, 3, 5) for n in range(1, 5) if q**n <= 81]
    return sorted({(q, n) for _, q, n, _ in fams})


def build(workload: str, seed: int, rounds: int) -> list[list[Call]]:
    """The workload's calls, as ``rounds`` rounds of one call per family."""
    if workload == "exact-wide":
        calls = [
            _exact_call(i, fam, q, n, p, seed)
            for i, (fam, q, n, p) in enumerate(EXACT_FAMILIES)
        ]
        return [calls for _ in range(rounds)]
    if workload == "sampled":
        inputs = [
            _sampled_inputs(i, fam, q, n, p, seed)
            for i, (fam, q, n, p) in enumerate(SAMPLED_FAMILIES)
        ]
        seeds = _rng(seed, 3).integers(0, 2**62, size=(rounds, len(SAMPLED_FAMILIES)))
        return [
            [
                _sampled_call(i, fam, q, n, p, inputs[i], int(seeds[r, i]))
                for i, (fam, q, n, p) in enumerate(SAMPLED_FAMILIES)
            ]
            for r in range(rounds)
        ]
    if workload == "battery":
        calls = [_battery_call(label, seed) for label in BATTERY_CRITERIA]
        return [calls for _ in range(rounds)]
    raise ValueError(f"unknown workload {workload!r}")
