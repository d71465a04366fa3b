"""The acceptance battery: every finite-parameter claim checked at desk
scale, exhaustively where enumeration fits and with seeded sampling
elsewhere.  Each criterion returns a JSON-ready report; the whole battery
is deterministic given its seed.
"""

from __future__ import annotations

import itertools as it
import json
import sys
from fractions import Fraction

import numpy as np

from . import algebra as alg
from . import combin, genbasis, multtests as mt, rmcode, setmultilin as sml, sztest
from .algebra import Monomial, Polynomial
from .estimator import estimate, get_budget, mix64, trial_rng
from .rmcode import CodeParams


# ---------------------------------------------------------------------------


def criterion_min_support(budget: int | None = None) -> dict:
    """Minimum support over nonzero degree-<=d polynomials equals
    q^(n-a-1)(q-b) for q in {2,3}, n <= 3, every d."""
    cases = []
    ok = True
    for q in (2, 3):
        for n in (1, 2, 3):
            for d in range(0, n * (q - 1) + 1):
                a, b = divmod(d, q - 1)
                expected = (q - b) * q ** (n - a) // q
                got = rmcode.min_weight(CodeParams(q, n, d), budget)
                ok &= got == expected
                cases.append(
                    {"q": q, "n": n, "d": d, "expected": expected, "min_support": got}
                )
    return {"name": "min_support_is_sz_value", "passed": ok, "cases": cases}


def criterion_dominating_sets() -> dict:
    """Set sizes agree between the two enumerations, counts match the
    materialized sets, and the extremal monomial minimizes every
    dominating-set size (single shifts and ranges) for q in {2,3}, n <= 4."""
    ok = True
    checked = 0
    min_fail = []
    for q in (2, 3):
        for n in (1, 2, 3, 4):
            top = n * (q - 1)
            monos = combin.all_monomials(q, n)
            for m in monos:
                d = m.degree
                for s in range(0, top - d + 1):
                    U = combin.dominating_monomials(m, s)
                    D = combin.disjoint_monomials(m, s)
                    ok &= len(U) == len(D)
                    ok &= len(U) == combin.dominating_count(m, s)
                    ok &= len(D) == combin.dominating_count(m, s)
                    checked += 1
            for d in range(0, top + 1):
                m0 = combin.extremal_monomial(q, n, d)
                degree_class = [m for m in monos if m.degree == d]
                for s in range(0, top - d + 1):
                    lo = combin.dominating_count(m0, s)
                    if any(combin.dominating_count(m, s) < lo for m in degree_class):
                        ok = False
                        min_fail.append({"q": q, "n": n, "d": d, "s": s})
                    for e in range(s, top - d + 1):
                        lo_r = combin.dominating_range_count(m0, s, e)
                        if any(
                            combin.dominating_range_count(m, s, e) < lo_r
                            for m in degree_class
                        ):
                            ok = False
                            min_fail.append({"q": q, "n": n, "d": d, "s": s, "e": e})
    return {
        "name": "dominating_sets_and_extremal_minimality",
        "passed": ok,
        "set_checks": checked,
        "minimality_failures": min_fail,
    }


def _drop_bound_sweep(q: int, n: int, f_degree_cap: int, e_values) -> dict:
    """Exact degree-drop probabilities vs the leading-monomial bound for
    every nonzero f with degree <= cap, fully vectorized."""
    nq = n * (q - 1)
    K = q**n
    fidx = alg.monomial_indices_up_to_degree(q, n, f_degree_cap)
    rows = np.concatenate(list(alg.coefficient_blocks(q, len(fidx))), axis=0)
    rows = rows[rows.any(axis=1)]  # the nonzero f
    fcoeffs = np.zeros((len(rows), K), dtype=np.int64)
    fcoeffs[:, fidx] = rows
    ftables = alg.batch_evaluate(q, n, fcoeffs)
    fdegs = alg.batch_degrees(q, n, fcoeffs)
    deg_tab = alg.degree_table(q, n)
    score = (fcoeffs != 0) * ((deg_tab + 1) * K + np.arange(K) + 1)
    lm_code = (score.max(axis=1) - 1) % K  # LM monomial index

    violations = 0
    checked = 0
    equalities = 0
    for e in e_values:
        total = CodeParams(q, n, e).size
        cum = np.cumsum(rmcode.product_degree_counts(q, n, e, ftables), axis=1)
        for s in range(0, e + 1):
            bound_pow = np.array(
                [
                    combin.dominating_range_count(Monomial.from_index(q, n, mi), s, e)
                    for mi in range(K)
                ],
                dtype=np.int64,
            )
            # drop means deg < thr; cum[:, t + 1] counts the products of
            # degree <= t, the zero product included
            thr = fdegs + s
            drops = cum[np.arange(len(rows)), np.minimum(thr, nq + 1)]
            scaled = drops * np.power(q, bound_pow[lm_code], dtype=object)
            violations += int(np.count_nonzero(scaled > total))
            equalities += int(np.count_nonzero(scaled == total))
            checked += len(rows)
    return {
        "q": q,
        "n": n,
        "degree_cap": f_degree_cap,
        "e_values": list(e_values),
        "checked": checked,
        "violations": violations,
        "bound_met_with_equality": equalities,
    }


def criterion_drop_bound() -> dict:
    """Exact drop probability never exceeds the counting bound for every
    nonzero f over (2,2) and every nonzero f of degree <= 3 over (3,2)."""
    sweeps = [
        _drop_bound_sweep(2, 2, 2, (0, 1, 2)),
        _drop_bound_sweep(3, 2, 3, (0, 1, 2)),
    ]
    ok = all(s["violations"] == 0 for s in sweeps)
    return {"name": "degree_drop_bound", "passed": ok, "sweeps": sweeps}


TIGHTNESS_INSTANCES = (
    (2, 2, 1, 1, 1),
    (2, 2, 1, 1, 0),
    (2, 2, 2, 1, 0),
    (2, 2, 0, 0, 0),
    (2, 2, 1, 2, 0),
    (2, 3, 1, 1, 1),
    (2, 3, 2, 1, 1),
    (3, 1, 1, 1, 1),
    (3, 1, 1, 2, 1),
    (3, 2, 1, 1, 1),
    (3, 2, 2, 1, 0),
    (3, 2, 2, 1, 1),
    (3, 2, 3, 1, 1),
    (3, 2, 4, 1, 0),
    (5, 1, 2, 1, 1),
)


def criterion_tightness() -> dict:
    """The basis-product witness achieves the extremal bound exactly on
    every instance, under the natural and the reversed orderings."""
    cases = []
    ok = True
    # the support size of every witness matches the classical tight value
    support_ok = True
    for q, n, d, e, s in TIGHTNESS_INSTANCES:
        u, v = divmod(d, q - 1)
        for ordering in (
            genbasis.FieldOrdering.natural(q),
            genbasis.FieldOrdering.reversed_natural(q),
        ):
            rep = sztest.verify_tightness(q, n, d, e, s, ordering)
            ok &= rep.equal
            support = rep.witness.evaluate_all().support_size()
            support_ok &= support == (q - v) * q ** (n - u) // q
            cases.append(
                {
                    "q": q,
                    "n": n,
                    "d": d,
                    "e": e,
                    "s": s,
                    "ordering": list(ordering.xi),
                    "probability": str(rep.probability),
                    "target": str(rep.target),
                    "equal": rep.equal,
                }
            )
    return {
        "name": "tight_witness_equality",
        "passed": ok and support_ok,
        "instances": len(cases),
        "support_sizes_match": support_ok,
        "cases": cases,
    }


def criterion_hard_instance() -> dict:
    """The subspace-indicator instance at q=2, n=3, L=1, e=1, k=1 accepts
    with probability at least 1/4 at order 2 (as stated; there the test is
    vacuous because the instance lies in the code), stays at 1/2 >= 1/4 at
    the nonvacuous order 1, and the multiplier vanishes on the subspace
    with probability exactly 1/4."""
    q, n, L, e = 2, 3, 1, 1
    f = mt.hard_instance(q, n, L)
    floor_bound = Fraction(1, q ** combin.monomial_count(q, L, e))
    cfg_stated = mt.TestConfig(CodeParams(q, n, 2), e=e, k=1)
    p_stated = mt.exact_acceptance_probability(f, cfg_stated)
    cfg_far = mt.TestConfig(CodeParams(q, n, 1), e=e, k=1)
    p_far = mt.exact_acceptance_probability(f, cfg_far)
    p_vanish = mt.subspace_vanishing_probability(q, n, L, e)
    dist = rmcode.distance(f, CodeParams(q, n, 1)).distance
    ok = (
        p_stated >= floor_bound
        and cfg_stated.vacuous
        and p_far >= floor_bound
        and p_vanish == floor_bound
        and dist == q**L
    )
    return {
        "name": "hard_instance_floor",
        "passed": ok,
        "floor": str(floor_bound),
        "p_at_order_2": str(p_stated),
        "order_2_vacuous": cfg_stated.vacuous,
        "p_at_order_1": str(p_far),
        "subspace_vanish_probability": str(p_vanish),
        "distance_from_order_1": dist,
    }


def criterion_basis_structure(seed: int) -> dict:
    """Basis product triangularity: the pointwise-value expansion of
    products with basis polynomials, the reassembly identity of the
    triangular decomposition, and the nonzero-diagonal product tensor."""
    # basis property: f*b_i has no components below level i and its level-i
    # component is f evaluated at the i-th node, for every f over (2,1) and
    # (3,1) and 500 random f over (5,1)
    rng = trial_rng(seed, 6001)
    cases = [(q, list(alg.all_polynomials(q, 1))) for q in (2, 3)]
    cases.append((5, [alg.random_polynomial(5, 1, 4, rng) for _ in range(500)]))
    prop_checked = 0
    ok = True
    for q, fs in cases:
        ordering = genbasis.FieldOrdering.natural(q)
        basis = genbasis.basis_polys(ordering)
        for f in fs:
            values = f.evaluate_all().values
            for i, b in enumerate(basis):
                gen = genbasis.to_generalized(alg.mul_reduced(f, b), ordering)
                ok &= not gen[:i].any()
                ok &= int(gen[i]) == int(values[ordering.xi[i]])
                prop_checked += 1

    # triangular decomposition reassembly
    ut_checked = 0
    rng = trial_rng(seed, 6002)
    for q in (2, 3, 5):
        ordering = genbasis.FieldOrdering.natural(q)
        for _ in range(350):
            f = alg.random_polynomial(q, 2, 2 * (q - 1), rng)
            p = alg.random_polynomial(q, 2, 2 * (q - 1), rng)
            var = int(rng.integers(0, 2))
            dec = genbasis.ut_decompose(f, p, var, ordering)
            ok &= genbasis.reassemble(dec) == alg.mul_reduced(f, p)
            ut_checked += 1

    # product components: verification is internal, diagonal nonzero asserted
    pc_checked = 0
    rng = trial_rng(seed, 6003)
    for q in (2, 3, 5):
        ordering = genbasis.FieldOrdering.natural(q)
        for k in (1, 2, 3):
            runs = 60 if k < 3 else 25
            for _ in range(runs):
                ps = [alg.random_polynomial(q, 2, q - 1, rng) for _ in range(k)]
                genbasis.product_components(ps, int(rng.integers(0, 2)), ordering)
                pc_checked += 1

    # structure constants: triangular with the prescribed diagonal, for
    # every ordering of the three-element field
    sc_ok = True
    for perm in it.permutations(range(3)):
        ordering = genbasis.FieldOrdering(3, perm)
        gamma = genbasis.structure_constants(ordering)
        basis = genbasis.basis_polys(ordering)
        for r in range(3):
            sc_ok &= int(gamma[r, r, r]) == basis[r].evaluate([ordering.xi[r]]) != 0
            for i in range(3):
                for j in range(3):
                    if r < max(i, j):
                        sc_ok &= int(gamma[r, i, j]) == 0
    ok &= sc_ok
    return {
        "name": "basis_structure",
        "passed": ok,
        "basis_property_checks": prop_checked,
        "reassembly_checks": ut_checked,
        "product_component_checks": pc_checked,
        "structure_constants_all_orderings_q3": sc_ok,
    }


def criterion_multilinear_domination(seed: int) -> dict:
    """500 random partitioned systems: joint vanishing never beats the
    set-multilinear parts, and the block-by-block chain is monotone."""
    rng = trial_rng(seed, 7001)
    systems = 0
    chain_violations = 0
    while systems < 500:
        q = int(rng.choice([2, 3]))
        k = int(rng.integers(1, 4))
        sizes = []
        for _ in range(k):
            sizes.append(int(rng.integers(1, 4)))
        if sum(sizes) > 8:
            continue
        part = sml.Partition.from_sizes(q, sizes)
        system = sml.random_system(part, int(rng.integers(1, 4)), rng)
        # raises if the domination fails
        sml.system_vanishing_probability(system)
        chain = sml.chain_probabilities(system)
        if any(chain[i] > chain[i + 1] for i in range(len(chain) - 1)):
            chain_violations += 1
        systems += 1
    ok = chain_violations == 0
    return {
        "name": "multilinear_domination",
        "passed": ok,
        "systems": systems,
        "chain_violations": chain_violations,
    }


def criterion_character_identity() -> dict:
    """The dual character average is exactly the membership indicator for
    every f over (2,2) at each order, and over (3,1) likewise."""
    ok = True
    checked = 0
    for q, n in ((2, 2), (3, 1)):
        for d in range(0, n * (q - 1) + 1):
            code = CodeParams(q, n, d)
            for f in alg.all_polynomials(q, n):
                cs = rmcode.character_membership(f, code)
                member = rmcode.is_member(f, code)
                ok &= cs.is_exactly_one() == member
                ok &= cs.is_exactly_zero() == (not member)
                ok &= abs(cs.value() - (1 if member else 0)) < 1e-9
                checked += 1
    return {"name": "character_membership_identity", "passed": ok, "checked": checked}


def _character_means(rows: np.ndarray, F: np.ndarray, q: int) -> np.ndarray:
    """Mean of omega^<row, f> over the rows of rows, for every function f
    (a value table, one per row of F)."""
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    return roots[rows @ F.T % q].mean(axis=0)


# Functions per block in criterion_squaring_chain: at (3, 2) its pair
# matrices are 729 x _SQUARING_BLOCK (3 MB of int64 each), not 729 x 19683.
_SQUARING_BLOCK = 512


def criterion_squaring_chain() -> dict:
    """Squaring identities for the character averages: the affine base case
    is an exact equality and the two-step inequality holds, for every
    function and every admissible shape at q in {2,3}, n <= 2, e <= 1."""
    tol = 1e-9
    ok = True
    base_checked = 0
    step_checked = 0
    for q, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        K = q**n
        for e in (0, 1):
            T = np.concatenate([t for _, t in rmcode.codeword_tables(CodeParams(q, n, e))])
            # two-step, q = 3: |avg w^{<g(P),f>}|^4 <= Re avg w^{<2 g2 P1P2, f>}
            # for every shape g of degree 2, as (P1P2 rows, g(P) row sets)
            steps = []
            if q == 3:
                T2 = (T[:, None, :] * T[None, :, :] % q).reshape(-1, K)
                for g2 in range(1, q):
                    shapes = [
                        mt.UnivariatePoly(q, (g0, g1, g2)).value_table()
                        for g1 in range(q)
                        for g0 in range(q)
                    ]
                    steps.append((2 * g2 * T2 % q, [g[T] for g in shapes]))
            # all function tables = all vectors, a fixed block at a time:
            # every check below is per function, so blocks only bound the
            # memory
            for F in alg.coefficient_blocks(q, K, block_size=_SQUARING_BLOCK):
                for a in range(1, q):
                    rhs = _character_means(a * T % q, F, q)
                    for b in range(q):
                        lhs = np.abs(_character_means((a * T + b) % q, F, q)) ** 2
                        ok &= bool(np.all(np.abs(lhs - rhs) < tol))
                        base_checked += len(F)
                for pairs, shaped in steps:
                    rhs = _character_means(pairs, F, q)
                    ok &= bool(np.all(np.abs(rhs.imag) < tol))
                    for gt in shaped:
                        lhs = np.abs(_character_means(gt, F, q)) ** 4
                        ok &= bool(np.all(lhs <= rhs.real + tol))
                        step_checked += len(F)
    return {
        "name": "squaring_chain",
        "passed": ok,
        "base_case_checks": base_checked,
        "two_step_checks": step_checked,
    }


def criterion_robust_reduction() -> dict:
    """The lucky-multiplier probability is dominated by q^radius times the
    two-multiplier acceptance, exactly, for every f over (2,3) at order 0,
    e = 1, radius in {1, 2}."""
    cfg = mt.TestConfig(CodeParams(2, 3, 0), e=1, k=1)
    violations = 0
    checked = 0
    for f in alg.all_polynomials(2, 3):
        report = mt.robust_distance_experiment(f, cfg, (1, 2))
        for _, _, holds in mt.reduction_check(f, cfg, report).values():
            violations += not holds
            checked += 1
    return {
        "name": "robust_reduction",
        "passed": violations == 0,
        "checked": checked,
        "violations": violations,
    }


def criterion_calibration(seed: int) -> dict:
    """Wilson intervals from 1000-trial runs cover the known exact value in
    at least 90 of 100 seeded meta-runs, on three exactly-solved events."""
    x1 = Polynomial.variable(2, 2, 0)
    hard = mt.hard_instance(2, 3, 1)
    cfg = mt.TestConfig(CodeParams(2, 3, 1), e=1, k=1)

    def vanish(rng: np.random.Generator) -> bool:
        tab = alg.random_polynomial(2, 3, 1, rng).evaluate_all().values
        return bool(tab[0] == 0 and tab[1] == 0)  # points 000 and 001

    # each instance maps a run's seed to its 1000-trial estimate
    instances = [
        (
            "degree_drop_half",
            lambda s: sztest.degree_drop_probability(x1, 1, 1, trials=1000, seed=s).estimate,
            Fraction(1, 2),
        ),
        (
            "hard_instance_accept",
            lambda s: estimate(lambda rng: mt.test_e_k(hard, cfg, rng), 1000, s),
            Fraction(1, 2),
        ),
        ("subspace_vanish_quarter", lambda s: estimate(vanish, 1000, s), Fraction(1, 4)),
    ]
    ok = True
    rows = []
    for tag, (label, run_estimate, exact) in enumerate(instances):
        covered = 0
        for run in range(100):
            res = run_estimate(mix64(seed ^ mix64(11000 + tag) ^ run))
            if res.ci_low <= float(exact) <= res.ci_high:
                covered += 1
        ok &= covered >= 90
        rows.append({"instance": label, "exact": str(exact), "covered": covered})
    return {"name": "monte_carlo_calibration", "passed": ok, "instances": rows}


CRITERIA = (
    ("min_support", lambda seed, budget: criterion_min_support(budget)),
    ("dominating_sets", lambda seed, budget: criterion_dominating_sets()),
    ("drop_bound", lambda seed, budget: criterion_drop_bound()),
    ("tightness", lambda seed, budget: criterion_tightness()),
    ("hard_instance", lambda seed, budget: criterion_hard_instance()),
    ("basis_structure", lambda seed, budget: criterion_basis_structure(seed)),
    ("multilinear", lambda seed, budget: criterion_multilinear_domination(seed)),
    ("character", lambda seed, budget: criterion_character_identity()),
    ("squaring", lambda seed, budget: criterion_squaring_chain()),
    ("robust_reduction", lambda seed, budget: criterion_robust_reduction()),
    ("calibration", lambda seed, budget: criterion_calibration(seed)),
)


def run_suite(seed: int = 7, budget: int | None = None, quiet: bool = False) -> dict:
    """Run the whole battery; deterministic given (seed, budget)."""
    reports = []
    for label, fn in CRITERIA:
        rep = fn(seed, budget)
        reports.append(rep)
        if not quiet:
            print(f"[{'PASS' if rep['passed'] else 'FAIL'}] {rep['name']}", file=sys.stderr)
    return {
        "suite": "rmtest-acceptance",
        "seed": seed,
        "budget": get_budget(budget),
        "criteria": reports,
        "all_passed": all(r["passed"] for r in reports),
    }


def suite_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"
