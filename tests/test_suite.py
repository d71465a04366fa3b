"""Internal consistency of the acceptance battery's vectorized sweeps."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rmtest import algebra as alg, multtests as mt, rmcode, suite, sztest
from rmtest.rmcode import CodeParams


def test_vectorized_sweep_matches_module_op():
    # replay the (2,2) sweep through the module-level exact path and
    # compare the aggregate counts
    rep = suite._drop_bound_sweep(2, 2, 2, (1,))
    checked = violations = equalities = 0
    for f in alg.all_polynomials(2, 2, 2):
        if f.is_zero():
            continue
        for s in (0, 1):
            r = sztest.degree_drop_probability(f, 1, s)
            p = r.probability
            violations += p > r.bound
            equalities += p == r.bound
            checked += 1
    assert rep["checked"] == checked == 30
    assert rep["violations"] == violations == 0
    assert rep["bound_met_with_equality"] == equalities


def test_sweep_does_not_depend_on_the_block_size(monkeypatch):
    ref = suite._drop_bound_sweep(3, 2, 2, (1, 2))
    monkeypatch.setattr(rmcode, "_PRODUCT_BLOCK_CELLS", 1)  # one multiplier a block
    assert suite._drop_bound_sweep(3, 2, 2, (1, 2)) == ref


@pytest.mark.parametrize("q", [2, 3])
def test_character_means_equal_the_library_averages(q):
    # a second route for the squaring chain's averages: its helper against
    # the enumerated raw averages of g(P) = aP + b and the pair averages
    n = 2
    rng = np.random.default_rng(40 + q)
    fs = [alg.random_polynomial(q, n, n * (q - 1), rng) for _ in range(5)]
    F = np.stack([f.evaluate_all().values for f in fs])
    for e in (0, 1):
        T = np.concatenate([t for _, t in rmcode.codeword_tables(CodeParams(q, n, e))])
        T2 = (T[:, None, :] * T[None, :, :] % q).reshape(-1, q**n)
        for a in range(1, q):
            for b in range(q):
                g = mt.UnivariatePoly(q, (b, a))
                want = [mt.raw_character_average(f, e, g).value() for f in fs]
                got = suite._character_means(g.value_table()[T], F, q)
                assert np.abs(got - want).max() < 1e-12
        for s in range(1, q):
            want = [mt.pair_character_average(f, e, s).value() for f in fs]
            got = suite._character_means(s * T2 % q, F, q)
            assert np.abs(got - want).max() < 1e-12


def test_squaring_chain_memory_is_bounded():
    # all 19683 functions over (3, 2) at once take about 470 MB here
    tracemalloc.start()
    try:
        rep = suite.criterion_squaring_chain()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"]
    assert peak < 64 * 2**20


def test_criterion_reports_are_json_ready():
    import json

    rep = suite.criterion_tightness()
    text = json.dumps(rep)
    assert '"passed": true' in text


def test_tightness_instances_distinct():
    assert len(set(suite.TIGHTNESS_INSTANCES)) == len(suite.TIGHTNESS_INSTANCES) >= 10
