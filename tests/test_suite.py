"""Internal consistency of the acceptance battery's vectorized sweeps."""

import tracemalloc
from fractions import Fraction

from rmtest import algebra as alg, rmcode, suite, sztest


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
