"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
print.  Criteria 1-11 come from one in-process run of the whole suite;
criterion 12 runs the CLI suite end to end in a fresh process and compares
its report bytes with that run's.
"""

import subprocess
import sys
import time

import pytest

from rmtest import suite as suite_mod

LIMITS = {
    "min_support_is_sz_value": 30,
    "dominating_sets_and_extremal_minimality": 60,
    "degree_drop_bound": 300,
    "tight_witness_equality": 60,
    "hard_instance_floor": 10,
    "basis_structure": 120,
    "multilinear_domination": 120,
    "character_membership_identity": 30,
    "squaring_chain": 120,
    "robust_reduction": 180,
    "monte_carlo_calibration": 180,
}


@pytest.fixture(scope="session")
def battery():
    """The report of run_suite(seed=7) and each criterion's time by name."""
    elapsed = {}

    def timed(fn):
        def run(seed, budget):
            start = time.perf_counter()
            rep = fn(seed, budget)
            elapsed[rep["name"]] = time.perf_counter() - start
            return rep

        return run

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            suite_mod, "CRITERIA", tuple((label, timed(fn)) for label, fn in suite_mod.CRITERIA)
        )
        report = suite_mod.run_suite(seed=7, quiet=True)
    return report, elapsed


def _check(battery, index, name):
    report, times = battery
    rep = next(r for r in report["criteria"] if r["name"] == name)
    elapsed = times[name]
    status = "PASS" if rep["passed"] else "FAIL"
    print(f"criterion {index:2d} [{status}] {name} ({elapsed:.1f}s)")
    assert rep["passed"], rep
    assert elapsed < LIMITS[name]
    return rep


def test_criterion_01_classical_sz_exactness(battery):
    rep = _check(battery, 1, "min_support_is_sz_value")
    assert len(rep["cases"]) == sum(
        n * (q - 1) + 1 for q in (2, 3) for n in (1, 2, 3)
    )


def test_criterion_02_set_sizes_and_extremal_minimality(battery):
    rep = _check(battery, 2, "dominating_sets_and_extremal_minimality")
    assert rep["minimality_failures"] == []
    assert rep["set_checks"] > 500


def test_criterion_03_degree_drop_bound(battery):
    rep = _check(battery, 3, "degree_drop_bound")
    for sweep in rep["sweeps"]:
        assert sweep["violations"] == 0
    # the second sweep covers every nonzero cubic-capped f over (3, 2)
    assert rep["sweeps"][1]["checked"] == 6560 * 6


def test_criterion_04_tightness_equality(battery):
    rep = _check(battery, 4, "tight_witness_equality")
    assert rep["instances"] >= 10
    assert any(
        c["q"] == 2 and c["n"] == 2 and c["d"] == 1 and c["e"] == 1 and c["s"] == 1
        and c["probability"] == "1/2"
        for c in rep["cases"]
    )


def test_criterion_05_hard_instance(battery):
    rep = _check(battery, 5, "hard_instance_floor")
    assert rep["floor"] == "1/4"
    assert rep["subspace_vanish_probability"] == "1/4"
    assert rep["p_at_order_1"] == "1/2"


def test_criterion_06_basis_structure(battery):
    rep = _check(battery, 6, "basis_structure")
    assert rep["reassembly_checks"] >= 1000
    assert rep["basis_property_checks"] >= 500


def test_criterion_07_multilinear_domination(battery):
    rep = _check(battery, 7, "multilinear_domination")
    assert rep["systems"] == 500
    assert rep["chain_violations"] == 0


def test_criterion_08_character_identity(battery):
    rep = _check(battery, 8, "character_membership_identity")
    assert rep["checked"] == 16 * 3 + 27 * 3


def test_criterion_09_squaring_chain(battery):
    rep = _check(battery, 9, "squaring_chain")
    assert rep["base_case_checks"] > 0
    assert rep["two_step_checks"] > 0


def test_criterion_10_robust_reduction(battery):
    rep = _check(battery, 10, "robust_reduction")
    assert rep["checked"] == 256 * 2


def test_criterion_11_monte_carlo_calibration(battery):
    rep = _check(battery, 11, "monte_carlo_calibration")
    for row in rep["instances"]:
        assert row["covered"] >= 90


def test_criterion_12_suite_determinism(battery, tmp_path):
    report, _ = battery
    path = tmp_path / "suite.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "rmtest.cli", "suite", "--seed", "7",
         "--quiet", "--json", str(path)],
        capture_output=True,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 600
    identical = path.read_bytes() == suite_mod.suite_json(report).encode()
    print(f"criterion 12 [{'PASS' if identical else 'FAIL'}] suite_determinism")
    assert identical
    assert report["all_passed"] is True
    assert report["seed"] == 7
