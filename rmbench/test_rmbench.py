"""Tests of the benchmark itself: tracer coverage, traced/untraced
agreement, seed handling, checks that reject wrong values, and the tail
percentile rule."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for path in (BENCH_DIR, BENCH_DIR.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import rmtest.cli  # noqa: E402,F401
import plan  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from rmtest import algebra  # noqa: E402


def _rmtest_modules():
    return [m for name, m in sys.modules.items() if m and (name == "rmtest" or name.startswith("rmtest."))]


@pytest.fixture
def tracer():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_tracer_wraps_every_namespace_that_binds_a_listed_function():
    originals = {}
    for modname, attr, _ in tracing.TRACED:
        originals[f"{modname}.{attr}"] = getattr(sys.modules[f"rmtest.{modname}"], attr)
    for modname in tracing.MODULE_WIDE:
        mod = sys.modules[f"rmtest.{modname}"]
        for attr, value in vars(mod).items():
            if not attr.startswith("_") and callable(value) and getattr(value, "__module__", None) == mod.__name__:
                if not isinstance(value, type):
                    originals[f"{modname}.{attr}"] = value
    bindings = {
        (mod.__name__, attr): name
        for mod in _rmtest_modules()
        for attr, value in vars(mod).items()
        for name, orig in originals.items()
        if value is orig
    }
    # the from-imports the tracer must reach
    assert ("rmtest.multtests", "mul_reduced") in bindings
    assert ("rmtest.sztest", "batch_interpolate") in bindings
    assert ("rmtest.rmcode", "coefficient_blocks") in bindings
    assert ("rmtest.suite", "estimate") in bindings
    degree = vars(algebra.Polynomial)["degree"]

    tr = tracing.Tracer()
    tr.install()
    try:
        for (modname, attr), name in bindings.items():
            value = getattr(sys.modules[modname], attr)
            assert value is not originals[name], f"{modname}.{attr} left unwrapped"
            assert value.__wrapped__ is originals[name]
        assert vars(algebra.Polynomial)["degree"] is not degree
        tr.enabled = True
        f = algebra.Polynomial.variable(2, 3, 0)
        assert algebra.mul_reduced(f, f).degree == 1
        stats, _ = tr.take_stats()
        assert stats["algebra.mul_reduced"][0] == 1
        assert stats["algebra.degree"][0] == 1
    finally:
        tr.uninstall()
    for (modname, attr), name in bindings.items():
        assert getattr(sys.modules[modname], attr) is originals[name]
    assert vars(algebra.Polynomial)["degree"] is degree


def test_self_time_excludes_child_spans(tracer):
    tracer.enabled = True
    f = algebra.Polynomial.variable(3, 4, 1)
    tracer.call("top", lambda: algebra.mul_reduced(f, f).degree)
    stats, _ = tracer.take_stats()
    spans = tracer.spans
    top = len(spans["name"]) - 1  # a parent span ends after its children
    top_id = spans["id"][top]
    assert tracer.names[spans["name"][top]] == "top"
    children = [i for i in range(top) if spans["parent"][i] == top_id]
    assert children and all(spans["root"][i] == top_id for i in range(top + 1))
    covered = sum(spans["end"][i] - spans["start"][i] for i in children)
    total = spans["end"][top] - spans["start"][top]
    assert stats["top"][1] == pytest.approx(total - covered)


def _cheap(calls):
    """The exact-wide families that run in well under a second."""
    return [[c for c in rnd if c.params[1] ** c.params[2] <= 243] for rnd in calls]


@pytest.mark.parametrize("workload", ["sampled", "exact-wide"])
def test_traced_run_returns_the_same_results_and_failures(workload):
    calls = plan.build(workload, 5, 2)
    if workload == "exact-wide":
        calls = _cheap(calls)
    _, plain, _, _ = worker.run_rounds(calls, probe=False)
    tr = tracing.Tracer()
    tr.install()
    try:
        records, traced, _, layers = worker.run_rounds(calls, tr, probe=False)
    finally:
        tr.uninstall()
    assert [r[3] for r in records] == [r == 0 for r, *_ in records]
    assert len(layers) == 1
    assert repr(traced) == repr(plain)
    assert worker.check_all(calls, traced) == worker.check_all(calls, plain) == []


def test_second_seed_changes_inputs_not_the_instance_mix():
    assert run.WORKLOADS == plan.WORKLOADS
    for workload in plan.WORKLOADS:
        a, b = plan.build(workload, 1, 2), plan.build(workload, 2, 2)
        assert [[c.params for c in r] for r in a] == [[c.params for c in r] for r in b]
        assert [[c.items for c in r] for r in a] == [[c.items for c in r] for r in b]
        changed = 0
        for ca, cb in zip((c for r in a for c in r), (c for r in b for c in r)):
            fa, fb = ca.inputs.get("f"), cb.inputs.get("f")
            if fa is not None and ca.family.startswith("calib_"):
                assert fa == fb  # the suite's calibration inputs are fixed
            elif fa is not None:
                changed += fa != fb
            if "seed" in ca.inputs:
                changed += ca.inputs["seed"] != cb.inputs["seed"]
        assert changed > 0
        again = plan.build(workload, 1, 2)
        assert [[repr(c.inputs) for c in r] for r in a] == [[repr(c.inputs) for c in r] for r in again]


def test_checks_reject_wrong_values():
    checker = reference.Checker()
    calls = {c.params: c for c in _cheap(plan.build("exact-wide", 3, 1))[0]}
    for params, call in calls.items():
        good = call.run()
        assert checker.check(call, good), params
        if isinstance(good, Fraction):
            assert not checker.check(call, good + Fraction(1, 1 << 20)), params
        elif isinstance(good, int):
            assert not checker.check(call, good + 1), params
        elif isinstance(good, dict):
            bad = dict(good)
            key = min(bad)
            bad[key] += 1
            assert not checker.check(call, bad), params
    sampled = plan.build("sampled", 3, 1)[0]
    calib = next(c for c in sampled if c.family == "calib_drop_half")
    assert checker.check(calib, 500)
    assert not checker.check(calib, 700)
    criterion = plan.build("battery", 3, 1)[0][0]
    report = criterion.run()
    assert checker.check(criterion, report)
    assert not checker.check(criterion, dict(report, passed=False))


def test_tail_is_the_highest_percentile_with_ten_calls_beyond():
    values = [float(i) for i in range(1, 101)]
    value, pct = run.tail(values)
    assert pct == 90 and value == 90.0
    assert sum(v > value for v in values) == 10
    value, pct = run.tail(values[:30])
    assert pct == 66 and sum(v > value for v in values[:30]) >= 10
    with pytest.raises(ValueError):
        run.tail(values[:10])


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_metrics_benchmark_json_lists(trace, capsys):
    import json

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    assert run.main(["--workload", "sampled", "--seed", "4", "--seconds", "1", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 10
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
