"""One workload run in a fresh process; started by run.py, never directly.

Set-up (imports, input generation, transform tables) is timed from the
moment run.py spawned this process.  The timed phase is a closed loop with
one client: the plan's rounds are called back to back, one family after
another, with no think time.  A fixed probe kernel, independent of rmtest,
is timed between calls so host drift shows next to the figures.  After
the timed phase every result is checked against an independent route
(reference.py).  The raw per-call record goes to stdout as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBE_EVERY_S = 0.25


def probe_ms() -> float:
    """A fixed mix of interpreted integer work and a small int64 matmul."""
    import numpy as np

    a = (np.arange(96 * 96, dtype=np.int64).reshape(96, 96) * 7919) % 101
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    for _ in range(4):
        a = (a @ a + acc) % 101
    return (time.perf_counter() - start) * 1e3


def run_rounds(calls, tr=None, probe=True):
    """Call every round back to back.  With a tracer, even rounds are
    traced and odd rounds not, so the two interleave through host drift.

    Returns per-call records (round, index, seconds, traced), the results
    (an exception stands for a failed call), the probe times and the
    per-layer values of each traced round.
    """
    import tracer as tracing

    records, results, probes, layer_rounds = [], [], [], []
    last_probe = -1.0
    for r, rnd in enumerate(calls):
        traced = tr is not None and r % 2 == 0
        for i, call in enumerate(rnd):
            if tr:
                tr.enabled = traced
            start = time.perf_counter()
            try:
                result = tr.call(call.family, call.run) if tr else call.run()
            except Exception as exc:  # a failed call is scored, not fatal
                result = exc
            records.append((r, i, time.perf_counter() - start, traced))
            results.append(result)
            if tr:
                tr.enabled = False
            if probe and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(probe_ms())
                last_probe = time.perf_counter()
        if traced:
            layer_rounds.append(tracing.layer_metrics(*tr.take_stats()))
    return records, results, probes, layer_rounds


def check_all(calls, results) -> list[str]:
    """Check every result against its independent route; describe failures."""
    import reference

    checker = reference.Checker()
    failures = []
    flat = [call for rnd in calls for call in rnd]
    for call, result in zip(flat, results):
        if isinstance(result, Exception):
            failures.append(f"{call.family} {call.params}: {type(result).__name__}: {result}")
            continue
        try:
            ok = checker.check(call, result)
        except Exception as exc:  # a check that cannot run counts as a failure
            ok = False
            result = f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            failures.append(f"{call.family} {call.params}: got {result!r}"[:300])
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import rmtest.cli  # noqa: F401  (the CLI entry point imports every module)

    if not Path(rmtest.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"rmtest imported from {rmtest.__file__}, not this checkout", file=sys.stderr)
        return 2
    from rmtest import algebra

    import plan
    import reference  # noqa: F401  (bind its imports before any wrapping)
    import tracer as tracing

    calls = plan.build(args.workload, args.seed, args.rounds)
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        tr.enabled = True
    for q, n in plan.table_sizes(args.workload):
        algebra.eval_matrix(q, n)
        algebra.interp_matrix(q, n)
        algebra.degree_table(q, n)
    setup_s = time.time() - args.spawned_at
    setup_stats = tr.take_stats()[0] if tr else {}
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    records, results, probes, layer_rounds = run_rounds(calls, tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr:
        tr.enabled = False
    failures = check_all(calls, results)

    out = {
        "setup_s": setup_s,
        "records": records,
        "families": [call.family for call in calls[0]],
        "items": [[call.items for call in rnd] for rnd in calls],
        "failures": failures,
        "probes_ms": probes,
        "peak_rss_mb": peak_rss_mb,
    }
    if tr:
        out["layers"] = layer_rounds
        out["tables_build_s"] = sum(
            setup_stats.get(name, [0, 0.0])[1] for name in tracing.TABLE_BUILDERS
        )
        out["spans"] = len(tr.spans["name"])
        out["spans_dropped"] = tr.dropped
        if args.trace_out:
            tr.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
