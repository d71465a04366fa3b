"""rmtest benchmark: one command, one workload per invocation.

    python3 rmbench/run.py --workload exact-wide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
(never in parallel) with BLAS/OpenMP threads set to 1.  With ``--trace 0``
the measured process runs between ten set-up-only processes, and
``setup_s`` is the median of the eleven set-up times; with ``--trace 1``
one traced process runs.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Earlier stdout lines
carry the run's metadata.  Exit code 0 means the run completed; a result
is printed only then.  ``correct`` is false when any call failed its
independent check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

WORKLOADS = ("exact-wide", "sampled", "battery")
SETUP_PROCESSES = 10  # plus the measured process: the median of eleven set-ups
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # calls that must lie beyond the reported tail percentile

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON record."""
    spawned = time.time()
    cmd = [sys.executable, "-s", str(BENCH_DIR / "worker.py"), *args, "--spawned-at", repr(spawned)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND values beyond it
    (nearest rank), and its value."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} calls for a tail, got {n}")
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(values)[rank - 1], pct


def end_to_end(rec: dict, setups: list[float]) -> tuple[dict, dict]:
    rounds: dict[int, float] = {}
    families: dict[int, list[float]] = {}
    for r, i, dt, _ in rec["records"]:
        rounds[r] = rounds.get(r, 0.0) + dt
        families.setdefault(i, []).append(dt)
    times = [dt for _, _, dt, _ in rec["records"]]
    items = sum(rec["items"][0])  # every round does the same work
    round_s = statistics.median(rounds.values())
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (round_s, "s"),
        "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
        # Median over the families of each family's median call: the median
        # call of a round, which a slow phase in one round does not move.
        # Pooling every call instead puts the median of an even number of
        # families between two clusters, where it jumps from run to run.
        "call_p50_ms": (statistics.median(map(statistics.median, families.values())) * 1e3, "ms"),
        "call_tail_ms": (tail_s * 1e3, "ms"),
        "items_per_s": (items / round_s, "1/s"),
    }
    meta = {
        "calls": len(times),
        "rounds": len(rounds),
        "tail_percentile": pct,
        "items_per_round": items,
        "setup_samples_s": setups,
    }
    return metrics, meta


def per_layer(rec: dict) -> tuple[dict, dict]:
    layers = rec["layers"]
    metrics = {}
    for name in layers[0]:
        unit = "count" if name.endswith(".calls") else "rows" if name.endswith(".rows") else "MB" if name.endswith("_mb") else "s"
        metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
    metrics["algebra.tables_build_s"] = (rec["tables_build_s"], "s")
    by_round: dict[tuple[bool, int], float] = {}
    crit: dict[str, list[float]] = {}
    for r, i, dt, traced in rec["records"]:
        by_round[(traced, r)] = by_round.get((traced, r), 0.0) + dt
        if traced:
            crit.setdefault(rec["families"][i], []).append(dt)
    import plan

    for label in plan.BATTERY_CRITERIA:
        metrics[f"suite.{label}.s"] = (statistics.median(crit.get(f"suite.{label}", [0.0])), "s")
    traced_w = statistics.median(v for (t, _), v in by_round.items() if t)
    plain_w = statistics.median(v for (t, _), v in by_round.items() if not t)
    metrics["host.probe_ms"] = (statistics.median(rec["probes_ms"]), "ms")
    metrics["trace.overhead_ratio"] = ((traced_w - plain_w) / plain_w, "ratio")
    meta = {
        "traced_rounds": sum(1 for t, _ in by_round if t),
        "untraced_rounds": sum(1 for t, _ in by_round if not t),
        "spans": rec["spans"],
        "spans_dropped": rec["spans_dropped"],
    }
    return metrics, meta


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rmtest" / "__init__.py").is_file():
        print(f"no rmtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import plan

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    rounds = plan.rounds_for(args.workload, args.seconds)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--rounds", str(rounds)]
    try:
        if args.trace:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
            rec = run_worker([*common, "--trace", "1", "--trace-out", str(trace_out)], deadline)
            metrics, meta = per_layer(rec)
            meta["trace_file"] = str(trace_out.relative_to(ROOT))
        else:
            # Half the set-up-only processes run before the measured one and
            # half after, so the set-up median spans the host's phases.
            setup = lambda: run_worker([*common, "--setup-only"], deadline)["setup_s"]  # noqa: E731
            setups = [setup() for _ in range(SETUP_PROCESSES // 2)]
            rec = run_worker(common, deadline)
            setups.append(rec["setup_s"])
            setups += [setup() for _ in range(SETUP_PROCESSES - SETUP_PROCESSES // 2)]
            metrics, meta = end_to_end(rec, setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    import numpy

    attempted = len(rec["records"])
    failed = len(rec["failures"])
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        commit=git_commit(),
        ops_failed_ratio=f"{failed}/{attempted}",
        probe_ms_median=statistics.median(rec["probes_ms"]),
        probe_ms_range=[min(rec["probes_ms"]), max(rec["probes_ms"])],
    )
    print(json.dumps({"metadata": meta}))
    for line in rec["failures"][:20]:
        print(f"FAILED {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
