"""Command-line surface: experiment runner and report emitter.

Most subcommands print a JSON report to stdout (suppress with --quiet)
and can also write it to --json PATH and a flat CSV to --csv PATH; combin
prints a CSV table and takes only --csv, and basis-dump and suite take only
--json.  All randomness is seeded from --seed; exact enumerations respect
--budget / RMTEST_BUDGET.  Exit codes: 0 when the subcommand's expected
relation held (or none applies), 1 when it failed, 2 for usage errors and
invalid input, 3 when an exact run would exceed the enumeration budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

import numpy as np

from . import algebra as alg
from . import combin, genbasis, multtests as mt, rmcode, setmultilin as sml, sztest
from . import suite as suite_mod
from .errors import InfeasibleInstanceError
from .estimator import estimate, mix64
from .rmcode import CodeParams

EXIT_OK = 0
EXIT_RELATION_FAILED = 1
EXIT_INFEASIBLE = 3

REPORT_COLUMNS = [
    "command",
    "q",
    "n",
    "d",
    "e",
    "k",
    "mode",
    "accept_count",
    "total",
    "p_hat",
    "ci_low",
    "ci_high",
    "bound",
    "bound_vacuous",
    "seed",
]


def _load_poly(path: str) -> alg.Polynomial:
    with open(path) as fh:
        return alg.poly_from_text(fh.read())


def _emit(report: dict, args, csv_table=None) -> None:
    """Print and save the JSON report; --csv gets csv_table, a (columns,
    rows) pair, or else the report flattened onto REPORT_COLUMNS."""
    text = json.dumps(report, indent=2) + "\n"
    if not args.quiet:
        sys.stdout.write(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    if args.csv:
        if csv_table is None:
            flat = dict(report.get("params", {}))
            flat.update({k: v for k, v in report.items() if not isinstance(v, (dict, list))})
            csv_table = (REPORT_COLUMNS, [[flat.get(c) for c in REPORT_COLUMNS]])
        _write_rows(args.csv, *csv_table, True)


def _write_rows(path_or_stdout, columns, rows, quiet):
    if path_or_stdout:
        fh = open(path_or_stdout, "w", newline="")
    else:
        if quiet:
            return
        fh = sys.stdout
    writer = csv.writer(fh)
    writer.writerow(columns)
    writer.writerows(rows)
    if path_or_stdout:
        fh.close()


def _pfloat(x) -> float | None:
    return float(x) if x is not None else None


def _test_report(command, params, mode, accept_count, total, p_hat, ci, bound, vacuous, seed):
    return {
        "command": command,
        "params": params,
        "mode": mode,
        "accept_count": accept_count,
        "total": total,
        "p_hat": _pfloat(p_hat),
        "p_exact": str(p_hat) if isinstance(p_hat, Fraction) else None,
        "ci_low": ci[0] if ci else None,
        "ci_high": ci[1] if ci else None,
        "bound": bound,
        "bound_vacuous": vacuous,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _ordering(args, q: int) -> genbasis.FieldOrdering:
    if args.ordering == "reverse":
        return genbasis.FieldOrdering.reversed_natural(q)
    return genbasis.FieldOrdering.natural(q)


def _usage_error(message: str) -> int:
    """Report a usage error the way argparse does: on stderr, exit code 2."""
    sys.stderr.write(f"rmtest: error: {message}\n")
    return 2


def cmd_sz(args) -> int:
    if args.poly:
        f = _load_poly(args.poly)
        if (f.q, f.n) != (args.q, args.n):
            return _usage_error(
                f"--poly {args.poly} has q={f.q} n={f.n}, not --q {args.q} --n {args.n}"
            )
        if f.degree != args.d:
            return _usage_error(f"--poly {args.poly} has degree {f.degree}, not --d {args.d}")
        if args.ordering is not None:
            return _usage_error("--ordering applies only to the tight witness, not --poly")
        witness = False
    else:
        f = sztest.tight_witness(args.q, args.n, args.d, _ordering(args, args.q))
        witness = True
    rep = sztest.degree_drop_probability(
        f, args.e, args.s, None if args.exact else args.trials, args.seed, args.budget
    )
    mode = rep.mode  # a vacuous query is answered exactly in either mode
    if mode == "exact":
        p, ci = rep.probability, None
    else:
        p, ci = rep.estimate.p_hat, (rep.estimate.ci_low, rep.estimate.ci_high)
    equal = mode == "exact" and p == rep.extremal_bound
    report = {
        "command": "sz",
        "params": {"q": args.q, "n": args.n, "d": int(f.degree), "e": args.e, "s": args.s},
        "mode": mode,
        "witness": witness,
        "probability": float(p),
        "probability_exact": str(p) if mode == "exact" else None,
        "ci_low": ci[0] if ci else None,
        "ci_high": ci[1] if ci else None,
        "bound": float(rep.bound),
        "extremal_bound": float(rep.extremal_bound),
        "rank": rep.rank,
        "vacuous": rep.vacuous,
        "equal": equal,
        "seed": args.seed,
    }
    _emit(report, args)
    if mode == "exact":
        held = p <= rep.bound and (not witness or equal)
        return EXIT_OK if held else EXIT_RELATION_FAILED
    return EXIT_OK


def cmd_combin(args) -> int:
    rows = []
    top = args.n * (args.q - 1)
    for d in range(0, top + 1):
        rows.append(["N", args.q, args.n, d, "", "", combin.monomial_count(args.q, args.n, d)])
    if args.m:
        monos = [alg.Monomial(args.q, tuple(int(x) for x in args.m.split(",")))]
    else:
        monos = [combin.extremal_monomial(args.q, args.n, d) for d in range(0, top + 1)]
    for m in monos:
        for s in range(0, top - m.degree + 1):
            rows.append(
                ["U", args.q, args.n, m.degree, s, str(m), combin.dominating_count(m, s)]
            )
            rows.append(
                ["D", args.q, args.n, m.degree, s, str(m), combin.disjoint_count(m, s)]
            )
    _write_rows(args.csv, ["kind", "q", "n", "d", "s", "monomial", "count"], rows, args.quiet)
    return EXIT_OK


def cmd_basis_dump(args) -> int:
    f = _load_poly(args.poly)
    ordering = _ordering(args, f.q)
    lines = [
        f"({','.join(str(i) for i in idx)}) -> {c}"
        for idx, c in genbasis.generalized_terms(f, ordering)
    ]
    out = "\n".join(lines) + ("\n" if lines else "")
    if not args.quiet:
        sys.stdout.write(out)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"command": "basis-dump", "terms": genbasis.generalized_terms(f, ordering)},
                fh,
                indent=2,
            )
    return EXIT_OK


def cmd_distance(args) -> int:
    f = _load_poly(args.poly)
    code = CodeParams(f.q, f.n, args.d)
    res = rmcode.distance(f, code, args.budget)
    report = {
        "command": "distance",
        "params": {"q": f.q, "n": f.n, "d": args.d},
        "distance": res.distance,
        "nearest": alg.poly_to_text(res.nearest),
        "method": res.method,
        "enumerated": res.enumerated,
    }
    _emit(report, args)
    return EXIT_OK


def _probability(args, exact, event):
    """(mode, accept_count, total, p, ci): the Fraction exact() under --exact,
    else the estimate of event over --trials seeded trials."""
    if args.exact:
        p = exact()
        return "exact", p.numerator, p.denominator, p, None
    res = estimate(event, args.trials, args.seed)
    return "sampled", res.successes, res.trials, res.p_hat, (res.ci_low, res.ci_high)


def _emit_expectation(report: dict, args) -> int:
    """Record whether p_hat met --expect-min / --expect-max, emit, exit."""
    p = float(report["p_hat"])
    held = (args.expect_min is None or p >= args.expect_min - 1e-12) and (
        args.expect_max is None or p <= args.expect_max + 1e-12
    )
    report["relation_held"] = held
    _emit(report, args)
    return EXIT_OK if held else EXIT_RELATION_FAILED


def _bound_fields(cfg: mt.TestConfig, f, args):
    """Soundness bound for the configured distance (explicit or computed)."""
    delta = args.delta
    if delta is None:
        try:
            delta = rmcode.distance(f, cfg.code, args.budget).distance
        except InfeasibleInstanceError:
            return None, None, None
    if delta < 1:
        return None, None, delta  # f is in the code; no bound applies
    bp = mt.soundness_bound(cfg, delta)
    premise = mt.soundness_premise(cfg, delta)
    return bp, premise, delta


def cmd_test_ek(args) -> int:
    f = _load_poly(args.poly)
    cfg = mt.TestConfig(CodeParams(f.q, f.n, args.d), e=args.e, k=args.k)
    params = {"q": f.q, "n": f.n, "d": args.d, "e": args.e, "k": args.k}
    bp, premise, delta = _bound_fields(cfg, f, args)
    result = _probability(
        args,
        lambda: mt.exact_acceptance_probability(f, cfg, args.budget),
        lambda rng: mt.test_e_k(f, cfg, rng),
    )
    report = _test_report(
        "test-ek", params, *result, bp.bound if bp else None,
        bp.vacuous if bp else None, args.seed,
    )
    report["test_vacuous"] = cfg.vacuous
    report["delta"] = delta
    if premise is not None:
        report["premise_vacuous"] = premise.vacuous
    if bp is not None:
        report["eta"] = bp.eta
        report["eta_alt_reading"] = bp.eta_alt_reading
    return _emit_expectation(report, args)


def cmd_corr_h(args) -> int:
    f = _load_poly(args.poly)
    coeffs = tuple(int(x) for x in args.h.split(","))
    h = mt.UnivariatePoly(f.q, coeffs)
    cfg = mt.TestConfig(CodeParams(f.q, f.n, args.d), e=args.e, k=h.degree)
    params = {"q": f.q, "n": f.n, "d": args.d, "e": args.e, "k": h.degree}
    result = _probability(
        args,
        lambda: mt.exact_corr_h_probability(f, cfg, h, args.budget),
        lambda rng: mt.corr_h(f, cfg, h, rng),
    )
    report = _test_report("corr-h", params, *result, None, None, args.seed)
    report["h"] = list(coeffs)
    return _emit_expectation(report, args)


def cmd_robust(args) -> int:
    if args.check_reduction and not args.exact:
        return _usage_error("--check-reduction needs --exact")
    f = _load_poly(args.poly)
    cfg = mt.TestConfig(CodeParams(f.q, f.n, args.d), e=args.e, k=1)
    dprimes = tuple(int(x) for x in args.dprimes.split(",")) if args.dprimes else None
    rep = mt.robust_distance_experiment(
        f,
        cfg,
        dprimes=dprimes,
        trials=None if args.exact else args.trials,
        seed=args.seed,
        budget=args.budget,
    )
    report = {
        "command": "robust",
        "params": {"q": f.q, "n": f.n, "d": args.d, "e": args.e},
        "mode": rep.mode,
        "samples": rep.samples,
        "distance_counts": {str(k): v for k, v in sorted(rep.distance_counts.items())},
        "fraction_below": {str(k): float(v) for k, v in sorted(rep.fraction_below.items())},
        "fraction_at_most": {
            str(k): float(v) for k, v in sorted(rep.fraction_at_most.items())
        },
        "min_distance": rep.min_distance,
        "median_distance": rep.median_distance,
        "seed": args.seed,
    }
    held = True
    if args.check_reduction:
        checks = mt.reduction_check(f, cfg, rep, args.budget)
        report["reduction"] = {
            str(dp): {"lucky": float(lhs), "bound": float(rhs), "held": ok}
            for dp, (lhs, rhs, ok) in sorted(checks.items())
        }
        held = all(ok for _, _, ok in checks.values())
    report["relation_held"] = held
    rows = [
        [dp, report["fraction_below"][dp], report["fraction_at_most"][dp]]
        for dp in report["fraction_below"]
    ]
    _emit(report, args, (["dprime", "fraction_below", "fraction_at_most"], rows))
    return EXIT_OK if held else EXIT_RELATION_FAILED


def cmd_akklr(args) -> int:
    f = _load_poly(args.poly)
    code = CodeParams(f.q, f.n, args.d)
    params = {"q": f.q, "n": f.n, "d": args.d}
    mode, accepted, total, p, ci = _probability(
        args,
        lambda: 1 - mt.akklr_exact_rejection_probability(f, code, args.budget),
        lambda rng: mt.akklr_test(f, code, rng),
    )
    report = _test_report("akklr", params, mode, accepted, total, p, ci, None, None, args.seed)
    # exact: the rejection Fraction rounded once; sampled: as the estimate reads
    report["rejection_probability"] = float(1 - p) if mode == "exact" else 1 - float(p)
    report["relation_held"] = True
    _emit(report, args)
    return EXIT_OK


def cmd_setmultilin(args) -> int:
    sizes = [int(x) for x in args.blocks.split(",")]
    part = sml.Partition.from_sizes(args.q, sizes)
    rng = np.random.Generator(np.random.Philox(key=mix64(args.seed)))
    systems = []
    held = True
    for i in range(args.count):
        system = sml.random_system(part, args.m, rng)
        p_full, p_sm = sml.system_vanishing_probability(system, args.budget)
        chain = sml.chain_probabilities(system, args.budget)
        monotone = all(chain[j] <= chain[j + 1] for j in range(len(chain) - 1))
        held &= p_full <= p_sm and monotone
        systems.append(
            {
                "p_full": float(p_full),
                "p_sm": float(p_sm),
                "chain": [float(c) for c in chain],
                "monotone": monotone,
            }
        )
    report = {
        "command": "setmultilin",
        "params": {"q": args.q, "blocks": sizes, "m": args.m, "count": args.count},
        "systems": systems,
        "relation_held": held,
        "seed": args.seed,
    }
    _emit(report, args)
    return EXIT_OK if held else EXIT_RELATION_FAILED


def cmd_suite(args) -> int:
    report = suite_mod.run_suite(seed=args.seed, budget=args.budget, quiet=args.quiet)
    text = suite_mod.suite_json(report)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    elif not args.quiet:
        sys.stdout.write(text)
    return EXIT_OK if report["all_passed"] else EXIT_RELATION_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--budget", type=int, default=None, help="enumeration cap")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", metavar="PATH", help="write the JSON report here")

    csv_out = argparse.ArgumentParser(add_help=False)
    csv_out.add_argument("--csv", metavar="PATH", help="write a CSV report here")
    report = [common, json_out, csv_out]

    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--exact", action="store_true", help="exhaustive enumeration")
    sampled.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials")

    expect = argparse.ArgumentParser(add_help=False)
    expect.add_argument("--expect-min", type=float, help="fail unless p_hat >= this")
    expect.add_argument("--expect-max", type=float, help="fail unless p_hat <= this")

    parser = argparse.ArgumentParser(
        prog="rmtest", description="Reed-Muller multiplication-test workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sz", parents=[*report, sampled], help="degree-drop probability")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--poly", help="polynomial file (default: the tight witness)")
    p.add_argument("--ordering", choices=["natural", "reverse"], help="witness ordering")
    p.set_defaults(fn=cmd_sz)

    p = sub.add_parser("combin", parents=[common, csv_out], help="counting tables as CSV")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", help="comma-separated exponents of a specific monomial")
    p.set_defaults(fn=cmd_combin)

    p = sub.add_parser("basis-dump", parents=[common, json_out], help="generalized coefficients")
    p.add_argument("--poly", required=True)
    p.add_argument("--ordering", choices=["natural", "reverse"], default="natural")
    p.set_defaults(fn=cmd_basis_dump)

    p = sub.add_parser("distance", parents=report, help="exact distance to the code")
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("test-ek", parents=[*report, sampled, expect], help="multiplier test")
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta", type=int, help="distance for the soundness bound")
    p.set_defaults(fn=cmd_test_ek)

    p = sub.add_parser(
        "corr-h", parents=[*report, sampled, expect], help="shaped multiplier test"
    )
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--h", required=True, help="comma-separated c0,..,ck")
    p.set_defaults(fn=cmd_corr_h)

    p = sub.add_parser("robust", parents=[*report, sampled], help="distance distribution")
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument(
        "--dprimes", help="comma-separated candidate radii (negative first: --dprimes=-1,0)"
    )
    p.add_argument(
        "--check-reduction", action="store_true", help="exact reduction check (needs --exact)"
    )
    p.set_defaults(fn=cmd_robust)

    p = sub.add_parser("akklr", parents=[*report, sampled], help="affine restriction test")
    p.add_argument("--poly", required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(fn=cmd_akklr)

    p = sub.add_parser("setmultilin", parents=report, help="random partitioned systems")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--blocks", required=True, help="comma-separated block sizes")
    p.add_argument("--m", type=int, default=2, help="polynomials per system")
    p.add_argument("--count", type=int, default=1, help="number of systems")
    p.set_defaults(fn=cmd_setmultilin)

    p = sub.add_parser("suite", parents=[common, json_out], help="run the acceptance battery")
    p.set_defaults(fn=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfeasibleInstanceError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except ValueError as exc:  # the base of every input error
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
