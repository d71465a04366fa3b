"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and every
public function of ``MODULE_WIDE``.  A wrapped function is replaced in every
``rmtest`` namespace that binds it (the ``from .algebra import ...`` names in
``multtests``, ``sztest``, ``rmcode``, ``suite``, the package root), and the
``Polynomial.degree`` property and ``Polynomial.evaluate_all`` method are
wrapped on the class.  Each call records a span (id, name, start, end,
parent span id, top-level span id) and adds to per-name counts; spans stay in memory
until ``write``.  A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array

import numpy as np

# (module, attribute, rows counted from the call's arguments or results)
TRACED = (
    ("algebra", "batch_interpolate", "arg2"),
    ("algebra", "batch_evaluate", "arg2"),
    ("algebra", "batch_degrees", None),
    ("algebra", "mul_reduced", None),
    ("algebra", "random_polynomial", None),
    ("algebra", "interpolate", None),
    ("algebra", "rank_mod", None),
    ("algebra", "coefficient_blocks", "yield"),
    ("algebra", "eval_matrix", None),
    ("algebra", "interp_matrix", None),
    ("algebra", "degree_table", None),
    ("estimator", "trial_rng", None),
    ("estimator", "estimate", None),
    ("multtests", "exact_acceptance_probability", "peak"),
    ("multtests", "exact_corr_h_probability", "peak"),
    ("multtests", "robust_distance_experiment", "peak"),
    ("multtests", "akklr_exact_rejection_probability", "peak"),
    ("multtests", "test_e_k", None),
    ("multtests", "corr_h", None),
    ("multtests", "akklr_test", None),
    ("sztest", "degree_drop_probability", None),
    ("sztest", "independent_equation_rank", None),
    ("sztest", "equation_matrix", None),
    ("rmcode", "distance", "peak"),
    ("rmcode", "min_weight", "peak"),
    ("rmcode", "weight_distribution", None),
    ("rmcode", "character_membership", None),
)

# Modules whose every public function is wrapped; their metric is the sum.
MODULE_WIDE = ("combin", "genbasis", "setmultilin")

TABLE_BUILDERS = ("algebra.eval_matrix", "algebra.interp_matrix", "algebra.degree_table")

SPAN_CAP = 4_000_000


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._root = -1
        self._peak_owner = None
        self.spans = {
            "id": array("q"),
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "root": array("q"),
        }
        self.dropped = 0
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, rows]
        self.peaks: dict[str, float] = {}  # module -> largest call peak, MB
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _enter(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0.0])
        return sid

    def _exit(self, name: str, start: float, rows: int = 0) -> None:
        end = time.perf_counter()
        sid, covered = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0]
        st[0] += 1
        st[1] += dur - covered
        st[2] += rows
        if len(self.spans["name"]) >= SPAN_CAP:
            self.dropped += 1
            return
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans["id"].append(sid)
        self.spans["name"].append(nid)
        self.spans["start"].append(start)
        self.spans["end"].append(end)
        self.spans["parent"].append(parent[0] if parent is not None else -1)
        self.spans["root"].append(self._root if self._root >= 0 else sid)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a top-level span; nested spans share its id."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        self._root = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, start)
            self._root = -1

    def take_stats(self) -> tuple[dict, dict]:
        """Counts and peaks accumulated since the last call, then reset."""
        stats, peaks = self.stats, self.peaks
        self.stats, self.peaks = {}, {}
        return stats, peaks

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn, rows=None):
        tracer = self
        module = name.split(".", 1)[0]

        if rows == "yield":

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        try:
                            block = next(it)
                        except StopIteration:
                            return
                        yield block
                        continue
                    start = time.perf_counter()
                    tracer._enter()
                    try:
                        block = next(it)
                    except StopIteration:
                        tracer._exit(name, start)
                        return
                    tracer._exit(name, start, len(block))
                    yield block

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            tracer._enter()
            own_peak = rows == "peak" and tracer._peak_owner is None
            if own_peak:
                tracer._peak_owner = name
                tracemalloc.start()
            n_rows = 0
            try:
                if rows == "arg2":
                    n_rows = len(args[2]) if len(args) > 2 else 0
                return fn(*args, **kwargs)
            finally:
                if own_peak:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    tracer._peak_owner = None
                    tracer.peaks[module] = max(tracer.peaks.get(module, 0.0), peak)
                tracer._exit(name, start, n_rows)

        return wrapper

    def _replace_everywhere(self, original, replacement) -> int:
        """Rebind every rmtest module attribute that is ``original``."""
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rmtest" or modname.startswith("rmtest.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        return hits

    def install(self) -> None:
        import rmtest.cli  # noqa: F401  (binds every module's imports)
        from rmtest import algebra

        for modname, attr, rows in TRACED:
            mod = sys.modules[f"rmtest.{modname}"]
            original = getattr(mod, attr)
            self._replace_everywhere(
                original, self.wrap(f"{modname}.{attr}", original, rows)
            )
        for modname in MODULE_WIDE:
            mod = sys.modules[f"rmtest.{modname}"]
            for attr, value in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not inspect.isclass(value)
                    and getattr(value, "__module__", None) == mod.__name__
                ):
                    self._replace_everywhere(value, self.wrap(f"{modname}.{attr}", value))
        poly = algebra.Polynomial
        degree = vars(poly)["degree"]
        self._patches.append((poly, "degree", degree))
        poly.degree = property(self.wrap("algebra.degree", degree.fget))
        evaluate_all = vars(poly)["evaluate_all"]
        self._patches.append((poly, "evaluate_all", evaluate_all))
        poly.evaluate_all = self.wrap("algebra.evaluate_all", evaluate_all)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            dropped=np.array(self.dropped),
            **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.spans.items()},
        )


def layer_metrics(stats: dict, peaks: dict) -> dict:
    """Per-layer values of one traced round, keyed by metric name."""

    def stat(name, i):
        st = stats.get(name)
        return st[i] if st else 0

    out = {}
    for name in ("algebra.batch_interpolate", "algebra.batch_evaluate"):
        out[f"{name}.rows"] = stat(name, 2)
        out[f"{name}.self_s"] = stat(name, 1)
    out["algebra.batch_degrees.self_s"] = stat("algebra.batch_degrees", 1)
    for name in ("algebra.mul_reduced", "algebra.rank_mod", "estimator.trial_rng"):
        out[f"{name}.calls"] = stat(name, 0)
        out[f"{name}.self_s"] = stat(name, 1)
    for name in (
        "algebra.degree",
        "algebra.random_polynomial",
        "algebra.evaluate_all",
        "algebra.interpolate",
        "estimator.estimate",
        "multtests.exact_acceptance_probability",
        "multtests.exact_corr_h_probability",
        "multtests.robust_distance_experiment",
        "multtests.akklr_exact_rejection_probability",
        "multtests.test_e_k",
        "multtests.corr_h",
        "multtests.akklr_test",
        "sztest.degree_drop_probability",
        "sztest.independent_equation_rank",
        "sztest.equation_matrix",
        "rmcode.distance",
        "rmcode.weight_distribution",
        "rmcode.character_membership",
    ):
        out[f"{name}.self_s"] = stat(name, 1)
    out["algebra.coefficient_blocks.rows"] = stat("algebra.coefficient_blocks", 2)
    for mod in MODULE_WIDE:
        out[f"{mod}.self_s"] = sum(st[1] for n, st in stats.items() if n.startswith(mod + "."))
    out["multtests.call_peak_mb"] = peaks.get("multtests", 0.0)
    out["rmcode.call_peak_mb"] = peaks.get("rmcode", 0.0)
    return out
