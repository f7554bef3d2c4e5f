"""Spans around finnet's public functions, recorded from outside the package.

``instrumented(tracer)`` rebinds every finnet module attribute (and every
value of a module-level dict, such as ``cli.COMMANDS``) that is bound to a
public function of one of the eight layers, so names imported with
``from .numerics import ...`` are wrapped too, and wraps
``Trajectory.orthant_sequence`` on its class. Everything is restored on
exit. Each span records its id, parent id, task and start/end times; a
function's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("netmodel", "equilibria", "invariance", "cycles", "robust", "intervene", "numerics", "cli")

# Leaves called once per step or per projection: a span each would cost
# more than the work, so they are counted only.
COUNT_ONLY = {"numerics.project_halfspace", "numerics.project_nonneg",
              "netmodel.indicator", "netmodel.orthant_of"}

# (inner, outer) -> counter: calls of inner made while outer is open.
NESTED = {
    ("numerics.lu_solve", "equilibria.enumerate_equilibria"): "equilibria.candidates",
    ("netmodel.simulate", "cli.cmd_cycles"): "cli.simulate_in_cmd_cycles",
    ("robust.robust_invariant_set", "robust.sandwich_bounds"): "robust.robust_invariant_set.in_sandwich",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _plan(result, exc):
    return result if exc is None else getattr(exc, "plan", None)


# Counters derived from arguments and return values: name -> observer.
def _observe_simulate(c, a, k, res, exc):
    c["netmodel.simulate.steps"] += _arg(a, k, 2, "T")


def _observe_stable(c, a, k, res, exc):
    c["invariance.stable_region.tau_sum"] += res[1]
    c["invariance.region_rows"] += res[0].n_rows
    c.max("invariance.tau_max", res[1])


def _observe_drive(c, a, k, res, exc):
    plan = _plan(res, exc)
    if plan is not None:
        c["intervene.drive_to_invariant.iterations"] += plan.iterations
        c["intervene.drive_to_invariant.successes"] += plan.success


OBSERVERS = {
    "netmodel.simulate": _observe_simulate,
    "equilibria.enumerate_equilibria":
        lambda c, a, k, res, exc: c.add("equilibria.found", len(res)),
    "invariance.stable_region": _observe_stable,
    "invariance.maximal_invariant_region":
        lambda c, a, k, res, exc: c.add("invariance.region_rows", res.n_rows),
    "invariance.finite_determination_index":
        lambda c, a, k, res, exc: c.max("invariance.tau_max", res),
    "invariance.row_redundant":
        lambda c, a, k, res, exc: c.add("invariance.row_redundant.redundant", bool(res)),
    "invariance.prune_redundant":
        lambda c, a, k, res, exc: (c.add("invariance.prune_redundant.rows_in", a[0].n_rows),
                                   c.add("invariance.prune_redundant.rows_kept", res.n_rows)),
    "cycles.verify_no_period2":
        lambda c, a, k, res, exc: c.add("cycles.verify_no_period2.trials", res.trials),
    "robust.sandwich_bounds":
        lambda c, a, k, res, exc: c.add("robust.sandwich_bounds.steps", res.T),
    "intervene.drive_to_invariant": _observe_drive,
    "numerics.lp_solve":
        lambda c, a, k, res, exc: (c.add("numerics.lp_solve.rows_sum", _arg(a, k, 0, "lp").A.shape[0]),
                                   c.max("numerics.lp_solve.cs_residual_max", res.cs_residual)),
    "numerics.convex_solve":
        lambda c, a, k, res, exc: (c.add("numerics.convex_solve.iterations", res.iterations),
                                   c.add("numerics.convex_solve.converged", bool(res.converged))),
}


class Counters(Counter):
    def add(self, key, value):
        self[key] += value

    def max(self, key, value):
        self[key] = max(self.get(key, value), value)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []       # (id, parent, task, name, t0, t1)
        self.counts = Counters()
        self.task: str | None = None
        self._stack: list[int] = []
        self._open = Counter()
        self._ids = itertools.count()

    def wrap(self, name, fn):
        counts = self.counts
        if name in COUNT_ONLY:
            key = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, open_, ids, clock = self.spans, self._stack, self._open, self._ids, time.perf_counter
        nested = [(outer, key) for (inner, outer), key in NESTED.items() if inner == name]
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for outer, key in nested:
                if open_[outer]:
                    counts[key] += 1
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            open_[name] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                open_[name] -= 1
                spans.append((sid, parent, self.task, name, t0, t1))
                if observe is not None and (exc is None or name == "intervene.drive_to_invariant"):
                    observe(counts, args, kwargs, result, exc)
        return traced

    def summary(self) -> tuple[dict, float]:
        """Per-function calls / total / self seconds, and the root-span total.

        Raises ValueError if a child span is not nested inside its parent.
        """
        child = defaultdict(float)
        bounds = {sid: (t0, t1) for sid, _, _, _, t0, t1 in self.spans}
        for sid, parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                p0, p1 = bounds[parent]
                if t0 < p0 or t1 > p1:
                    raise ValueError(f"span {sid} escapes its parent {parent}")
                child[parent] += t1 - t0
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        root = 0.0
        for sid, parent, _, name, t0, t1 in self.spans:
            s = stats[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += (t1 - t0) - child[sid]
            if parent < 0:
                root += t1 - t0
        for key, calls in self.counts.items():
            if key.endswith(".calls") and key[:-len(".calls")] in COUNT_ONLY:
                stats[key[:-len(".calls")]][0] += calls
        return dict(stats), root


def _layer_functions():
    """{function object: 'layer.name'} for every public function of a layer."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"finnet.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                found[obj] = f"{layer}.{attr}"
    return found


@contextmanager
def instrumented(tracer: Tracer):
    import finnet
    from finnet.netmodel import Trajectory

    names = _layer_functions()
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in names.items()}
    modules = [finnet] + [importlib.import_module(f"finnet.{m}") for m in LAYERS + ("fixtures",)]
    restore = []
    try:
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    restore.append((setattr, mod, attr, obj))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]
                            restore.append((dict.__setitem__, obj, key, val))
        original = Trajectory.orthant_sequence
        Trajectory.orthant_sequence = tracer.wrap("netmodel.orthant_sequence", original)
        restore.append((setattr, Trajectory, "orthant_sequence", original))
        yield tracer
    finally:
        for setter, target, key, value in reversed(restore):
            setter(target, key, value)


# -- per-layer metrics ---------------------------------------------------------

def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(stats: dict, counts: Counters, passes: int, extra: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, per traced pass.

    Times are ms and counts are per pass; ratios and maxima are over the
    whole traced run. extra supplies trace.overhead_frac, trace.unwrapped_ms
    and cli.report_bytes, which the worker measures.
    """
    def calls(fn):
        return stats.get(fn, [0, 0.0, 0.0])[0]

    def self_ms(fn):
        return 1e3 * stats.get(fn, [0, 0.0, 0.0])[2] / passes

    def per_pass(value):
        return value / passes

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    for layer in LAYERS:
        mine = [v for k, v in stats.items() if k.split(".")[0] == layer]
        put(f"{layer}.calls", per_pass(sum(v[0] for v in mine)), "count")
        put(f"{layer}.self_ms", 1e3 * sum(v[2] for v in mine) / passes, "ms")

    steps = counts["netmodel.simulate.steps"]
    put("netmodel.simulate.calls", per_pass(calls("netmodel.simulate")), "count")
    put("netmodel.simulate.steps", per_pass(steps), "count")
    put("netmodel.simulate.us_per_step",
        _ratio(1e6 * stats.get("netmodel.simulate", [0, 0.0, 0.0])[1], steps), "us")
    put("netmodel.orthant_sequence.self_ms", self_ms("netmodel.orthant_sequence"), "ms")
    put("netmodel.validate.self_ms", self_ms("netmodel.validate"), "ms")

    candidates = counts["equilibria.candidates"]
    put("equilibria.enumerate_equilibria.self_ms", self_ms("equilibria.enumerate_equilibria"), "ms")
    put("equilibria.candidates", per_pass(candidates), "count")
    put("equilibria.found", per_pass(counts["equilibria.found"]), "count")
    put("equilibria.found_per_candidate", _ratio(counts["equilibria.found"], candidates), "ratio")
    put("equilibria.candidate_equilibrium.calls", per_pass(calls("equilibria.candidate_equilibrium")), "count")

    put("invariance.stable_region.self_ms", self_ms("invariance.stable_region"), "ms")
    put("invariance.stable_region.tau_sum", per_pass(counts["invariance.stable_region.tau_sum"]), "count")
    put("invariance.row_redundant.calls", per_pass(calls("invariance.row_redundant")), "count")
    put("invariance.row_redundant.redundant_ratio",
        _ratio(counts["invariance.row_redundant.redundant"], calls("invariance.row_redundant")), "ratio")
    put("invariance.prune_redundant.self_ms", self_ms("invariance.prune_redundant"), "ms")
    put("invariance.prune_redundant.kept_ratio",
        _ratio(counts["invariance.prune_redundant.rows_kept"],
               counts["invariance.prune_redundant.rows_in"]), "ratio")
    put("invariance.maximal_invariant_region.self_ms", self_ms("invariance.maximal_invariant_region"), "ms")
    put("invariance.region_rows", per_pass(counts["invariance.region_rows"]), "count")
    put("invariance.tau_max", counts.get("invariance.tau_max", 0), "count")

    put("cycles.classify_limit.self_ms", self_ms("cycles.classify_limit"), "ms")
    put("cycles.detect_cycle.self_ms", self_ms("cycles.detect_cycle"), "ms")
    put("cycles.verify_no_period2.self_ms", self_ms("cycles.verify_no_period2"), "ms")
    put("cycles.verify_no_period2.trials", per_pass(counts["cycles.verify_no_period2.trials"]), "count")

    put("robust.sandwich_bounds.self_ms", self_ms("robust.sandwich_bounds"), "ms")
    put("robust.sandwich_bounds.steps", per_pass(counts["robust.sandwich_bounds.steps"]), "count")
    put("robust.robust_invariant_set.calls_per_sandwich",
        _ratio(counts["robust.robust_invariant_set.in_sandwich"], calls("robust.sandwich_bounds")), "ratio")

    drives = calls("intervene.drive_to_invariant")
    iterations = counts["intervene.drive_to_invariant.iterations"]
    put("intervene.drive_to_invariant.self_ms", self_ms("intervene.drive_to_invariant"), "ms")
    put("intervene.drive_to_invariant.iterations", per_pass(iterations), "count")
    put("intervene.drive_to_invariant.success_ratio",
        _ratio(counts["intervene.drive_to_invariant.successes"], drives), "ratio")
    put("intervene.asset_reallocation.self_ms", self_ms("intervene.asset_reallocation"), "ms")
    put("intervene.reallocation_feasible.calls_per_iteration",
        _ratio(calls("intervene.reallocation_feasible"), iterations), "ratio")
    put("intervene.minimal_injection.self_ms", self_ms("intervene.minimal_injection"), "ms")

    for fn in ("lu_factor", "lu_solve", "solve_linear", "invert", "lp_solve"):
        put(f"numerics.{fn}.calls", per_pass(calls(f"numerics.{fn}")), "count")
        put(f"numerics.{fn}.self_ms", self_ms(f"numerics.{fn}"), "ms")
    put("numerics.lp_solve.rows_sum", per_pass(counts["numerics.lp_solve.rows_sum"]), "count")
    put("numerics.lp_solve.cs_residual_max", counts.get("numerics.lp_solve.cs_residual_max", 0.0), "1")
    put("numerics.convex_solve.iterations", per_pass(counts["numerics.convex_solve.iterations"]), "count")
    put("numerics.convex_solve.converged_ratio",
        _ratio(counts["numerics.convex_solve.converged"], calls("numerics.convex_solve")), "ratio")
    put("numerics.dykstra.self_ms", self_ms("numerics.dykstra"), "ms")
    put("numerics.project_halfspace.calls", per_pass(counts["numerics.project_halfspace.calls"]), "count")

    put("cli.main.self_ms", self_ms("cli.main"), "ms")
    for command in ("simulate", "equilibria", "invariance", "robust", "cycles", "intervene"):
        put(f"cli.cmd_{command}.self_ms", self_ms(f"cli.cmd_{command}"), "ms")
    put("cli.report_bytes", extra["cli.report_bytes"], "bytes")
    put("cli.simulate_per_cycles_task",
        _ratio(counts["cli.simulate_in_cmd_cycles"], calls("cli.cmd_cycles")), "ratio")

    put("trace.overhead_frac", extra["trace.overhead_frac"], "ratio")
    put("trace.unwrapped_ms", extra["trace.unwrapped_ms"], "ms")
    return out


def function_table(stats: dict, passes: int) -> dict:
    """calls / total_ms / self_ms per pass for every wrapped function."""
    table = {}
    for name, (calls, total, self_) in sorted(stats.items()):
        table[f"{name}.calls"] = (calls / passes, "count")
        if name not in COUNT_ONLY:
            table[f"{name}.total_ms"] = (1e3 * total / passes, "ms")
            table[f"{name}.self_ms"] = (1e3 * self_ / passes, "ms")
    return table
