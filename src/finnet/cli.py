"""Batch command-line front-end over JSON scenarios.

Each subcommand reads one scenario document, runs one library analysis,
and writes what it returns as a JSON report (dataclasses by their fields;
plus a CSV trajectory where that makes sense).
No plotting and no interaction; the reports carry plot-ready data.

Exit codes: 0 on success, 2 when the scenario or a flag fails to parse
or validate, 3 when a solver gives up.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import fixtures as fixture_lib
from .cycles import InsufficientLengthError, classify_trajectory, detect_cycle
from .equilibria import DimensionTooLargeError, enumerate_equilibria, existence_conditions
from .intervene import (
    InjectionProblem,
    IterationCapReached,
    drive_to_invariant,
    minimal_injection,
)
from .invariance import (
    NoPositiveEquilibriumError,
    NotDeterminedError,
    Polyhedron,
    finite_determination_index,
    invariance_report,
    last_orthant_invariant,
    maximal_invariant_region,
    orthant0_invariant,
    stable_region,
)
from .netmodel import FinancialNetwork, ShiftedModel, simulate, validate
from .numerics import (
    InfeasibleError,
    IterationLimitError,
    LinearProgram,
    SingularMatrixError,
    UnboundedError,
    lp_solve,
)
from .robust import IntervalNetwork, robust_report

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3

SOLVER_ERRORS = (
    SingularMatrixError,
    DimensionTooLargeError,
    InfeasibleError,
    UnboundedError,
    NoPositiveEquilibriumError,
    NotDeterminedError,
    InsufficientLengthError,
    IterationCapReached,
    IterationLimitError,
)


class ScenarioError(ValueError):
    """Scenario file or command-line flag missing, malformed, or failing validation."""


def _reject_constant(token: str) -> float:
    raise ScenarioError(f"non-finite number {token} is not allowed")


def _load_scenario(path: str | None) -> dict:
    if path is None:
        raise ScenarioError("this command needs --scenario <path>")
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = json.loads(p.read_text(), parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except ScenarioError as e:
        raise ScenarioError(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return doc


def _field(doc: dict, name: str, where: str = "scenario") -> object:
    if name not in doc:
        raise ScenarioError(f"{where} is missing required field '{name}'")
    return doc[name]


def _network_from(doc: dict) -> FinancialNetwork:
    raw = _field(doc, "network")
    if not isinstance(raw, dict):
        raise ScenarioError("field 'network' must be an object")
    kwargs = {}
    for name in ("C", "D", "p", "beta", "threshold"):
        kwargs[name] = np.asarray(_field(raw, name, "network"), dtype=float)
    try:
        net = FinancialNetwork(**kwargs)
    except (ValueError, TypeError) as e:
        raise ScenarioError(f"network does not assemble: {e}")
    report = validate(net)
    if not report.ok:
        raise ScenarioError("network validation failed: " + "; ".join(report.violations))
    return net


def _interval_from(doc: dict) -> IntervalNetwork:
    raw = _field(doc, "interval")
    if not isinstance(raw, dict):
        raise ScenarioError("field 'interval' must be an object")
    try:
        inet = IntervalNetwork(
            c_lower=np.asarray(_field(raw, "c_lower", "interval"), dtype=float),
            c_upper=np.asarray(_field(raw, "c_upper", "interval"), dtype=float),
            r=np.asarray(_field(raw, "r", "interval"), dtype=float))
    except ValueError as e:
        raise ScenarioError(f"interval bounds rejected: {e}")
    for name in ("c_lower", "c_upper", "r"):
        if not np.all(np.isfinite(getattr(inet, name))):
            raise ScenarioError(f"interval {name} contains non-finite entries")
    return inet


def _x0_from(doc: dict, n: int) -> np.ndarray:
    x0 = np.asarray(_field(doc, "x0"), dtype=float)
    if x0.shape != (n,):
        raise ScenarioError(f"x0 has shape {x0.shape}, expected ({n},)")
    if not np.all(np.isfinite(x0)):
        raise ScenarioError("x0 contains non-finite entries")
    return x0


def _horizon(args, doc: dict, default: int) -> int:
    T = args.horizon if args.horizon is not None else doc.get("horizon", default)
    if type(T) is not int or T < 0:     # rejects bools, floats and strings too
        raise ScenarioError(f"horizon must be an integer >= 0, got {T!r}")
    return T


def _check_flags(args) -> None:
    for name in ("tol", "rho"):
        value = getattr(args, name)
        if not (np.isfinite(value) and value >= 0):
            raise ScenarioError(f"--{name} must be finite and >= 0, got {value!r}")
    if args.hmax < 1:
        raise ScenarioError(f"--hmax must be an integer >= 1, got {args.hmax}")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _has_non_finite(doc) -> bool:
    try:
        json.dumps(doc, allow_nan=False)
    except ValueError:
        return True
    return False


def _write_csv(path: Path, states: np.ndarray) -> None:
    n = states.shape[1]
    lines = ["t," + ",".join(f"x_{i + 1}" for i in range(n))]
    text: dict[bytes, str] = {}         # a settled trajectory repeats its rows exactly
    for t, row in enumerate(states):
        key = row.tobytes()
        if key not in text:
            text[key] = ",".join(f"{v:.9g}" for v in row)
        lines.append(f"{t},{text[key]}")
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args, doc: dict) -> dict:
    net = _network_from(doc)
    model = ShiftedModel.from_network(net)
    x0 = _x0_from(doc, net.n)
    traj = simulate(model, x0, _horizon(args, doc, 100))
    results = {
        "T": traj.T,
        "final_x": traj.states[-1],
        "final_v": traj.states[-1] + net.threshold,
        "orthants": [int(k) for k in traj.orthant_sequence()],
        "csv": None,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "trajectory.csv", traj.states)
        results["csv"] = "trajectory.csv"
    return results


def cmd_equilibria(args, doc: dict) -> dict:
    net = _network_from(doc)
    model = ShiftedModel.from_network(net)
    records = enumerate_equilibria(model)
    return {
        "count": len(records),
        "equilibria": [
            {"k": rec.k, "phi": rec.phi.tolist(), "x": rec.x,
             "v": rec.v, "interior": rec.interior}
            for rec in records
        ],
        "existence": existence_conditions(model),
    }


def _region_entry(region: Polyhedron | str) -> dict:
    """A region's fields plus its truncation index, or the reason it was not built."""
    if isinstance(region, str):
        return {"error": region}
    return {"tau": int(region.row_power.max()), **vars(region)}


def cmd_invariance(args, doc: dict) -> dict:
    rep = invariance_report(ShiftedModel.from_network(_network_from(doc)), seed=args.seed)
    return {**vars(rep),
            "regions": {label: _region_entry(r) for label, r in rep.regions.items()}}


def cmd_robust(args, doc: dict) -> dict:
    inet = _interval_from(doc)
    x0 = _x0_from(doc, inet.n) if "x0" in doc else None
    T = _horizon(args, doc, 200)
    try:
        rep = robust_report(inet, x0, T, seed=args.seed)
    except SOLVER_ERRORS:
        raise
    except ValueError as e:
        # a precondition on the data (ordered extremes, x0 in the robust
        # invariant set), not a solver giving up
        raise ScenarioError(f"interval system rejected: {e}")
    sw = rep.sandwich
    return {**vars(rep), "sandwich": None if sw is None else {
        "T": sw.T, "liminf_estimate": sw.liminf_estimate,
        "limsup_estimate": sw.limsup_estimate, "ordered": sw.ordered}}


def cmd_cycles(args, doc: dict) -> dict:
    net = _network_from(doc)
    model = ShiftedModel.from_network(net)
    x0 = _x0_from(doc, net.n)
    traj = simulate(model, x0, _horizon(args, doc, 10000))
    cls = classify_trajectory(traj, rho=args.rho, tol=args.tol, h_max=args.hmax)
    try:
        hit = detect_cycle(traj, tol=args.tol, h_max=args.hmax)
        detected = None if hit is None else {
            "period": hit.period, "phase": hit.phase,
            "is_equilibrium": hit.is_equilibrium}
    except InsufficientLengthError as e:
        detected = {"error": str(e)}
    return {**vars(cls), "detected": detected}


def cmd_intervene(args, doc: dict) -> dict:
    net = _network_from(doc)
    x0 = _x0_from(doc, net.n)
    mode = "clamped" if args.clamped_v_update else "verbatim"
    plan = drive_to_invariant(net, x0, mode=mode,
                              nonnegative_injection=args.nonnegative_injection)
    return {
        "mode": plan.mode,
        "injection": plan.injection,
        "iterations": plan.iterations,
        "success": plan.success,
        "final_x": plan.final_x,
        "region_rows": plan.region.n_rows,
        "steps": [
            {"iteration": s.iteration, "objective": s.objective,
             "residuals": s.residuals, "x": s.x, "v": s.v, "D": s.D}
            for s in plan.steps
        ],
    }


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def cmd_fixtures(args, doc: dict | None) -> dict:
    """Re-run the three bundled example networks against their pinned values."""
    checks: list[dict] = []
    notes: list[str] = []

    # Example network 1: mutual 2-bank holdings.
    net = fixture_lib.two_bank()
    model = ShiftedModel.from_network(net)
    _check(checks, "two_bank.healthy_invariant", orthant0_invariant(model))
    _check(checks, "two_bank.failed_invariant", last_orthant_invariant(model))
    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    quad = {0: (6.0, 6.0), 1: (16 / 3, 14 / 3), 2: (14 / 3, 16 / 3), 3: (4.0, 4.0)}
    for k, v in quad.items():
        ok = k in recs and np.allclose(recs[k].v, v, atol=1e-3)
        _check(checks, f"two_bank.equilibrium_k{k}", ok)
    for k, lo, hi in ((1, (5.0, 4.0), (6.0, 5.0)), (2, (4.0, 5.0), (5.0, 6.0))):
        poly, _ = stable_region(model, recs[k])
        box_ok = True
        for i in range(2):
            c = np.zeros(2)
            c[i] = 1.0
            low = lp_solve(LinearProgram(c=c, A=poly.A, b=poly.b)).objective
            high = -lp_solve(LinearProgram(c=-c, A=poly.A, b=poly.b)).objective
            box_ok &= abs(low + net.threshold[i] - lo[i]) <= 1e-6
            box_ok &= abs(high + net.threshold[i] - hi[i]) <= 1e-6
        _check(checks, f"two_bank.quadrant_box_k{k}", box_ok)
    for k in (0, 3):
        _check(checks, f"two_bank.tau_k{k}", finite_determination_index(model, k) == 1)

    # Example network 2: 4-cycle with the period-8 orbit.
    net = fixture_lib.ring4()
    model = ShiftedModel.from_network(net)
    recs = enumerate_equilibria(model)
    _check(checks, "ring4.count", len(recs) == 8, f"found {len(recs)}")
    values = {rec.k: rec.x for rec in recs}
    a, g, d = fixture_lib.RING4_ALPHA, fixture_lib.RING4_GAMMA, fixture_lib.RING4_DELTA
    expected = {
        0: (5.0, 5.0, 5.0, 5.0),
        15: (-5.0, -5.0, -5.0, -5.0),
        3: (a, g, -a, -g), 12: (-a, -g, a, g),
        5: (d, -d, d, -d), 10: (-d, d, -d, d),
        6: (g, -a, -g, a), 9: (-g, a, g, -a),
    }
    for k, pat in expected.items():
        ok = k in values and np.allclose(values[k], pat, atol=1e-3)
        _check(checks, f"ring4.equilibrium_k{k}", ok)
    traj = simulate(model, fixture_lib.RING4_ORBIT[0], 400)
    err = float(np.max(np.abs(traj.states[:8] - fixture_lib.RING4_ORBIT)))
    _check(checks, "ring4.orbit_rows", err <= 1e-3, f"max err {err:.2e}")
    hit = detect_cycle(traj)
    _check(checks, "ring4.period", hit is not None and hit.period == 8)
    for k in (0, 15):
        _check(checks, f"ring4.tau_k{k}", finite_determination_index(model, k) == 1)

    # Example network 3: complete graph, injection and the driving loop.
    net = fixture_lib.complete10()
    model = ShiftedModel.from_network(net)
    region = maximal_invariant_region(model, 0)
    x0 = np.asarray(fixture_lib.SAMPLE_STATE10)
    v = minimal_injection(InjectionProblem(region=region, x=x0))
    sample = np.asarray(fixture_lib.SAMPLE_INJECTION10)
    flip = np.ones(10, dtype=bool)
    flip[list(fixture_lib.SAMPLE_SURPLUS_COMPONENTS)] = False
    _check(checks, "complete10.flips",
           bool(np.max(np.abs(v[flip] + x0[flip])) <= 1e-3))
    # Each deficit row (C y)_i + r_i >= 0 with C = 1/12, r_i = -0.075 and
    # y >= 0 bounds 1.y below by 0.9; components 8 and 10 tie, so the
    # optimum is the segment y_8 + y_10 = 0.9 and the LP returns one end.
    total = float(np.sum(v + x0))
    _check(checks, "complete10.minimal_total", abs(total - 0.9) <= 1e-9,
           f"1.(x0 + v) = {total:.6f}")
    mag_err = float(np.max(np.abs(v[~flip] - sample[~flip])))
    if mag_err > 1e-3:
        notes.append(
            f"surplus magnitudes differ from the bundled sample by {mag_err:.4f}: "
            "components 8 and 10 tie, so any split of the minimal total 0.9 "
            "between them is optimal, and the sample (total "
            f"{float(np.sum(x0 + sample)):.4f}) is not minimal on this network")
    rng = np.random.default_rng(args.seed)
    start = rng.uniform(-1.0, 1.0, size=10)
    plan = drive_to_invariant(net, start)
    _check(checks, "complete10.drive_terminates", plan.success,
           f"{plan.iterations} iterations")
    worst = max((max(s.residuals.values()) for s in plan.steps), default=0.0)
    _check(checks, "complete10.drive_feasible_steps", worst <= 1e-8,
           f"worst residual {worst:.2e}")

    ok = all(c["ok"] for c in checks)
    return {"ok": ok, "checks": checks, "notes": notes}


COMMANDS = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "invariance": cmd_invariance,
    "robust": cmd_robust,
    "cycles": cmd_cycles,
    "intervene": cmd_intervene,
    "fixtures": cmd_fixtures,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finnet",
        description="Financial-network dynamics: simulation, equilibria, "
                    "invariant regions, cycles, robustness, interventions.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", help="path to the JSON scenario document")
    parser.add_argument("--out", help="directory for report and CSV files")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed where sampling is involved")
    parser.add_argument("--tol", type=float, default=1e-9, help="detection tolerance")
    parser.add_argument("--horizon", type=int, default=None, help="simulation horizon override")
    parser.add_argument("--hmax", type=int, default=64, help="largest period searched")
    parser.add_argument("--rho", type=float, default=1e-6, help="criticality margin")
    parser.add_argument("--nonnegative-injection", action="store_true",
                        help="restrict injections to v >= 0")
    update = parser.add_mutually_exclusive_group()
    update.add_argument("--verbatim-v-update", action="store_true",
                        help="loop update v <- v - x(t): the default, kept as an alias")
    update.add_argument("--clamped-v-update", dest="clamped_v_update",
                        action="store_true", help="loop update v <- max(v - x(t), 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        _check_flags(args)
        if args.command == "fixtures":
            doc = _load_scenario(args.scenario) if args.scenario else None
            results = cmd_fixtures(args, doc)
        else:
            doc = _load_scenario(args.scenario)
            results = COMMANDS[args.command](args, doc)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except SOLVER_ERRORS as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER

    report = {
        "command": args.command,
        "version": __version__,
        "inputs": {
            "scenario": doc,
            "seed": args.seed,
            "tol": args.tol,
            "horizon": args.horizon,
            "hmax": args.hmax,
            "rho": args.rho,
            "nonnegative_injection": args.nonnegative_injection,
            "v_update": "clamped" if args.clamped_v_update else "verbatim",
        },
        "results": _jsonable(results),
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        if _has_non_finite(doc):
            print("error: scenario contains a non-finite number", file=sys.stderr)
            return EXIT_INVALID
        print("solver failure: results contain a non-finite number", file=sys.stderr)
        return EXIT_SOLVER
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.command}_report.json").write_text(text + "\n")
    else:
        print(text)

    if args.command == "fixtures":
        for c in results["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            line = f"[{mark}] {c['name']}"
            if c["detail"]:
                line += f" ({c['detail']})"
            print(line, file=sys.stderr)
        for note in results["notes"]:
            print(f"note: {note}", file=sys.stderr)
        if not results["ok"]:
            return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
