"""Batch command-line front-end over JSON scenarios.

Each subcommand parses its inputs, runs one library analysis and writes
what it returns as a JSON report. `simulate --out` also writes a CSV
trajectory: it formats each row up to the first repeat once ("%.9g") and
takes the later rows' text from the cycle. `encode_report` writes the
report in one pass (numpy values by `.tolist()`, dataclasses by their
fields, string keys only), byte for byte as
`json.dumps(indent=2, sort_keys=True, allow_nan=False)` would, but it joins
each list of plain floats or ints at once instead of float by float.
`fixtures` needs no scenario: it reports `fixture_report`'s checks of the
bundled networks against the values pinned in `finnet.fixtures`, one stderr
line per check. No plotting and no interaction; the reports carry
plot-ready data. The argument parser is built once per process, on the first
main() call, and every later call parses with it.

Exit codes: 0 on success, 1 when a report's `ok` is false (a pinned
fixture value is off), 2 when the scenario or a flag fails to parse or
validate (a malformed or non-finite number, a drift r = (C - I) threshold + D p
or r - beta that overflows although every entry is finite, a horizon too long to
allocate or too short for the cycle search, or nesting past the recursion limit)
or a file cannot be read or written, 3 on any numerics.SolverError (the base of
every error by which an analysis gives up on valid input) and when the results
hold a non-finite number. Each error is one stderr line: numpy's overflow
warnings are off where finite data can overflow.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .cycles import DETECT_TOL, H_MAX, RHO, InsufficientLengthError, _classify, detect_cycle
from .equilibria import enumerate_equilibria, existence_conditions
from .fixtures import FixtureReport, fixture_report
from .intervene import drive_to_invariant
from .invariance import Polyhedron, invariance_report
from .netmodel import FinancialNetwork, ShiftedModel, Trajectory, simulate, validate
from .numerics import SolverError
from .robust import IntervalNetwork, robust_report

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3


class ScenarioError(ValueError):
    """Scenario file or command-line flag missing, malformed, or failing validation."""


def _reject_constant(token: str) -> float:
    raise ScenarioError(f"non-finite number {token} is not allowed")


def _load_scenario(path: str | None) -> dict | None:
    if path is None:
        return None
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        doc = json.loads(p.read_text(), parse_constant=_reject_constant)
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path}: cannot read scenario file: {e}")
    except json.JSONDecodeError as e:
        raise ScenarioError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    except ScenarioError as e:
        raise ScenarioError(f"{path}: {e}")
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return doc


def _field(doc: dict | None, name: str, where: str = "scenario") -> object:
    if not isinstance(doc, dict):
        raise ScenarioError("this command needs --scenario <path>" if where == "scenario"
                            else f"field '{where}' must be an object")
    if name not in doc:
        raise ScenarioError(f"{where} is missing required field '{name}'")
    return doc[name]


def _holds_bool(value) -> bool:
    """Whether a JSON value has a boolean at any depth; numpy reads [true, 4.0] as [1.0, 4.0]."""
    kinds = set(map(type, value)) if type(value) is list else {type(value)}
    return bool in kinds or (list in kinds and any(map(_holds_bool, value)))


def _floats(doc: dict, name: str, where: str = "scenario", n: int | None = None) -> np.ndarray:
    """Field `name` as an array of finite floats, of shape (n,) if n is given."""
    value = _field(doc, name, where)
    if _holds_bool(value):
        raise ScenarioError(f"{name} is not an array of numbers: it holds a boolean")
    try:
        arr = np.asarray(value)
        if arr.dtype == object and all(type(x) in (int, float) for x in arr.flat):
            arr = arr.astype(float)     # ints past int64; OverflowError past float range
    except (ValueError, OverflowError) as e:
        raise ScenarioError(f"{name} is not an array of numbers: {e}")
    if arr.dtype.kind not in "iuf":
        raise ScenarioError(f"{name} is not an array of numbers: it holds {arr.dtype} entries")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{name} contains non-finite entries")
    if n is not None and arr.shape != (n,):
        raise ScenarioError(f"{name} has shape {arr.shape}, expected ({n},)")
    return arr.astype(float, copy=False)


def _network_from(doc: dict) -> tuple[FinancialNetwork, ShiftedModel]:
    """The scenario's network and its shifted model; ScenarioError when the network fails
    validation or its finite data give a non-finite drift r or r - beta."""
    net = FinancialNetwork(**{name: _floats(_field(doc, "network"), name, "network")
                              for name in ("C", "D", "p", "beta", "threshold")})
    violations = validate(net)
    if violations:
        raise ScenarioError("network validation failed: " + "; ".join(violations))
    with np.errstate(over="ignore", invalid="ignore"):
        r = net.r
        for name, drift in (("r = (C - I) threshold + D p", r), ("r - beta", r - net.beta)):
            if not np.all(np.isfinite(drift)):
                raise ScenarioError(f"derived drift {name} overflows to a non-finite value")
    return net, ShiftedModel.from_network(net)


def _interval_from(doc: dict) -> IntervalNetwork:
    raw = _field(doc, "interval")
    bounds = {name: _floats(raw, name, "interval") for name in ("c_lower", "c_upper", "r")}
    try:
        return IntervalNetwork(**bounds)
    except ValueError as e:
        raise ScenarioError(f"interval bounds rejected: {e}")


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
    for name, low in (("hmax", 1), ("seed", 0)):
        if getattr(args, name) < low:
            raise ScenarioError(f"--{name} must be an integer >= {low}, got {getattr(args, name)}")


class NonFiniteError(ValueError):
    """encode_report met inf or nan; path lists the dict keys down to it."""

    def __init__(self, value: float):
        super().__init__(f"Out of range float values are not JSON compliant: {value!r}")
        self.path: list = []


_FLOATS, _INTS = frozenset({float}), frozenset({int})


def _float(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:         # 'inf', '-inf' and 'nan' are the only float reprs with an n
        raise NonFiniteError(x)
    return text


def encode_report(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False), byte for byte, on trees
    with string keys (as every report is), numpy values written by .tolist() and dataclass
    instances by their fields. TypeError for anything else, a non-string key or a dataclass
    type included; NonFiniteError for a non-finite float."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out: list, nl: str) -> None:
    """Append obj's text to out. nl is a newline and obj's indentation."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, (list, tuple, dict)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        kinds = set(map(type, obj))
        if kinds == _FLOATS or kinds == _INTS:      # one join, no walk; exact types, so repr
            body = ("," + inner).join(map(repr, obj))     # is float.__repr__ or int.__repr__
            if "n" in body:                         # see _float
                raise NonFiniteError(next(x for x in obj if not isfinite(x)))
            out += "[", inner, body, nl, "]"
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")     # TypeError unless a str
            try:
                _write(value, out, inner)
            except NonFiniteError as e:
                e.path.insert(0, key)
                raise
            sep = "," + inner
        out.append(nl + "}")
    else:
        if isinstance(obj, (np.ndarray, np.generic)):
            plain = obj.tolist()
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            plain = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        else:
            raise TypeError(f"{type(obj).__name__} is not JSON serialisable")
        _write(plain, out, nl)


def _write_csv(path: Path, traj: Trajectory) -> None:
    """Rows after traj.repeat copy the cycle's rows, so they copy its text too."""
    n, (t0, t1) = traj.states.shape[1], traj.repeat or (0, traj.T + 1)
    fmt = ",".join(["%.9g"] * n)
    text = [fmt % tuple(row) for row in traj.states[:t1].tolist()]
    cycle, tail = text[t0:], traj.T + 1 - t1
    text += cycle * (tail // len(cycle)) + cycle[:tail % len(cycle)]
    header = ",".join(f"x_{i + 1}" for i in range(n))
    path.write_text(f"t,{header}" + "".join(f"\n{t},{row}" for t, row in enumerate(text)) + "\n")


def cmd_simulate(args, doc: dict) -> dict:
    net, model = _network_from(doc)
    traj = simulate(model, _floats(doc, "x0", n=net.n), _horizon(args, doc, 100))
    results = {
        "T": traj.T,
        "final_x": traj.states[-1],
        "final_v": traj.states[-1] + net.threshold,
        "orthants": traj.orthant_sequence(),
        "csv": None,
    }
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "trajectory.csv", traj)
        results["csv"] = "trajectory.csv"
    return results


def cmd_equilibria(args, doc: dict) -> dict:
    _, model = _network_from(doc)
    records = enumerate_equilibria(model)
    X = np.reshape([rec.x for rec in records], (len(records), model.n))
    rows = zip(records, (X < 0).astype(float).tolist(), X.tolist(),   # phi: x lies in orthant k
               np.reshape([rec.v for rec in records], X.shape).tolist())
    return {
        "count": len(records),
        "equilibria": [{"k": rec.k, "phi": phi, "x": x, "v": v, "interior": rec.interior}
                       for rec, phi, x, v in rows],
        "existence": existence_conditions(model),
    }


def _region_entry(region: Polyhedron | str) -> dict:
    """A region's fields plus its truncation index, or the reason it was not built."""
    if isinstance(region, str):
        return {"error": region}
    return {"tau": region.row_power.max(), **vars(region)}


def cmd_invariance(args, doc: dict) -> dict:
    rep = invariance_report(_network_from(doc)[1])
    return {**vars(rep),
            "regions": {label: _region_entry(r) for label, r in rep.regions.items()}}


def cmd_robust(args, doc: dict) -> dict:
    inet = _interval_from(doc)
    x0 = _floats(doc, "x0", n=inet.n) if "x0" in doc else None
    T = _horizon(args, doc, 200)
    try:
        with np.errstate(over="ignore", invalid="ignore"):     # a sandwich's overflow is typed
            rep = robust_report(inet, x0, T, seed=args.seed)
    except SolverError:
        raise
    except ValueError as e:
        # a precondition on the data: ordered extremes, x0 in the robust invariant set
        raise ScenarioError(f"interval system rejected: {e}")
    sw = rep.sandwich
    return {**vars(rep), "sandwich": None if sw is None else {
        "T": sw.T, "liminf_estimate": sw.liminf_estimate,
        "limsup_estimate": sw.limsup_estimate, "ordered": sw.ordered}}


def cmd_cycles(args, doc: dict) -> dict:
    net, model = _network_from(doc)
    traj = simulate(model, _floats(doc, "x0", n=net.n), _horizon(args, doc, 10000))
    try:    # classification rejects a non-finite trajectory before any search
        cls, hit = _classify(traj, args.rho, args.tol, args.hmax)
        if cls.kind == "critical":      # classification skips the search for these
            hit = detect_cycle(traj, tol=args.tol, h_max=args.hmax)
    except InsufficientLengthError as e:
        raise ScenarioError(f"horizon {traj.T} too short for --hmax {args.hmax}: {e}")
    return {**vars(cls), "detected": None if hit is None else {
        "period": hit.period, "phase": hit.phase, "is_equilibrium": hit.is_equilibrium}}


def cmd_intervene(args, doc: dict) -> dict:
    net, _ = _network_from(doc)
    x0 = _floats(doc, "x0", n=net.n)
    mode = "clamped" if args.clamped_v_update else "verbatim"
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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


def cmd_fixtures(args, doc: dict | None) -> FixtureReport:
    """Check the bundled networks against their pinned values; one stderr line per check."""
    rep = fixture_report(args.seed)
    for c in rep.checks:
        detail = f" ({c['detail']})" if c["detail"] else ""
        print(f"[{'ok ' if c['ok'] else 'FAIL'}] {c['name']}{detail}", file=sys.stderr)
    for note in rep.notes:
        print(f"note: {note}", file=sys.stderr)
    return rep


COMMANDS = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "invariance": cmd_invariance,
    "robust": cmd_robust,
    "cycles": cmd_cycles,
    "intervene": cmd_intervene,
    "fixtures": cmd_fixtures,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later main() call."""
    parser = argparse.ArgumentParser(
        prog="finnet",
        description="Financial-network dynamics: simulation, equilibria, "
                    "invariant regions, cycles, robustness, interventions.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--scenario", help="path to the JSON scenario document")
    parser.add_argument("--out", help="directory for report and CSV files")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for robust and fixtures")
    parser.add_argument("--tol", type=float, default=DETECT_TOL, help="detection tolerance")
    parser.add_argument("--horizon", type=int, default=None, help="simulation horizon override")
    parser.add_argument("--hmax", type=int, default=H_MAX, help="largest period searched")
    parser.add_argument("--rho", type=float, default=RHO, help="criticality margin")
    parser.add_argument("--nonnegative-injection", action="store_true",
                        help="restrict injections to v >= 0")
    update = parser.add_mutually_exclusive_group()
    update.add_argument("--verbatim-v-update", action="store_true",
                        help="loop update v <- v - x(t): the default, kept as an alias")
    update.add_argument("--clamped-v-update", dest="clamped_v_update",
                        action="store_true", help="loop update v <- max(v - x(t), 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        _check_flags(args)
        doc = _load_scenario(args.scenario)
        results = COMMANDS[args.command](args, doc)
        text = encode_report({
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
            "results": results,
            "wall_time_s": round(time.perf_counter() - started, 6),
        })
        if args.out is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{args.command}_report.json").write_text(text + "\n")
        else:
            print(text)
    except (ScenarioError, MemoryError) as e:   # MemoryError: say, a horizon too long to hold
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except RecursionError:      # json.loads, _holds_bool and encode_report recurse per level
        print("error: scenario is nested too deeply", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:                        # --out, the CSV or the report cannot be written
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_INVALID
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except NonFiniteError as e:
        if e.path[0] == "inputs":
            print("error: scenario contains a non-finite number", file=sys.stderr)
            return EXIT_INVALID
        print("solver failure: results contain a non-finite number", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK if getattr(results, "ok", True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
