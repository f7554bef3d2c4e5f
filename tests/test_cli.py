"""Command-line front end: reports, CSV output, exit codes."""

import argparse
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import finnet
from finnet import cli, cycles, equilibria, fixtures, intervene, numerics, robust
from finnet.cli import EXIT_INVALID, EXIT_OK, EXIT_SOLVER, main
from finnet.netmodel import ShiftedModel, Trajectory, simulate


def net_doc(net) -> dict:
    return {
        "C": np.asarray(net.C).tolist(),
        "D": np.asarray(net.D).tolist(),
        "p": np.asarray(net.p).tolist(),
        "beta": np.asarray(net.beta).tolist(),
        "threshold": np.asarray(net.threshold).tolist(),
    }


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_bank_scenario(tmp_path):
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-1.0, -1.0],
           "horizon": 40}
    return write_scenario(tmp_path, doc)


def load_report(out_dir, command):
    return json.loads((out_dir / f"{command}_report.json").read_text())


def test_simulate_report_and_csv(tmp_path, two_bank_scenario):
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", two_bank_scenario, "--out", str(out)])
    assert code == EXIT_OK
    report = load_report(out, "simulate")
    assert report["command"] == "simulate"
    assert report["results"]["T"] == 40
    assert len(report["results"]["final_x"]) == 2
    assert report["results"]["csv"] == "trajectory.csv"
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) == 42                   # header + T+1 states
    assert lines[1].startswith("0,-1,-1")


def test_simulate_zero_horizon_single_row(tmp_path, two_bank_scenario):
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", two_bank_scenario,
                 "--out", str(out), "--horizon", "0"])
    assert code == EXIT_OK
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 2                    # header + initial state only


def fresh_csv(states):
    """Every row formatted on its own, as the writer did before it reused the cycle's text."""
    lines = ["t," + ",".join(f"x_{i + 1}" for i in range(states.shape[1]))]
    return "\n".join(lines + [f"{t}," + ",".join(f"{v:.9g}" for v in row)
                              for t, row in enumerate(states)]) + "\n"


def test_csv_formats_repeated_rows_like_fresh_ones(tmp_path):
    # rows 1 and 3 are equal, so 1..2 is the cycle, and 0.0 / -0.0 differ in text
    states = np.array([[0.0, -0.0], [-0.0, 0.0], [1 / 3, 2.0], [-0.0, 0.0], [1 / 3, 2.0],
                       [-0.0, 0.0]])
    ring = ShiftedModel.from_network(fixtures.ring4())
    trajs = [Trajectory(states=states, repeat=(1, 3)), Trajectory(states=states[:3]),
             simulate(ring, fixtures.RING4_ORBIT[0], 154)]   # h = 8: 30 rows past 125
    assert trajs[2].repeat == (117, 125)
    for traj in trajs:
        cli._write_csv(tmp_path / "t.csv", traj)
        assert (tmp_path / "t.csv").read_text() == fresh_csv(traj.states)
    expected = fresh_csv(states).splitlines()
    assert expected[1] == "0,0,-0" and expected[2] == "1,-0,0" and expected[4] == "3,-0,0"


def test_simulate_exact_orthant_codes_past_int64(tmp_path):
    rng = np.random.default_rng(70)
    net = fixtures.random_network(rng, 70)
    x0 = rng.uniform(-2.0, 2.0, size=70)
    doc = {"network": net_doc(net), "x0": x0.tolist(), "horizon": 30}
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(out)]) == EXIT_OK
    model = ShiftedModel.from_network(net)
    x, expected = x0, []
    for _ in range(31):
        expected.append(int("".join("1" if v < 0 else "0" for v in x), 2))
        x = model.step(x)
    codes = load_report(out, "simulate")["results"]["orthants"]
    assert codes == expected and max(codes) >= 2 ** 63


def _horizon_scenario(command):
    if command == "robust":
        net = fixtures.two_bank()
        return {"interval": {"c_lower": (0.9 * net.C).tolist(),
                             "c_upper": (1.1 * net.C).tolist(), "r": [0.5, 0.5]},
                "x0": [1.0, 1.0], "horizon": "HORIZON"}
    return {"network": net_doc(fixtures.two_bank()), "x0": [-1.0, -1.0], "horizon": "HORIZON"}


@pytest.mark.parametrize("command", ["simulate", "cycles", "robust"])
@pytest.mark.parametrize("horizon, flag", [("1e999", None), ("-3", None), ('"100"', None),
                                           ("2.7", None), ("true", None), ("40", "-1")])
def test_bad_horizon_exit2(tmp_path, capsys, command, horizon, flag):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_horizon_scenario(command)).replace('"HORIZON"', horizon))
    argv = [command, "--scenario", str(path)] + ([f"--horizon={flag}"] if flag else [])
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: horizon must be an integer >= 0, got ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "cycles", "robust"])
def test_unallocatable_horizon_exit2(tmp_path, capsys, command):
    # 10^15 + 1 states of two floats is 14 PiB, past the address space, so
    # numpy refuses the allocation at once and nothing is touched
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_horizon_scenario(command)).replace('"HORIZON"', "40"))
    assert main([command, "--scenario", str(path), f"--horizon={10 ** 15}"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


MALFORMED = {"string": "abc", "object": {"a": 1}, "ragged": [[1.0, 2.0], [3.0]],
             "strings": ["1", "2"], "past_float_range": 10 ** 400, "null": None,
             "boolean": True}


@pytest.mark.parametrize("bad", sorted(MALFORMED))
@pytest.mark.parametrize("field", ["network.C", "network.D", "network.p", "network.beta",
                                   "network.threshold", "x0", "interval.c_lower",
                                   "interval.c_upper", "interval.r"])
def test_malformed_number_exit2(tmp_path, capsys, field, bad):
    command = "robust" if field.startswith("interval.") else "simulate"
    doc = {**_horizon_scenario(command), "horizon": 5}
    *parent, name = field.split(".")
    (doc[parent[0]] if parent else doc)[name] = MALFORMED[bad]
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} ") and "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("value", [None, [1.0], 5, "net"], ids=["null", "list", "number", "string"])
@pytest.mark.parametrize("command, field", [("simulate", "network"), ("robust", "interval")])
def test_section_not_an_object_exit2(tmp_path, capsys, command, field, value):
    doc = {**_horizon_scenario(command), "horizon": 5, field: value}
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"error: field '{field}' must be an object\n" and captured.out == ""


@pytest.mark.parametrize("field, index, number", [
    ("network.p", (0,), 1), ("network.C", (1, 1), 0), ("x0", (1,), 1), ("interval.r", (0,), 0)],
    ids=["p", "C", "x0", "interval.r"])
def test_boolean_inside_numbers_exit2(tmp_path, capsys, field, index, number):
    # numpy reads [true, 4.0] as [1.0, 4.0], so the JSON values are checked
    # first; the same entry as a number runs
    command = "robust" if field.startswith("interval.") else "simulate"
    doc = {**_horizon_scenario(command), "horizon": 5}
    *parent, name = field.split(".")
    entries = (doc[parent[0]] if parent else doc)[name]
    for i in index[:-1]:
        entries = entries[i]
    for value, code in ((bool(number), EXIT_INVALID), (number, EXIT_OK)):
        entries[index[-1]] = value
        assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == code
        captured = capsys.readouterr()
        if code == EXIT_INVALID:
            assert captured.err == f"error: {name} is not an array of numbers: it holds a boolean\n"
            assert captured.out == ""


def test_integers_past_int64_are_numbers(tmp_path, capsys):
    # JSON integers are exact; one past int64 still reads as the nearest float
    doc = {**_horizon_scenario("simulate"), "horizon": 5}
    reports = []
    for price in (2 ** 64, float(2 ** 64)):
        doc["network"]["p"] = [price, 4]
        assert main(["simulate", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out)["results"])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
                                         ("--rho", "inf"), ("--rho", "nan"), ("--rho", "-1e-6"),
                                         ("--hmax", "0"), ("--hmax", "-5"), ("--seed", "-1")])
def test_bad_flag_exit2(capsys, two_bank_scenario, flag, value):
    assert main(["cycles", "--scenario", two_bank_scenario, f"{flag}={value}"]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be ")
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_flags_at_their_bounds_exit0(capsys, two_bank_scenario):
    argv = ["cycles", "--scenario", two_bank_scenario, "--tol=0", "--rho=0", "--hmax=1",
            "--seed=0"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags", [[], ["--rho=10"]], ids=["healthy", "critical"])
def test_cycles_horizon_too_short_exit2(tmp_path, capsys, flags):
    # 21 states for 2 hmax + 8 = 136: the same exit whether or not the
    # trajectory grazes a switching boundary (rho 10 makes it critical)
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [1.0, 1.0], "horizon": 20}
    assert main(["cycles", "--scenario", write_scenario(tmp_path, doc)] + flags) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == ("error: horizon 20 too short for --hmax 64: "
                            "need at least 136 states, got 21\n")
    assert captured.out == ""


def test_cycle_search_defaults_are_the_named_constants():
    # `is`: the very objects, not equal literals written out again
    named = {"tol": cycles.DETECT_TOL, "h_max": cycles.H_MAX, "rho": cycles.RHO}
    args = cli.build_parser().parse_args(["cycles"])
    defaults = [(args.tol, "tol"), (args.hmax, "h_max"), (args.rho, "rho")]
    for fn in (cycles.detect_cycle, cycles.classify_trajectory):
        params = inspect.signature(fn).parameters
        defaults += [(params[k].default, k) for k in named if k in params]
    assert len(defaults) == 8 and all(value is named[k] for value, k in defaults)


def test_simulate_prints_to_stdout_without_out(two_bank_scenario, capsys):
    assert main(["simulate", "--scenario", two_bank_scenario]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["csv"] is None


def test_equilibria_report(tmp_path, two_bank_scenario):
    out = tmp_path / "out"
    assert main(["equilibria", "--scenario", two_bank_scenario,
                 "--out", str(out)]) == EXIT_OK
    res = load_report(out, "equilibria")["results"]
    assert res["count"] == 4
    assert res["existence"]["positive_exists"] is True
    assert res["existence"]["positive_unique"] is False
    ks = sorted(rec["k"] for rec in res["equilibria"])
    assert ks == [0, 1, 2, 3]


@pytest.mark.parametrize("name", ["ring4", "complete10", "boundary"])
def test_equilibria_report_rows_are_the_records(tmp_path, capsys, name):
    """Each report row is its library record: phi the bits of k, v = x + threshold,
    interior the INTERIOR_TOL test; the boundary network has an x_i of exactly 0."""
    doc = BOUNDARY_DOC if name == "boundary" else {"network": net_doc(getattr(fixtures, name)())}
    assert main(["equilibria", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["results"]["equilibria"]
    _, model = cli._network_from(doc)
    records = equilibria.enumerate_equilibria(model)
    assert [row["k"] for row in rows] == [rec.k for rec in records]
    for row, rec in zip(rows, records):
        assert row["phi"] == rec.phi.tolist() and row["x"] == rec.x.tolist()
        assert row["v"] == rec.v.tolist() == (rec.x + model.threshold).tolist()
        assert row["interior"] is rec.interior is bool(np.min(np.abs(rec.x)) > equilibria.INTERIOR_TOL)
    assert name != "boundary" or not all(row["interior"] for row in rows)


def test_invariance_report(tmp_path, two_bank_scenario):
    out = tmp_path / "out"
    assert main(["invariance", "--scenario", two_bank_scenario,
                 "--out", str(out)]) == EXIT_OK
    res = load_report(out, "invariance")["results"]
    assert res["healthy_orthant_invariant"] is True
    assert res["failed_orthant_invariant"] is True
    assert res["regions"]["healthy"]["tau"] == 1
    assert res["regions"]["failed"]["tau"] == 1
    assert len(res["intermediates"]) == 2
    assert all(item["status"] == "not_invariant" for item in res["intermediates"])


def test_invariance_report_does_not_follow_the_seed(tmp_path):
    path = write_scenario(tmp_path, {"network": net_doc(fixtures.ring4()),
                                     "x0": fixtures.RING4_ORBIT[0].tolist()})
    results = []
    for seed in ("0", "7"):
        out = tmp_path / f"out{seed}"
        assert main(["invariance", "--scenario", path, "--out", str(out),
                     "--seed", seed]) == EXIT_OK
        results.append(load_report(out, "invariance")["results"])
    assert len(results[0]["intermediates"]) == 14
    assert results[0] == results[1]


BOUNDARY_DOC = {"network": {"C": [[0, .5], [.5, 0]], "D": [[1, 0], [0, 1]], "p": [1, 1],
                             "beta": [1, 1], "threshold": [2, 1]}, "x0": [-.5, .5]}
BOUNDARY_ERROR = ("orthant 0 equilibrium lies on the boundary (min |x_i| = 0.000e+00 <= 1e-09): "
                  "rounding would decide")


def test_invariance_region_of_boundary_equilibrium_is_an_error_entry(tmp_path):
    # the healthy equilibrium is x = (0, 1); a search capped at 10^4 powers certified tau = 2
    out = tmp_path / "out"
    path = write_scenario(tmp_path, BOUNDARY_DOC)
    assert main(["invariance", "--scenario", path, "--out", str(out)]) == EXIT_OK
    res = load_report(out, "invariance")["results"]
    assert res["regions"]["healthy"] == {"error": BOUNDARY_ERROR}
    assert res["regions"]["failed"]["tau"] == 1


def test_intervene_at_boundary_equilibrium_exit3_at_once(tmp_path, capsys, monkeypatch):
    # with the region certified, 1,000 futile reallocations ran for seconds before exit 3
    monkeypatch.setattr(intervene, "asset_reallocation", None)
    path = write_scenario(tmp_path, BOUNDARY_DOC)
    started = time.perf_counter()
    assert main(["intervene", "--scenario", path]) == EXIT_SOLVER
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.err == f"solver failure: {BOUNDARY_ERROR}\n"
    assert captured.out == ""


def test_robust_report_with_sandwich(tmp_path):
    net = fixtures.two_bank()
    doc = {
        "interval": {
            "c_lower": (0.9 * np.asarray(net.C)).tolist(),
            "c_upper": (1.1 * np.asarray(net.C)).tolist(),
            "r": [0.5, 0.5],
        },
        "x0": [1.0, 1.0],
        "horizon": 150,
    }
    out = tmp_path / "out"
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(out), "--seed", "3"]) == EXIT_OK
    res = load_report(out, "robust")["results"]
    np.testing.assert_allclose(res["x_lower"], [10 / 11] * 2, atol=1e-9)
    np.testing.assert_allclose(res["x_upper"], [10 / 9] * 2, atol=1e-9)
    assert res["sandwich"]["ordered"] is True
    assert res["last_hope_membership"] is True


def test_robust_builds_each_region_once(tmp_path, monkeypatch):
    # the robust region, the last-hope region and last-hope membership share
    # two builds: one per extreme, cached on the IntervalNetwork
    builds = []
    build = robust._region_from
    monkeypatch.setattr(robust, "_region_from",
                        lambda model, eq: builds.append(model.C) or build(model, eq))
    path = write_scenario(tmp_path, json.loads(
        json.dumps(_horizon_scenario("robust")).replace('"HORIZON"', "60")))
    assert main(["robust", "--scenario", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    net = fixtures.two_bank()
    assert len(builds) == 2
    np.testing.assert_array_equal(builds[0], 0.9 * net.C)
    np.testing.assert_array_equal(builds[1], 1.1 * net.C)


def test_robust_start_outside_robust_set_exit2(tmp_path, capsys):
    doc = {"interval": {"c_lower": [[0.0, 0.45], [0.45, 0.0]],
                        "c_upper": [[0.0, 0.55], [0.55, 0.0]], "r": [0.5, 0.5]},
           "x0": [-1.0, 1.0]}
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == ("error: interval system rejected: x0 is outside the robust "
                            "invariant set; bounds would not apply\n")
    assert captured.out == ""


def test_robust_with_an_overflowing_sandwich_exit3(tmp_path, capsys, monkeypatch):
    # a sampled trajectory past float range is a solver failure, not bad input
    monkeypatch.setattr(robust, "uniform_sampler", lambda inet, seed=0: (
        lambda t0, t1: np.full((t1 - t0, inet.n, inet.n), 1e308)))
    path = write_scenario(tmp_path, json.loads(
        json.dumps(_horizon_scenario("robust")).replace('"HORIZON"', "60")))
    assert main(["robust", "--scenario", path]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "solver failure: sampled trajectory is not finite from step 1\n"
    assert captured.out == ""


def overflow_doc(D, p, threshold=(5.0, 5.0), beta=(1.0, 1.0), **extra):
    """two_bank with every entry finite but scaled so that the dynamics overflow."""
    net = net_doc(fixtures.two_bank())
    net.update(D=[[D, 0.0], [0.0, D]], p=list(p), threshold=list(threshold), beta=list(beta))
    return {"network": net, "x0": [1.0, 1.0], **extra}


NETWORK_COMMANDS = ["simulate", "equilibria", "invariance", "cycles", "intervene"]


@pytest.mark.parametrize("command", NETWORK_COMMANDS)
@pytest.mark.parametrize("doc, name", [
    (overflow_doc(1e200, (1e200, 1e200)), "r = (C - I) threshold + D p"),
    (overflow_doc(1.0, (1.0, 1.0), threshold=(1.7e308, 1.7e308), beta=(1.5e308, 1.5e308)),
     "r - beta")], ids=["r", "r-beta"])
def test_derived_drift_overflow_exit2(tmp_path, capsys, command, doc, name):
    # every entry is finite, but D p (or r - beta) is not; an overflow warning would
    # raise here, as RuntimeWarning is an error in this suite
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"error: derived drift {name} overflows to a non-finite value\n"
    assert captured.out == ""


# D = I, p = (1, 1), threshold = 0, beta = 1e308: the drift is finite, and so is every
# equilibrium but the all-failed one, w - M (1, 1) = (2 - 2e308, 2 - 2e308)
BETA_OVERFLOW = overflow_doc(1.0, (1.0, 1.0), threshold=(0.0, 0.0), beta=(1e308, 1e308))
EQUILIBRIUM_OVERFLOW = "solver failure: an equilibrium overflows to a non-finite value\n"


@pytest.mark.parametrize("command", NETWORK_COMMANDS)
def test_overflowing_equilibrium_is_one_stderr_line(tmp_path, capsys, command):
    # a numpy warning escaping main would raise here, as RuntimeWarning is an error in this suite
    code = main([command, "--scenario", write_scenario(tmp_path, BETA_OVERFLOW)])
    err = capsys.readouterr().err
    if command == "equilibria":
        assert (code, err) == (EXIT_SOLVER, EQUILIBRIUM_OVERFLOW)
    else:
        assert (code, err) == (EXIT_OK, "")


def test_overflowing_equilibrium_is_one_stderr_line_in_a_fresh_process(tmp_path):
    proc = run_module(["equilibria", "--scenario", write_scenario(tmp_path, BETA_OVERFLOW)],
                      tmp_path)
    assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_SOLVER, EQUILIBRIUM_OVERFLOW, "")


TRUNCATION_ERROR = ("orthant 0 equilibrium has min |x_i| / |x|_1 = nan: "
                    "no truncation bound")


def test_non_finite_truncation_bound_exit3(tmp_path, capsys):
    # r is finite, but the healthy candidate (I - C)^-1 r overflows to inf
    path = write_scenario(tmp_path, overflow_doc(1.5e308, (1.0, 1.0)))
    assert main(["intervene", "--scenario", path]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == f"solver failure: {TRUNCATION_ERROR}\n" and captured.out == ""
    assert main(["invariance", "--scenario", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["results"]["regions"]["healthy"] == {"error": TRUNCATION_ERROR}
    assert captured.err == ""
    # the lower extreme's fixed point r / 0.55 is finite, its 1-norm is not: ratio 0
    doc = {"interval": {"c_lower": [[0.0, 0.45], [0.45, 0.0]],
                        "c_upper": [[0.0, 0.55], [0.55, 0.0]], "r": [0.8e308, 0.8e308]}}
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == ("solver failure: orthant 0 equilibrium has min |x_i| / |x|_1 = 0: "
                            "no truncation bound\n") and captured.out == ""


@pytest.mark.parametrize("command, message", [
    ("simulate", "solver failure: results contain a non-finite number"),
    ("cycles", "solver failure: trajectory is not finite from step 2")])
def test_overflowing_run_exit3(tmp_path, capsys, command, message):
    path = write_scenario(tmp_path, overflow_doc(1.5e308, (1.0, 1.0), horizon=300))
    assert main([command, "--scenario", path]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


@pytest.mark.parametrize("network, x0, message", [
    # the second reallocation's target is about 1e268: |y - v| overflows to inf
    ({"C": [[0, 0.5], [0.5, 0]], "D": [[1, 0], [0, 1]], "p": [1e290, 1], "beta": [1, 1],
      "threshold": [1e268, 1]}, [0.5, -3], "results contain a non-finite number"),
    # |p|^2 underflows to 0: h' = 1 / |p| comes from prices in units of the largest
    ({"C": [[0, 0.4], [0.4, 0]], "D": [[1], [1]], "p": [1e-229], "beta": [1, 1],
      "threshold": [-3, -1]}, [-2, 1], "state still outside the invariant region"),
    # |y(0) - v|^2 overflows, so the traced root is kappa = inf and its projection's
    # KKT residual is nan: a typed error, where a bare ValueError escaped before
    ({"C": [[0, 0.5], [0.5, 0]], "D": [[1, 0], [0, 1]], "p": [1e180, 1], "beta": [1, 1],
      "threshold": [-2, 0]}, [8e281, -4e266], "projection KKT residual is nan"),
], ids=["overflowing-dual", "underflowing-prices", "non-finite-residual"])
def test_intervene_at_extreme_scales_exit3(tmp_path, capsys, network, x0, message):
    path = write_scenario(tmp_path, {"network": network, "x0": x0})
    assert main(["intervene", "--scenario", path]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err.startswith(f"solver failure: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("x0", [1.7e308, -1.7e308])
def test_intervene_with_overflowing_injection_data_exit3(tmp_path, capsys, x0):
    # row 0 of C sums to 1.2, so region.A @ x0 overflows: b is not finite
    network = {"C": [[0, 0.6, 0.6], [0.3, 0, 0.3], [0.05, 0.05, 0]],
               "D": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "p": [5, 5, 5],
               "beta": [0.5, 0.5, 0.5], "threshold": [0.1, 0.1, 0.1]}
    path = write_scenario(tmp_path, {"network": network, "x0": [x0] * 3})
    assert main(["intervene", "--scenario", path]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "solver failure: LP data has non-finite entries\n"
    assert captured.out == ""


@pytest.mark.parametrize("flags, code", [([], EXIT_SOLVER), (["--nonnegative-injection"], EXIT_OK)],
                         ids=["free", "nonnegative"])
def test_intervene_near_float_range_exit(tmp_path, capsys, flags, code):
    # complete10 at x0 = 1e308: b is finite, but the free injection's 1.v is past float
    # range (its answer, -1e308 everywhere, missed M+ by 0.075 through overflow warnings);
    # the nonnegative injection is exactly 0, and x0 already lies in M+
    doc = {"network": net_doc(fixtures.complete10()), "x0": [1e308] * 10}
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc)] + flags) == code
    captured = capsys.readouterr()
    if code == EXIT_SOLVER:
        assert captured.err == ("solver failure: injection LP at this state overflows floats: "
                                "overflow encountered in matmul\n") and captured.out == ""
    else:
        res = json.loads(captured.out)["results"]
        assert res["injection"] == [0.0] * 10 and res["success"] and res["iterations"] == 0


def test_intervene_with_a_stalled_cold_projection_exit3(tmp_path, capsys, monkeypatch):
    def stalling(A, b, y, lam=None):
        raise numerics.IterationLimitError("projection residual 1e-3 after 100 Newton steps")
    monkeypatch.setattr(intervene, "project_polyhedron", stalling)
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-3.0, -3.0]}
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "solver failure: projection residual 1e-3 after 100 Newton steps\n"
    assert captured.out == ""


def test_every_finnet_exception_has_an_exit_code():
    # the CLI exits 3 on any SolverError; main handles the only three other classes, which
    # exit 2 (a NonFiniteError in the results exits 3)
    exit2 = {cli.ScenarioError, cli.NonFiniteError, cycles.InsufficientLengthError}
    found = set()
    for info in pkgutil.iter_modules(finnet.__path__):
        module = importlib.import_module(f"finnet.{info.name}")
        found |= {obj for obj in vars(module).values() if isinstance(obj, type)
                  and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    assert exit2 <= found and len(found) >= 13
    assert {cls.__name__ for cls in found - exit2
            if not issubclass(cls, numerics.SolverError)} == set()
    assert not any(issubclass(cls, numerics.SolverError) for cls in exit2)


def test_cycles_searches_once_per_call(tmp_path, monkeypatch):
    # classification's search gives the detected block; a critical run skips that
    # search, so the command makes its own
    calls = []
    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)
    search = cycles.detect_cycle
    monkeypatch.setattr(cycles, "detect_cycle", counted)
    monkeypatch.setattr(cli, "detect_cycle", counted)
    doc = {"network": net_doc(fixtures.ring4()),
           "x0": fixtures.RING4_ORBIT[0].tolist(), "horizon": 500}
    path = write_scenario(tmp_path, doc)
    for flags, kind in (([], "cycle"), (["--rho=10"], "critical")):
        calls.clear()
        out = tmp_path / kind
        assert main(["cycles", "--scenario", path, "--out", str(out)] + flags) == EXIT_OK
        res = load_report(out, "cycles")["results"]
        assert res["kind"] == kind and res["detected"]["period"] == 8
        assert len(calls) == 1


def test_intervene_without_healthy_equilibrium_exit3(tmp_path, capsys):
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-3.0, -3.0]}
    doc["network"]["p"] = [1.0, 1.0]
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "solver failure: orthant 0 has no consistent equilibrium\n"
    assert captured.out == ""


def key_paths(obj, prefix=""):
    """Dotted paths of every key in a report; list items share the path 'name[]'."""
    paths = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            paths |= {prefix + k} | key_paths(v, prefix + k + ".")
    elif isinstance(obj, list):
        for v in obj:
            paths |= key_paths(v, prefix[:-1] + "[].")
    return paths


def region_paths(name):
    return {name} | {f"{name}.{k}" for k in ("A", "b", "certified", "note", "row_power")}


REPORT_PATHS = {
    "simulate": {"T", "csv", "final_v", "final_x", "orthants"},
    "equilibria": {"count", "equilibria", "existence"}
    | {f"equilibria[].{k}" for k in ("interior", "k", "phi", "v", "x")}
    | {f"existence.{k}" for k in ("negative_exists", "negative_unique", "positive_exists",
                                  "positive_unique", "w_minus", "w_plus")},
    "invariance": {"failed_orthant_invariant", "healthy_orthant_invariant", "intermediates",
                   "regions", "regions.failed.tau", "regions.healthy.tau"}
    | {f"intermediates[].{k}" for k in ("k", "reason", "status", "witness")}
    | region_paths("regions.failed") | region_paths("regions.healthy"),
    "robust": {"last_hope_membership", "sandwich", "x_lower", "x_upper"}
    | {f"sandwich.{k}" for k in ("T", "liminf_estimate", "limsup_estimate", "ordered")}
    | region_paths("last_hope") | region_paths("robust_region"),
    "cycles": {"detected", "first_critical", "kind", "orbit", "period", "point", "rho",
               "transient"} | {f"detected.{k}" for k in ("is_equilibrium", "period", "phase")},
    "intervene": {"final_x", "injection", "iterations", "mode", "region_rows", "steps", "success"}
    | {f"steps[].{k}" for k in ("D", "iteration", "objective", "residuals", "v", "x")}
    | {f"steps[].residuals.{k}" for k in ("colsum", "equilibrium", "nonneg")},
    "fixtures": {"checks", "notes", "ok"} | {f"checks[].{k}" for k in ("detail", "name", "ok")},
}


def fixture_scenario(command):
    if command == "robust":
        return _horizon_scenario("robust") | {"horizon": 60}
    if command == "cycles":
        return {"network": net_doc(fixtures.ring4()),
                "x0": fixtures.RING4_ORBIT[0].tolist(), "horizon": 500}
    x0 = [-3.0, -3.0] if command == "intervene" else [-1.0, -1.0]
    return {"network": net_doc(fixtures.two_bank()), "x0": x0, "horizon": 40}


@pytest.mark.parametrize("command", sorted(REPORT_PATHS))
def test_report_key_paths_are_pinned(tmp_path, capsys, command):
    argv = [command]
    if command != "fixtures":
        argv += ["--scenario", write_scenario(tmp_path, fixture_scenario(command))]
    assert main(argv) == EXIT_OK
    assert key_paths(json.loads(capsys.readouterr().out)["results"]) == REPORT_PATHS[command]


def test_robust_report_without_start_has_null_sandwich(tmp_path, capsys):
    doc = _horizon_scenario("robust")
    del doc["x0"], doc["horizon"]
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_OK
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["sandwich"] is None and res["last_hope_membership"] is None
    assert key_paths(res) == REPORT_PATHS["robust"] - {
        f"sandwich.{k}" for k in ("T", "liminf_estimate", "limsup_estimate", "ordered")}


@dataclasses.dataclass
class _Inner:
    values: np.ndarray
    flag: np.bool_


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    items: list
    table: dict
    count: np.int64
    note: str | None = None


def test_encode_serialises_nested_dataclasses_by_fields():
    obj = _Outer(inner=_Inner(values=np.array([[1.0, 2.0]]), flag=np.bool_(True)),
                 items=[_Inner(values=np.zeros(1), flag=np.bool_(False)), (1, 2)],
                 table={"3": _Inner(values=np.array([]), flag=np.bool_(True))},
                 count=np.int64(7))
    out = json.loads(cli.encode_report(obj))
    assert out == {"inner": {"values": [[1.0, 2.0]], "flag": True},
                   "items": [{"values": [0.0], "flag": False}, [1, 2]],
                   "table": {"3": {"values": [], "flag": True}},
                   "count": 7, "note": None}
    assert type(out["count"]) is int and type(out["inner"]["flag"]) is bool
    with pytest.raises(TypeError):                  # a dataclass type is not an instance
        cli.encode_report({"cls": _Inner})


def reference_default(obj):
    """The json.dumps default= hook that encode_report replaces."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serialisable")


def reference_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=reference_default)


@pytest.mark.parametrize("command", sorted(REPORT_PATHS))
def test_encode_report_matches_json_dumps_on_cli_reports(tmp_path, capsys, monkeypatch, command):
    reports, encode = [], cli.encode_report
    monkeypatch.setattr(cli, "encode_report",
                        lambda report: reports.append(report) or encode(report))
    argv = [command]
    if command != "fixtures":
        argv += ["--scenario", write_scenario(tmp_path, fixture_scenario(command))]
    assert main(argv) == EXIT_OK
    (report,) = reports
    assert capsys.readouterr().out == reference_dumps(report) + "\n"


_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from([-0.0, 0.0, 1e16, 5e-324, -5e-324, 1.7976931348623157e308]))
_NUMPY = (st.lists(_FLOATS, max_size=6).map(np.array)
          | st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=3).map(np.array)
          | st.lists(st.integers(-2**63, 2**63 - 1), max_size=4).map(
              lambda xs: np.array(xs, dtype=np.int64))
          | _FLOATS.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
          | st.booleans().map(np.bool_))
_LEAVES = st.text(max_size=4) | st.integers() | st.booleans() | st.none() | _FLOATS | _NUMPY
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(_FLOATS, max_size=4)
                   | st.lists(st.integers(), max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_NESTED)
@example({"a": [-0.0, 1e16, 5e-324], "b": [], "c": {}, "d": [[], {}, 0.0, 1, True, None, "s"],
          "e": [1, -0.0, 2.5], "f": [3, -4], "g": [True, False]})
@example([-0.0, 1e16, 5e-324, np.float64(-0.0), np.array([1e16, 5e-324, -0.0])])
def test_encode_report_is_json_dumps(obj):
    assert cli.encode_report(obj) == reference_dumps(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["float list", "mixed list", "scalar", "numpy"])
def test_encode_report_rejects_non_finite(value, where):
    inner = {"float list": [1.0, value, 2.0], "mixed list": [1, "a", value], "scalar": value,
             "numpy": np.array([0.5, value])}[where]
    with pytest.raises(cli.NonFiniteError) as caught:
        cli.encode_report({"results": {"x": inner}, "inputs": {"tol": 1e-9}})
    assert caught.value.path == ["results", "x"]
    with pytest.raises(ValueError):
        reference_dumps(inner)


def test_encode_report_rejects_non_string_keys():
    # every report's keys are strings; json.dumps would write this key as "1"
    with pytest.raises(TypeError):
        cli.encode_report({1: 0.0})


def test_cycles_report(tmp_path):
    doc = {"network": net_doc(fixtures.ring4()),
           "x0": fixtures.RING4_ORBIT[0].tolist(), "horizon": 500}
    out = tmp_path / "out"
    assert main(["cycles", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(out)]) == EXIT_OK
    res = load_report(out, "cycles")["results"]
    assert res["kind"] == "cycle" and res["period"] == 8
    assert res["detected"]["period"] == 8
    assert len(res["orbit"]) == 8


def test_intervene_report(tmp_path):
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-3.0, -3.0]}
    out = tmp_path / "out"
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc),
                 "--out", str(out), "--clamped-v-update"]) == EXIT_OK
    report = load_report(out, "intervene")
    assert report["inputs"]["v_update"] == "clamped"
    res = report["results"]
    assert res["success"] is True and res["iterations"] >= 1
    assert len(res["steps"]) == res["iterations"]
    assert all(max(s["residuals"].values()) <= 1e-8 for s in res["steps"])


def test_reports_are_deterministic(tmp_path, two_bank_scenario):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["equilibria", "--scenario", two_bank_scenario,
                     "--out", str(out), "--seed", "9"]) == EXIT_OK
        report = load_report(out, "equilibria")
        report.pop("wall_time_s")
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]


def test_malformed_json_exit2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"network": [1, 2,')
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "invalid JSON at line 1, column" in err


@pytest.mark.parametrize("top", [[1.0], 5, "net", None], ids=["list", "number", "string", "null"])
def test_top_level_not_an_object_exit2(tmp_path, capsys, top):
    path = write_scenario(tmp_path, top)
    assert main(["simulate", "--scenario", path]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: top level must be a JSON object\n" and captured.out == ""


@pytest.mark.parametrize("command, doc, where, name", [
    ("simulate", {"x0": [0.0, 0.0]}, "scenario", "network"),
    ("simulate", {"network": {"C": [[0.0]], "D": [[1.0]], "p": [1.0], "beta": [1.0]}},
     "network", "threshold"),
    ("robust", {"interval": {"c_lower": [[0.1]], "c_upper": [[0.2]]}}, "interval", "r")],
    ids=["network", "network.threshold", "interval.r"])
def test_missing_required_field_exit2(tmp_path, capsys, command, doc, where, name):
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"error: {where} is missing required field '{name}'\n"
    assert captured.out == ""


@pytest.mark.parametrize("interval, reason", [
    ({"c_lower": [[0.2]], "c_upper": [[0.1]], "r": [1.0]}, "c_upper must dominate c_lower entrywise"),
    ({"c_lower": [[-0.1]], "c_upper": [[0.1]], "r": [1.0]}, "c_lower has negative entries"),
    ({"c_lower": [[0.1]], "c_upper": [[1.0]], "r": [1.0]}, "c_upper column sums must be < 1"),
    ({"c_lower": [[0.1]], "c_upper": [[0.2]], "r": [1.0, 1.0]}, "r has wrong shape")],
    ids=["undominated", "negative", "colsum", "r-shape"])
def test_rejected_interval_bounds_exit2(tmp_path, capsys, interval, reason):
    doc = {"interval": interval}
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == f"error: interval bounds rejected: {reason}\n" and captured.out == ""


def test_missing_scenario_exit2(capsys):
    assert main(["simulate"]) == EXIT_INVALID
    assert "needs --scenario" in capsys.readouterr().err


def test_missing_file_exit2(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == EXIT_INVALID
    assert "not found" in capsys.readouterr().err


def test_scenario_not_utf8_exit2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"network": "\xe9"}'.encode("latin-1"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: cannot read scenario file: 'utf-8' codec")
    assert captured.err.count("\n") == 1 and captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "invariance"])
def test_out_under_a_regular_file_exit2(tmp_path, capsys, two_bank_scenario, command):
    # simulate fails on its CSV, invariance on its report
    out = tmp_path / "file" / "out"
    out.parent.write_text("")
    assert main([command, "--scenario", two_bank_scenario, "--out", str(out)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output: ") and str(out) in captured.err
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_invalid_network_exit2(tmp_path, capsys):
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [0.0, 0.0]}
    doc["network"]["C"] = [[0.0, 0.9], [0.9, 0.0]]
    doc["network"]["C"][0][1] = 1.5           # column sum above 1
    assert main(["simulate", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    assert "validation failed" in capsys.readouterr().err


def test_bad_x0_shape_exit2(tmp_path, capsys):
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [1.0, 2.0, 3.0]}
    assert main(["simulate", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    assert "x0 has shape" in capsys.readouterr().err


def test_solver_failure_exit3(tmp_path, capsys):
    # collapsed interval whose equilibrium has a negative component
    C = [[0.0, 0.4], [0.4, 0.0]]
    doc = {"interval": {"c_lower": C, "c_upper": C, "r": [1.0, -1.0]}}
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_equilibria_past_enumeration_guard_exit3(tmp_path, capsys):
    net = fixtures.random_network(np.random.default_rng(25), 25)
    doc = {"network": net_doc(net)}
    assert main(["equilibria", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err.startswith("solver failure: n=25 exceeds enumeration guard 24")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_exit2(tmp_path, capsys, token):
    doc = json.dumps({"network": net_doc(fixtures.two_bank()), "x0": [0.0, -1.0]})
    path = tmp_path / "scenario.json"
    path.write_text(doc.replace("[0.0, -1.0]", f"[{token}, -1]"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert token in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, field", [("simulate", "x0"), ("robust", "r"),
                                            ("intervene", "x0")])
def test_infinite_input_exit2(tmp_path, capsys, command, field):
    # 1e999 is valid JSON; it parses to inf, which no analysis can use
    if command == "robust":
        C = [[0.0, 0.2], [0.2, 0.0]]
        doc = {"interval": {"c_lower": C, "c_upper": C, "r": [0.5, -2.0]}}
    else:
        doc = {"network": net_doc(fixtures.two_bank()), "x0": [0.0, -2.0]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc).replace("-2.0", "1e999"))
    assert main([command, "--scenario", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert f"{field} contains non-finite entries" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_infinite_unused_field_exit2(tmp_path, capsys, two_bank_scenario):
    doc = json.loads(Path(two_bank_scenario).read_text())
    doc["comment"] = -2.0
    path = tmp_path / "comment.json"
    path.write_text(json.dumps(doc).replace("-2.0", "1e999"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == "error: scenario contains a non-finite number\n"
    assert captured.out == ""


def test_non_finite_result_exit3(tmp_path, capsys, monkeypatch, two_bank_scenario):
    monkeypatch.setitem(cli.COMMANDS, "simulate", lambda args, doc: {"x": np.array([np.inf])})
    assert main(["simulate", "--scenario", two_bank_scenario]) == EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.err == "solver failure: results contain a non-finite number\n"
    assert captured.out == ""


def test_simplex_iteration_cap_exit3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(numerics, "SIMPLEX_MAX_ITER", 1)
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-3.0, -3.0]}
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "simplex iteration cap" in err and "Traceback" not in err


def test_unconverged_reallocation_exit3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(intervene, "REALLOCATION_MAX_ITER", 1)
    doc = {"network": net_doc(fixtures.complete10()), "x0": fixtures.SAMPLE_STATE10.tolist()}
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "reallocation not converged" in err and "Traceback" not in err


def test_verbatim_v_update_flag_is_the_default(tmp_path):
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-3.0, -3.0]}
    path = write_scenario(tmp_path, doc)
    reports = []
    for flags in ([], ["--verbatim-v-update"]):
        out = tmp_path / f"out{len(flags)}"
        assert main(["intervene", "--scenario", path, "--out", str(out), *flags]) == EXIT_OK
        report = load_report(out, "intervene")
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["inputs"]["v_update"] == "verbatim"


INPUT_KEYS = {"scenario", "seed", "tol", "horizon", "hmax", "rho", "nonnegative_injection",
              "v_update"}


@pytest.mark.parametrize("flags", [
    [],
    ["--seed", "3", "--tol", "1e-7", "--horizon", "40", "--hmax", "8", "--rho", "1e-5",
     "--nonnegative-injection", "--clamped-v-update"]], ids=["defaults", "every-flag"])
def test_inputs_echo_the_parsed_flags(tmp_path, capsys, two_bank_scenario, flags):
    argv = ["equilibria", "--scenario", two_bank_scenario, *flags]
    assert main(argv) == EXIT_OK
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    args = vars(cli.build_parser().parse_args(argv))
    assert set(inputs) == INPUT_KEYS
    assert inputs == {**{key: args[key] for key in INPUT_KEYS},
                      "scenario": json.loads(Path(two_bank_scenario).read_text())}
    assert inputs["v_update"] == ("clamped" if "--clamped-v-update" in flags else "verbatim")


def test_unordered_extremes_exit2(tmp_path, capsys):
    # negative r flips the monotone ordering of the extreme fixed points
    doc = {"interval": {"c_lower": [[0.1]], "c_upper": [[0.2]], "r": [-1.0]}}
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    assert "interval system rejected" in capsys.readouterr().err


FIXTURE_CHECKS = (
    ["two_bank.healthy_invariant", "two_bank.failed_invariant"]
    + [f"two_bank.equilibrium_k{k}" for k in range(4)]
    + ["two_bank.quadrant_box_k1", "two_bank.quadrant_box_k2", "two_bank.tau_k0",
       "two_bank.tau_k3", "ring4.count"]
    + [f"ring4.equilibrium_k{k}" for k in (0, 15, 3, 12, 5, 10, 6, 9)]
    + ["ring4.orbit_rows", "ring4.period", "ring4.tau_k0", "ring4.tau_k15",
       "complete10.flips", "complete10.minimal_total", "complete10.drive_terminates",
       "complete10.drive_feasible_steps"])


def test_fixtures_checks_are_pinned_in_order(capsys):
    assert main(["fixtures"]) == EXIT_OK
    captured = capsys.readouterr()
    assert len(FIXTURE_CHECKS) == 27
    assert [c["name"] for c in json.loads(captured.out)["results"]["checks"]] == FIXTURE_CHECKS
    assert re.findall(r"^\[ok \] (\S+)", captured.err, re.M) == FIXTURE_CHECKS


def test_fixtures_off_pinned_value_exit1(capsys, monkeypatch):
    monkeypatch.setitem(fixtures.TWO_BANK_EQUILIBRIA, 0, (6.5, 6.0))
    assert main(["fixtures"]) == cli.EXIT_CHECK_FAILED == 1
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if "FAIL" in line] == [
        "[FAIL] two_bank.equilibrium_k0"]
    results = json.loads(captured.out)["results"]
    assert results["ok"] is False
    assert [c["name"] for c in results["checks"] if not c["ok"]] == ["two_bank.equilibrium_k0"]


def test_fixtures_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fixtures", "--out", str(out)]) == EXIT_OK
    report = load_report(out, "fixtures")
    assert report["results"]["ok"] is True
    err = capsys.readouterr().err
    assert "[ok ] two_bank.healthy_invariant" in err
    assert "FAIL" not in err
    assert "note:" in err                     # under-pinned sample documented


def run_module(argv, cwd):
    """`python -m finnet *argv` in a fresh process, on the finnet these tests import."""
    env = {**os.environ, "PYTHONPATH": str(Path(finnet.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "finnet", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_fixtures(tmp_path):
    proc = run_module(["fixtures"], tmp_path)
    assert proc.returncode == EXIT_OK
    assert re.findall(r"^\[ok \] (\S+)", proc.stderr, re.M) == FIXTURE_CHECKS
    assert json.loads(proc.stdout)["results"]["ok"] is True


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_parser_is_built_once_per_process(monkeypatch, two_bank_scenario, capsys):
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["simulate", "--scenario", two_bank_scenario]) == EXIT_OK
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--frobnicate"])
        assert cli.build_parser() is cli.build_parser() is built[0]
    finally:
        cli.build_parser.cache_clear()      # later calls build a plain parser again
    assert len(built) == 1 and exit_info.value.code == EXIT_INVALID
    assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err


def _without_wall_time(text):
    return re.sub(r'^\s*"wall_time_s": [^\n]*\n', "", text, flags=re.M)


def test_shared_parser_reports_match_fresh_processes(tmp_path, two_bank_scenario, capsys):
    # flags from one call must not leak into the next: each report, wall_time_s aside, is the
    # one a fresh `finnet` process writes
    runs = [["invariance", "--seed", "7"], ["simulate", "--horizon", "5"],
            ["intervene", "--clamped-v-update"], ["simulate", "--out", "{out}"], ["simulate"]]
    for argv in runs:
        argv += ["--scenario", two_bank_scenario]
        assert main([a.format(out=tmp_path / "in_process") for a in argv]) == EXIT_OK
        here = capsys.readouterr().out
        fresh = run_module([a.format(out=tmp_path / "fresh") for a in argv], tmp_path)
        assert fresh.returncode == EXIT_OK and fresh.stderr == ""
        if "--out" in argv:
            assert here == fresh.stdout == ""
            here, fresh_text = ((tmp_path / d / "simulate_report.json").read_text()
                                for d in ("in_process", "fresh"))
            assert ((tmp_path / "in_process" / "trajectory.csv").read_bytes()
                    == (tmp_path / "fresh" / "trajectory.csv").read_bytes())
        else:
            fresh_text = fresh.stdout
        assert "wall_time_s" in here and _without_wall_time(here) == _without_wall_time(fresh_text)


def nested(value, depth):
    """value inside depth levels of JSON lists."""
    return "[" * depth + json.dumps(value) + "]" * depth


def deep_scenario(tmp_path, field, depth):
    """two_bank's scenario with field (x0, network.C or an unread extra) nested depth deep."""
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-1.0, -1.0], "extra": 0.0}
    (doc["network"] if field == "network.C" else doc)[field.split(".")[-1]] = "DEEP"
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc).replace('"DEEP"', nested(1.0, depth)))
    return path


def assert_nesting_rejected(proc):
    assert proc.returncode == EXIT_INVALID and proc.stdout == ""
    assert proc.stderr == "error: scenario is nested too deeply\n"


def test_scenario_nested_past_the_json_decoder_exit2(tmp_path):
    # json.loads gives up at this depth
    assert_nesting_rejected(run_module(
        ["simulate", "--scenario", str(deep_scenario(tmp_path, "x0", 5000))], tmp_path))


@pytest.mark.parametrize("field", ["x0", "network.C"])
def test_number_field_nested_too_deeply_exit2(tmp_path, field):
    # json.loads reads 900 levels; the boolean scan of the field cannot
    assert_nesting_rejected(run_module(
        ["simulate", "--scenario", str(deep_scenario(tmp_path, field, 900))], tmp_path))


def test_echoed_field_nested_too_deeply_exit2(tmp_path, capsys, monkeypatch):
    # An unread field is only echoed, so encode_report meets its depth. From a file that
    # takes a depth just under json.loads's own limit (989 levels on Python 3.11), so the
    # parsed document is nested further here.
    load = cli._load_scenario

    def deeper(path):
        doc = load(path)
        for _ in range(5000):
            doc["extra"] = [doc["extra"]]
        return doc

    monkeypatch.setattr(cli, "_load_scenario", deeper)
    path = deep_scenario(tmp_path, "extra", 100)
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.err == "error: scenario is nested too deeply\n" and captured.out == ""
