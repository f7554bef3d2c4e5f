"""Command-line front end: reports, CSV output, exit codes."""

import json

import numpy as np
import pytest

from finnet import fixtures, numerics
from finnet.cli import EXIT_INVALID, EXIT_OK, EXIT_SOLVER, main


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


def test_missing_scenario_exit2(capsys):
    assert main(["simulate"]) == EXIT_INVALID
    assert "needs --scenario" in capsys.readouterr().err


def test_missing_file_exit2(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == EXIT_INVALID
    assert "not found" in capsys.readouterr().err


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


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_exit2(tmp_path, capsys, token):
    doc = json.dumps({"network": net_doc(fixtures.two_bank()), "x0": [0.0, -1.0]})
    path = tmp_path / "scenario.json"
    path.write_text(doc.replace("[0.0, -1.0]", f"[{token}, -1]"))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert token in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_simplex_iteration_cap_exit3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(numerics, "SIMPLEX_MAX_ITER", 1)
    doc = {"network": net_doc(fixtures.two_bank()), "x0": [-3.0, -3.0]}
    assert main(["intervene", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "simplex iteration cap" in err and "Traceback" not in err


def test_unordered_extremes_exit2(tmp_path, capsys):
    # negative r flips the monotone ordering of the extreme fixed points
    doc = {"interval": {"c_lower": [[0.1]], "c_upper": [[0.2]], "r": [-1.0]}}
    assert main(["robust", "--scenario", write_scenario(tmp_path, doc)]) == EXIT_INVALID
    assert "interval system rejected" in capsys.readouterr().err


def test_fixtures_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fixtures", "--out", str(out)]) == EXIT_OK
    report = load_report(out, "fixtures")
    assert report["results"]["ok"] is True
    err = capsys.readouterr().err
    assert "[ok ] two_bank.healthy_invariant" in err
    assert "FAIL" not in err
    assert "note:" in err                     # under-pinned sample documented


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
