"""Seeded inputs, task lists and output checks for the benchmark workloads.

A task is one user-level analysis: an in-process ``finnet.cli.main(argv)``
call on a scenario file written at set-up, or one library call for an
analysis the CLI does not expose. Tasks reach finnet through module
attributes at call time (``invariance.stable_region``, never a name bound
at import), so the traced run's wrappers see every call.

Each workload varies the input property its optimisation depends on:

* census: many-equilibrium networks next to unique-equilibrium ones, since
  a pruned enumerator is sensitive to that split;
* dynamics: single long trajectories, trajectories batched over trials,
  and one matrix draw per step;
* intervene: mildly distressed states, so each drive takes one
  reallocation (Dykstra inside projected gradient) and each injection is
  a tall LP of about 30 rows.

Sizes that drive the work (n, horizons, truncation index, task counts)
are the same on every seed; the seed draws the values.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

from finnet import cli, cycles, fixtures, intervene, invariance, robust
from finnet.equilibria import EquilibriumRecord
from finnet.intervene import InjectionProblem
from finnet.invariance import Polyhedron
from finnet.netmodel import FinancialNetwork, ShiftedModel
from finnet.robust import IntervalNetwork

import oracles

WORKLOADS = ("census", "dynamics", "intervene")
HORIZON = 10_000            # simulate / cycles horizon
SANDWICH_T = 200
NP2_TRIALS = 10
DRIVE_MAX_ITERATIONS = 20
FIXTURE_EQUILIBRIA = {"two_bank": 4, "ring4": 8, "complete10": 41}

_WALL_LINE = re.compile(r'^\s*"wall_time_s": [^\n]*\n?', re.M)


class TaskFailure(Exception):
    """A task ran but did not produce a usable result (e.g. non-zero exit)."""


@dataclass
class Task:
    """One timed analysis.

    run is the timed call. collect (untimed) turns its raw result into
    (digest, output): equal digests mean equal outputs, so an output is
    checked once and later passes are compared by digest. check returns
    the problems found and may record input-property facts.
    """

    name: str
    n: int
    run: Callable[[], Any]
    collect: Callable[[Any], tuple[str, Any]]
    check: Callable[[Any, dict], list[str]]
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    probes: list[Task]             # known failures, run once outside timing
    properties: Callable[[dict, dict], dict]


# -- helpers -----------------------------------------------------------------

def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.shape).encode())
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, str):
            h.update(p.encode())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


def parse_report(text: str) -> dict:
    """Parse a CLI report, refusing NaN and infinities (allow_nan=False)."""
    def refuse(token):
        raise ValueError(f"report contains non-finite token {token}")
    return json.loads(text, parse_constant=refuse)


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


def _cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


def _report_text(raw: CliRun, out_dir: Path | None, command: str) -> str:
    if raw.code != 0:
        raise TaskFailure(f"exit {raw.code}: {raw.stderr.strip()[:300]}")
    if out_dir is None:
        return raw.stdout
    return (out_dir / f"{command}_report.json").read_text()


def cli_task(name: str, n: int, argv: list[str], check_report, out_dir: Path | None = None,
             extra_files: tuple[str, ...] = (), **props) -> Task:
    """CLI task; the report (and any --out files) are read outside timing."""
    command = argv[0]
    full = argv + (["--out", str(out_dir)] if out_dir is not None else [])

    def collect(raw):
        text = _report_text(raw, out_dir, command)
        files = tuple((out_dir / f).read_text() for f in extra_files)
        return _digest(_WALL_LINE.sub("", text), *files), (text, files)

    def check(output, facts):
        text, files = output
        try:
            report = parse_report(text)
        except ValueError as e:
            return [f"report does not parse strictly: {e}"]
        facts["report_bytes"] = len(text)
        return check_report(report["results"], facts, *files)

    return Task(name=name, n=n, run=lambda: _cli(full), collect=collect,
                check=check, props=props)


def _close(a, b, tol) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _drift(net: FinancialNetwork) -> np.ndarray:
    return (net.C - np.eye(net.n)) @ net.threshold + net.D @ net.p


def _write_scenario(workdir: Path, label: str, doc: dict) -> str:
    path = workdir / f"{label}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _network_doc(net: FinancialNetwork, **extra) -> dict:
    doc = {"network": {k: getattr(net, k).tolist() for k in ("C", "D", "p", "beta", "threshold")}}
    doc.update({k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in extra.items()})
    return doc


def _healthy_equilibrium(net: FinancialNetwork) -> np.ndarray:
    return np.linalg.solve(np.eye(net.n) - net.C, _drift(net))


def _healthy_region(net: FinancialNetwork) -> Polyhedron:
    """M+ built by the oracle, handed to finnet as an input polyhedron."""
    C = net.C
    x_eq = _healthy_equilibrium(net)
    tau = oracles.truncation_index(C, x_eq, True)
    A, b = oracles.region_rows(C, x_eq, 0, tau)
    return Polyhedron(A=A, b=b, row_power=np.repeat(np.arange(tau + 1), net.n))


# -- network generators ------------------------------------------------------

def multi_equilibrium_network(rng, n: int) -> FinancialNetwork:
    """Weak holdings and a drift small against the failure cost.

    The drift is a fraction of each node's exposure C beta, so a node stays
    healthy or fails depending on its neighbours: tens to hundreds of the
    2^n orthants carry an equilibrium at n = 8..12.
    """
    while True:
        C = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(C, 0.0)
        C *= rng.uniform(0.3, 0.6, size=n) / C.sum(axis=0)
        beta = rng.uniform(1.0, 2.0, size=n)
        threshold = rng.uniform(0.5, 2.0, size=n)
        r = rng.uniform(0.15, 0.55, size=n) * (C @ beta)
        income = r + (np.eye(n) - C) @ threshold
        if np.all(income >= 0):
            return FinancialNetwork(C=C, D=np.diag(income), p=np.ones(n),
                                    beta=beta, threshold=threshold)


def unique_gap_network(rng, n: int) -> FinancialNetwork:
    """random_gap_network with failure costs small enough for a unique
    equilibrium, redrawn until the truncation index is exactly 2."""
    while True:
        net = fixtures.random_gap_network(rng, n)
        G = np.linalg.inv(np.eye(n) - net.C)
        w = G @ _drift(net)
        beta = rng.uniform(0.5, 0.9, size=n) * w.min() / np.abs(G).sum(axis=1).max()
        if oracles.truncation_index(net.C, w, True) == 2:
            return replace(net, beta=beta)


def interval_network(rng, n: int) -> IntervalNetwork:
    """Interval holdings around a random nominal matrix with positive drift,
    so the robust invariant set is the whole healthy orthant."""
    C = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(C, 0.0)
    C *= rng.uniform(0.3, 0.8, size=n) / C.sum(axis=0)
    return IntervalNetwork.from_nominal(C, rng.uniform(0.1, 0.5, size=n),
                                        float(rng.uniform(0.05, 0.15)))


# -- census ------------------------------------------------------------------

def _census_nets(rng) -> dict[str, FinancialNetwork]:
    nets = {"two_bank": fixtures.two_bank(), "ring4": fixtures.ring4(),
            "complete10": fixtures.complete10()}
    for label, n in MULTI_NETWORKS:
        nets[label] = multi_equilibrium_network(rng, n)
    for label, n in GAP_NETWORKS:
        nets[label] = unique_gap_network(rng, n)
    nets["random50"] = fixtures.random_network(rng, 50)
    return nets


# Two networks at n = 12 of each kind put the 2^12 enumerations above 5 %
# of the tasks, so task_p95_ms lands inside that band rather than on its
# edge. complete10's mixed equilibria all cost about the same in
# stable_region, and enough of them keep task_p50_ms inside that band.
MULTI_NETWORKS = (("multi8", 8), ("multi10", 10), ("multi12", 12), ("multi12b", 12))
GAP_NETWORKS = (("gap6", 6), ("gap8", 8), ("gap10", 10), ("gap12", 12), ("gap12b", 12))
STABLE_TARGETS = {"two_bank": 1, "ring4": 1, "complete10": 12, "multi8": 2}


def _check_equilibria(label, net, census):
    n = net.n
    C, r, beta = net.C, _drift(net), net.beta

    def check(res, facts):
        ks_o, X_o = census(label)
        facts["equilibria"] = len(ks_o)
        found = res["equilibria"]
        problems = []
        if res["count"] != len(found):
            problems.append(f"count {res['count']} != listed {len(found)}")
        if label in FIXTURE_EQUILIBRIA and len(found) != FIXTURE_EQUILIBRIA[label]:
            problems.append(f"fixture count {len(found)} != {FIXTURE_EQUILIBRIA[label]}")
        ks = [e["k"] for e in found]
        if ks != [int(k) for k in ks_o]:
            problems.append(f"orthants differ from brute force ({len(ks)} vs {len(ks_o)})")
            return problems
        scale = oracles.scale_of(r, beta, X_o)
        for e, x_o in zip(found, X_o):
            x = np.asarray(e["x"])
            if not _close(x, x_o, 1e-8 * scale):
                problems.append(f"k={e['k']}: x differs from brute force")
            if oracles.fixed_point_residual(C, r, beta, x) > 1e-9 * scale:
                problems.append(f"k={e['k']}: fixed-point residual above 1e-9*scale")
            if e["phi"] != oracles.orthant_bits(e["k"], n).tolist():
                problems.append(f"k={e['k']}: phi does not encode k")
            if not _close(e["v"], x + net.threshold, 1e-12 * scale):
                problems.append(f"k={e['k']}: v != x + threshold")
        ex = res["existence"]
        w_plus, w_minus = np.asarray(ex["w_plus"]), np.asarray(ex["w_minus"])
        if not (_close(w_plus, np.linalg.solve(np.eye(n) - C, r), 1e-8 * scale)
                and _close(w_minus, np.linalg.solve(np.eye(n) - C, r - beta), 1e-8 * scale)):
            problems.append("existence w_plus / w_minus differ from dense solves")
        if ex["positive_exists"] != bool(np.all(w_plus >= 0)) or \
                ex["positive_unique"] != bool(np.all(w_minus >= 0)):
            problems.append("existence flags disagree with w_plus / w_minus")
        return problems

    return check


def _check_invariance(net):
    n = net.n
    C, r, beta = net.C, _drift(net), net.beta

    def check(res, facts):
        problems = []
        if res["healthy_orthant_invariant"] != bool(np.all(r >= 0)):
            problems.append("healthy_orthant_invariant disagrees with r >= 0")
        if res["failed_orthant_invariant"] != bool(np.all(r < beta)):
            problems.append("failed_orthant_invariant disagrees with r < beta")
        last = 2 ** n - 1
        for label, k in (("healthy", 0), ("failed", last)):
            phi = oracles.orthant_bits(k, n)
            x_k = np.linalg.solve(np.eye(n) - C, r - beta * phi)
            entry = res["regions"][label]
            tau = None
            if np.array_equal((x_k < 0).astype(float), phi):
                tau = oracles.truncation_index(C, x_k, k == 0)
            facts[f"tau_{label}"] = tau
            if tau is None:
                if "error" not in entry:
                    problems.append(f"{label}: region reported where none is determined")
                continue
            if entry.get("tau") != tau:
                problems.append(f"{label}: tau {entry.get('tau')} != {tau}")
                continue
            A, b = oracles.region_rows(C, x_k, k, tau)
            scale = oracles.scale_of(x_k, A)
            if not (_close(entry["A"], A, 1e-9 * scale) and _close(entry["b"], b, 1e-9 * scale)):
                problems.append(f"{label}: region rows differ from C^t construction")
            if not entry["certified"]:
                problems.append(f"{label}: region not certified")
        if n <= 4 and len(res["intermediates"]) != 2 ** n - 2:
            problems.append("intermediate verdicts missing")
        return problems

    return check


def _stable_task(label, net, rec: EquilibriumRecord) -> Task:
    C, k, x_eq = net.C, rec.k, rec.x
    model = ShiftedModel.from_network(net)

    def collect(res):
        poly, tau = res
        return _digest(poly.A, poly.b, poly.row_power, poly.certified, tau), \
            (poly.A, poly.b, poly.certified, tau)

    def check(out, facts):
        A, b, certified, tau = out
        facts["tau"] = tau
        A_o, b_o = oracles.region_rows(C, x_eq, k, tau + 1)
        rows = net.n * (tau + 1)
        scale = oracles.scale_of(x_eq, A_o)
        problems = []
        if not (_close(A, A_o[:rows], 1e-9 * scale) and _close(b, b_o[:rows], 1e-9 * scale)):
            return [f"rows for tau={tau} differ from C^t construction"]
        if not certified:
            problems.append("region not certified")
        if np.min(A @ x_eq - b) < -1e-9 * scale:
            problems.append("region excludes its equilibrium")
        if oracles.rows_implied(A, b, A_o[rows:], b_o[rows:], 1e-7 * scale):
            problems.append(f"block tau+1={tau + 1} not implied: horizon not stable")
        return problems

    return Task(name=f"stable_region:{label}:k{k}", n=net.n,
                run=lambda: invariance.stable_region(model, rec),
                collect=collect, check=check, props={"net": label})


def _prune_task(label, net) -> Task:
    region = _healthy_region(net)

    def collect(poly):
        return _digest(poly.A, poly.b), (poly.A, poly.b)

    def check(out, facts):
        A, b = out
        facts["rows_in"], facts["rows_kept"] = region.n_rows, A.shape[0]
        keep = []
        for a_row, b_val in zip(A, b):
            hit = np.flatnonzero(np.all(region.A == a_row, axis=1) & (region.b == b_val))
            if hit.size == 0:
                return ["pruned region has a row not in the input"]
            keep.append(int(hit[0]))
        if not keep:
            return ["pruned region has no rows"]
        dropped = [i for i in range(region.n_rows) if i not in keep]
        scale = oracles.scale_of(region.A, region.b)
        bad = oracles.rows_implied(A, b, region.A[dropped], region.b[dropped], 1e-7 * scale)
        return [f"{len(bad)} dropped rows are not implied by the kept rows"] if bad else []

    return Task(name=f"prune_redundant:{label}", n=net.n,
                run=lambda: invariance.prune_redundant(region),
                collect=collect, check=check, props={"net": label})


def build_census(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 0])
    nets = _census_nets(rng)
    paths = {label: _write_scenario(workdir, label, _network_doc(net))
             for label, net in nets.items()}
    cache: dict[str, tuple] = {}

    def census(label):
        if label not in cache:
            net = nets[label]
            cache[label] = oracles.equilibrium_census(net.C, _drift(net), net.beta)
        return cache[label]

    tasks = []
    for label, net in nets.items():
        if label != "random50":
            tasks.append(cli_task(f"equilibria:{label}", net.n,
                                  ["equilibria", "--scenario", paths[label]],
                                  _check_equilibria(label, net, census), net=label))
        tasks.append(cli_task(f"invariance:{label}", net.n,
                              ["invariance", "--scenario", paths[label]],
                              _check_invariance(net), net=label))
    for label, count in STABLE_TARGETS.items():
        net = nets[label]
        ks, X = census(label)
        last = 2 ** net.n - 1
        pool = [i for i, (k, x) in enumerate(zip(ks, X))
                if 0 < k < last and np.min(np.abs(x)) > 1e-9]
        for i in sorted(rng.choice(len(pool), size=min(count, len(pool)), replace=False)):
            k, x = int(ks[pool[i]]), X[pool[i]]
            rec = EquilibriumRecord(k=k, x=x, v=x + net.threshold, consistent=True, interior=True)
            tasks.append(_stable_task(label, net, rec))
    for label, _ in GAP_NETWORKS:
        tasks.append(_prune_task(label, nets[label]))

    # n = 50 is past the 2^n enumeration guard: DimensionTooLargeError today.
    probes = [cli_task("equilibria:random50", 50, ["equilibria", "--scenario", paths["random50"]],
                       _check_equilibria("random50", nets["random50"], census), net="random50")]

    def properties(facts, wall_by_task):
        eq = {label: facts.get(f"equilibria:{label}", {}).get("equilibria")
              for label in nets if label != "random50"}
        multi = [t.name for t in tasks if (eq.get(t.props.get("net")) or 0) > 1]
        total = sum(wall_by_task.values())
        taus = {f"{label}.{side}": facts.get(f"invariance:{label}", {}).get(f"tau_{side}")
                for label in nets for side in ("healthy", "failed")}
        taus.update({t.name: facts.get(t.name, {}).get("tau")
                     for t in tasks if t.name.startswith("stable_region")})
        return {
            "n_per_network": {label: net.n for label, net in nets.items()},
            "equilibria_per_network": eq,
            "multi_equilibrium_wall_share": sum(wall_by_task.get(m, 0.0) for m in multi) / total,
            "tau_per_region": taus,
        }

    return Workload("census", tasks, probes, properties)


# -- dynamics ----------------------------------------------------------------

def _np2_horizon(model, h_max=8, tol=1e-7) -> int:
    """Steps verify_no_period2 runs per trial (its documented settle rule)."""
    n = model.n
    slack = 1.0 - float(model.C.sum(axis=0).max())
    scale = min(100.0, (np.abs(model.r).sum() + model.beta.sum()) / max(slack, 1e-2))
    settle = np.log(tol / (100.0 * n * max(scale, 1.0))) / np.log(max(1.0 - slack, 0.1))
    return 2 * h_max + min(max(int(settle) + 1, 64), 4000)


def _check_cycles(label, net, x0):
    C, r, beta = net.C, _drift(net), net.beta

    def check(res, facts):
        states = oracles.simulate(C, r, beta, x0, HORIZON)
        scale = oracles.scale_of(states)
        kind, rho, period = res["kind"], res["rho"], res["period"]
        facts["kind"] = kind
        problems = []
        grazes = float(np.min(np.abs(states))) < rho
        if (kind == "critical") != grazes:
            problems.append(f"kind {kind} but trajectory grazes the boundary: {grazes}")
        if label == "ring4" and (kind != "cycle" or period != 8):
            problems.append(f"ring4 reports {kind} period {period}, expected a period-8 cycle")
        if kind == "equilibrium":
            if not _close(res["point"], states[-1], 1e-7 * scale) or \
                    oracles.fixed_point_residual(C, r, beta, np.asarray(res["point"])) > 1e-7 * scale:
                problems.append("equilibrium point is not the trajectory's fixed point")
        if kind == "cycle":
            orbit = np.asarray(res["orbit"])
            if orbit.shape != (period, net.n) or not _close(orbit, states[-period:], 1e-7 * scale) \
                    or not _close(oracles.step(C, r, beta, orbit[-1]), orbit[0], 1e-7 * scale):
                problems.append("orbit does not close under the dynamics")
        if kind in ("equilibrium", "cycle") and (res["detected"] or {}).get("period") != period:
            problems.append("detected period disagrees with the classification")
        return problems

    return check


def _check_simulate(net, x0):
    C, r, beta = net.C, _drift(net), net.beta

    def check(res, facts, *files):
        states = oracles.simulate(C, r, beta, x0, HORIZON)
        scale = oracles.scale_of(states)
        problems = []
        if res["T"] != HORIZON or not _close(res["final_x"], states[-1], 1e-8 * scale):
            problems.append("final state differs from the reference simulation")
        if res["orthants"] != oracles.orthant_codes(states):
            problems.append("orthant sequence differs from the reference simulation")
        if files:
            rows = np.loadtxt(io.StringIO(files[0]), delimiter=",", skiprows=1)
            if res["csv"] != "trajectory.csv" or rows.shape != (HORIZON + 1, net.n + 1) \
                    or not np.allclose(rows[:, 1:], states, rtol=1e-8, atol=1e-9 * scale):
                problems.append("trajectory CSV differs from the reference simulation")
        return problems

    return check


def _check_robust(inet):
    def check(res, facts):
        n = inet.n
        x_lo = np.linalg.solve(np.eye(n) - inet.c_lower, inet.r)
        x_up = np.linalg.solve(np.eye(n) - inet.c_upper, inet.r)
        scale = oracles.scale_of(x_lo, x_up)
        problems = []
        if not (_close(res["x_lower"], x_lo, 1e-8 * scale) and _close(res["x_upper"], x_up, 1e-8 * scale)):
            problems.append("extremal fixed points differ from dense solves")
        sw = res["sandwich"]
        if not sw["ordered"] or sw["T"] != SANDWICH_T or \
                np.any(np.asarray(sw["liminf_estimate"]) > np.asarray(sw["limsup_estimate"])):
            problems.append("sandwich trajectories are not ordered")
        if not isinstance(res["last_hope_membership"], bool):
            problems.append("last_hope_membership is not a boolean")
        return problems

    return check


def _np2_task(i, net, seed) -> Task:
    model = ShiftedModel.from_network(net)

    def collect(rep):
        counts = dict(sorted(rep.period_counts.items()))
        return _digest(rep.trials, counts, len(rep.violations)), (rep.trials, counts, len(rep.violations))

    def check(out, facts):
        trials, counts, violations = out
        problems = []
        if violations:
            problems.append(f"{violations} period-2 violations")
        if trials != NP2_TRIALS or sum(counts.values()) != NP2_TRIALS:
            problems.append("trial counts do not add up")
        return problems

    return Task(name=f"verify_no_period2:{i}", n=net.n,
                run=lambda: cycles.verify_no_period2(model, trials=NP2_TRIALS, seed=seed),
                collect=collect, check=check,
                props={"batched_steps": NP2_TRIALS * _np2_horizon(model)})


def _sandwich_task(i, inet, x0, seed) -> Task:
    def collect(res):
        return _digest(res.sampled, res.lower, res.upper), (res.sampled, res.lower, res.upper)

    def check(out, facts):
        sampled, lower, upper = out
        lo = oracles.simulate(inet.c_lower, inet.r, np.zeros(inet.n), x0, SANDWICH_T)
        up = oracles.simulate(inet.c_upper, inet.r, np.zeros(inet.n), x0, SANDWICH_T)
        scale = oracles.scale_of(up)
        problems = []
        if sampled.shape != (SANDWICH_T + 1, inet.n):
            return ["sandwich has the wrong horizon"]
        if not (_close(lower, lo, 1e-9 * scale) and _close(upper, up, 1e-9 * scale)):
            problems.append("extreme trajectories differ from the reference iteration")
        if np.any(lower > sampled + 1e-12 * scale) or np.any(sampled > upper + 1e-12 * scale):
            problems.append("sandwich trajectories are not ordered")
        return problems

    return Task(name=f"sandwich_bounds:{i}", n=inet.n,
                run=lambda: robust.sandwich_bounds(
                    inet, x0, SANDWICH_T, sampler=robust.uniform_sampler(inet, seed=seed)),
                collect=collect, check=check, props={"single_steps": SANDWICH_T})


# Sweep sizes: the n = 2 sandwiches hold the median task inside their cost
# band, and with about 110 tasks the 95th percentile falls among the
# T = 10^4 runs on small networks rather than between two bands.
NP2_NETWORKS = 30
SANDWICH_SMALL = 50
SANDWICH_LARGE = 20


def build_dynamics(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    runs = {"ring4": (fixtures.ring4(), np.asarray(fixtures.RING4_ORBIT[0])),
            "two_bank": (fixtures.two_bank(), rng.uniform(-2.0, 2.0, size=2)),
            "complete10": (fixtures.complete10(), rng.uniform(-1.0, 1.0, size=10))}
    for n in (10, 50, 200):
        runs[f"random{n}"] = (fixtures.random_network(rng, n), rng.uniform(-2.0, 2.0, size=n))
    paths = {label: _write_scenario(workdir, label, _network_doc(net, x0=x0, horizon=HORIZON))
             for label, (net, x0) in runs.items()}
    tasks = [cli_task(f"cycles:{label}", net.n, ["cycles", "--scenario", paths[label]],
                      _check_cycles(label, net, x0), net=label, single_steps=HORIZON)
             for label, (net, x0) in runs.items()]
    net, x0 = runs["random10"]
    tasks.append(cli_task("simulate:random10", 10, ["simulate", "--scenario", paths["random10"]],
                          _check_simulate(net, x0), net="random10", single_steps=HORIZON))
    net, x0 = runs["random50"]
    out_dir = workdir / "simulate50"
    tasks.append(cli_task("simulate:random50:out", 50, ["simulate", "--scenario", paths["random50"]],
                          _check_simulate(net, x0), out_dir=out_dir,
                          extra_files=("trajectory.csv",), net="random50", single_steps=HORIZON))

    tb = fixtures.two_bank()
    tb_interval = IntervalNetwork.from_nominal(tb.C, _drift(tb), 0.10)
    doc = {"interval": {"c_lower": tb_interval.c_lower.tolist(),
                        "c_upper": tb_interval.c_upper.tolist(), "r": tb_interval.r.tolist()},
           "x0": rng.uniform(0.0, 2.5, size=2).tolist()}
    tasks.append(cli_task("robust:two_bank", 2,
                          ["robust", "--scenario", _write_scenario(workdir, "interval", doc),
                           "--seed", str(int(rng.integers(1 << 31)))],
                          _check_robust(tb_interval), net="two_bank", single_steps=SANDWICH_T))

    for i in range(NP2_NETWORKS):
        net = fixtures.random_network(rng, 2 + i % 4)
        tasks.append(_np2_task(i, net, int(rng.integers(1 << 31))))
    for i in range(SANDWICH_SMALL + SANDWICH_LARGE):
        inet = tb_interval if i < SANDWICH_SMALL else interval_network(rng, 10)
        x0 = rng.uniform(0.0, 2.5, size=inet.n)
        tasks.append(_sandwich_task(i, inet, x0, int(rng.integers(1 << 31))))

    # 2^n orthant codes overflow int64 for n >= 64: OverflowError today.
    net, x0 = runs["random200"]
    probes = [cli_task("simulate:random200", 200, ["simulate", "--scenario", paths["random200"]],
                       _check_simulate(net, x0), net="random200")]

    def properties(facts, wall_by_task):
        single = sum(t.props.get("single_steps", 0) for t in tasks)
        batched = sum(t.props.get("batched_steps", 0) for t in tasks)
        return {
            "n_per_task": _count_by_n(tasks),
            "single_trajectory_steps": single,
            "batched_steps": batched,
            "batched_step_share": batched / (single + batched),
            "cycles_kinds": {t.name: facts.get(t.name, {}).get("kind")
                             for t in tasks if t.name.startswith("cycles")},
        }

    return Workload("dynamics", tasks, probes, properties)


# -- intervene ---------------------------------------------------------------

def _distressed(rng, net, x_eq, k_max=3) -> np.ndarray:
    x = x_eq.copy()
    idx = rng.choice(net.n, size=int(rng.integers(1, k_max + 1)), replace=False)
    x[idx] -= rng.uniform(0.2, 1.5, size=idx.size)
    return x


def _mild_start(x_eq, node: int, depth: float) -> np.ndarray:
    """One deficit node (negative drift) pushed depth below its healthy level.

    From such starts, with depth in [0.3, 0.6], a complete10 drive needs one
    reallocation; nodes with positive drift stay inside M+ and need none.
    """
    x = x_eq.copy()
    x[node] -= depth
    return x


def _injection_task(label, net, region, x, nonnegative, i) -> Task:
    prob = InjectionProblem(region=region, x=x, nonnegative=nonnegative)

    def collect(v):
        return _digest(v), v

    def check(v, facts):
        n = net.n
        A, b = region.A, region.b - region.A @ x
        if nonnegative:
            A, b = np.vstack([A, np.eye(n)]), np.concatenate([b, np.zeros(n)])
        scale = oracles.scale_of(region.A, region.b, x)
        problems = []
        if np.min(region.margins(x + v)) < -1e-7 * scale:
            problems.append("x + v lies outside the region")
        if nonnegative and np.min(v) < -1e-9 * scale:
            problems.append("negative entry in a nonnegative injection")
        best = oracles.lp_min(np.ones(n), A, b)
        if abs(float(v.sum()) - best) > 1e-6 * scale:
            problems.append(f"objective {v.sum():.9g} != HiGHS {best:.9g}")
        return problems

    mode = "nonneg" if nonnegative else "free"
    return Task(name=f"minimal_injection:{label}:{mode}:{i}", n=net.n,
                run=lambda: intervene.minimal_injection(prob),
                collect=collect, check=check, props={"net": label})


def _plan_problems(final_x, residuals, region, success) -> list[str]:
    problems = []
    if not success:
        problems.append("drive did not reach the region")
    elif np.min(region.margins(final_x)) < -1e-9:
        problems.append("final_x lies outside the region")
    if residuals and max(residuals) > 1e-8:
        problems.append(f"reallocation residual {max(residuals):.2e} above 1e-8")
    return problems


def _drive_task(net, x0, mode, i, region) -> Task:
    def collect(plan):
        residuals = [v for s in plan.steps for v in s.residuals.values()]
        return _digest(plan.final_x, plan.injection, plan.iterations, plan.success,
                       *[s.D for s in plan.steps]), \
            (plan.final_x, residuals, plan.success, plan.iterations)

    def check(out, facts):
        final_x, residuals, success, iterations = out
        facts["iterations"] = iterations
        return _plan_problems(final_x, residuals, region, success)

    return Task(name=f"drive_to_invariant:complete10:{mode}:{i}", n=net.n,
                run=lambda: intervene.drive_to_invariant(
                    net, x0, mode=mode, max_iterations=DRIVE_MAX_ITERATIONS),
                collect=collect, check=check, props={"net": "complete10", "drive": True})


# A drive's cost depends on which deficit node starts it (up to 40 %,
# through Dykstra's projection order), so each v-update mode starts one
# drive from every deficit node, and 16 drives average out the rest of the
# spread across seeds. The 30-row complete10 injections hold the median
# task, and the drives (13 % of tasks) the 95th percentile.
INJECTION_STATES = {"complete10": 40, "gap6": 6, "gap8": 6, "gap10": 6}


def build_intervene(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    nets = {"complete10": fixtures.complete10()}
    for n in (6, 8, 10):
        nets[f"gap{n}"] = fixtures.random_gap_network(rng, n)
    tasks = []
    for label, count in INJECTION_STATES.items():
        net = nets[label]
        region = _healthy_region(net)
        x_eq = _healthy_equilibrium(net)
        for i in range(count):
            x = _distressed(rng, net, x_eq)
            for nonnegative in (False, True):
                tasks.append(_injection_task(label, net, region, x, nonnegative, i))
    c10 = nets["complete10"]
    region = _healthy_region(c10)
    x_eq = _healthy_equilibrium(c10)
    deficit = np.flatnonzero(_drift(c10) < 0)
    for mode in ("verbatim", "clamped"):
        for i, node in enumerate(rng.permutation(deficit)):
            x0 = _mild_start(x_eq, node, rng.uniform(0.3, 0.6))
            tasks.append(_drive_task(c10, x0, mode, i, region))
    cli_start = _mild_start(x_eq, rng.choice(deficit), rng.uniform(0.3, 0.6))
    path = _write_scenario(workdir, "complete10", _network_doc(c10, x0=cli_start))

    def check_cli(res, facts):
        facts["iterations"] = res["iterations"]
        residuals = [v for s in res["steps"] for v in s["residuals"].values()]
        problems = _plan_problems(np.asarray(res["final_x"]), residuals, region, res["success"])
        if res["region_rows"] != region.n_rows:
            problems.append("region_rows differs from the oracle region")
        return problems

    tasks.append(cli_task("intervene:complete10", 10, ["intervene", "--scenario", path],
                          check_cli, net="complete10", drive=True))

    def properties(facts, wall_by_task):
        iters = {t.name: facts.get(t.name, {}).get("iterations")
                 for t in tasks if t.props.get("drive")}
        return {
            "n_per_task": _count_by_n(tasks),
            "iterations_per_drive": iters,
            "drives_at_cap": sum(1 for v in iters.values() if v is not None and v >= DRIVE_MAX_ITERATIONS),
            "max_iterations": DRIVE_MAX_ITERATIONS,
        }

    return Workload("intervene", tasks, [], properties)


def _count_by_n(tasks) -> dict[str, int]:
    out: dict[str, int] = {}
    for t in tasks:
        out[str(t.n)] = out.get(str(t.n), 0) + 1
    return out


BUILDERS = {"census": build_census, "dynamics": build_dynamics, "intervene": build_intervene}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
