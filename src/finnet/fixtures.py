"""Bundled reference networks and regression targets.

Three small networks exercise every analysis path and anchor the pinned
values that `fixture_report` (the `fixtures` CLI command) and the
acceptance tests check: a symmetric two-bank pair, a four-organization
directed ring with a known period-8 orbit, and a ten-organization complete
graph used for intervention runs. Also hosts the random generators the
test-suite sweeps rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import detect_cycle
from .equilibria import enumerate_equilibria
from .intervene import InjectionProblem, drive_to_invariant, minimal_injection
from .invariance import (finite_determination_index, last_orthant_invariant,
                         maximal_invariant_region, orthant0_invariant, stable_region)
from .netmodel import FinancialNetwork, ShiftedModel, simulate
from .numerics import LinearProgram, lp_solve, solve_linear


def two_bank() -> FinancialNetwork:
    """Two banks holding half of each other, identical asset books."""
    return FinancialNetwork(
        C=[[0.0, 0.5], [0.5, 0.0]],
        D=[[0.5, 0.25], [0.25, 0.5]],
        p=[4.0, 4.0],
        beta=[1.0, 1.0],
        threshold=[5.0, 5.0],
    )


def ring4() -> FinancialNetwork:
    """Directed 4-ring: each organization holds 80 percent of its neighbor.

    In shifted coordinates the dynamics reduce to
    x(t+1) = C x(t) + 1 - 2 phi(x(t)); the system has eight equilibria and
    a period-8 orbit (see RING4_ORBIT).
    """
    C = np.zeros((4, 4))
    for i in range(4):
        C[i, (i - 1) % 4] = 0.8
    return FinancialNetwork(
        C=C,
        D=0.5 * np.eye(4),
        p=[5.0, 5.0, 5.0, 5.0],
        beta=[2.0, 2.0, 2.0, 2.0],
        threshold=[7.5, 7.5, 7.5, 7.5],
    )


# Equity levels v = x + threshold of the two-bank equilibria, by orthant k.
TWO_BANK_EQUILIBRIA = {0: (6.0, 6.0), 1: (16 / 3, 14 / 3), 2: (14 / 3, 16 / 3),
                       3: (4.0, 4.0)}
# Stable region of each mixed-sign orthant k of the two-bank pair: one
# interval of v per coordinate.
TWO_BANK_BOXES = {1: ((5.0, 6.0), (4.0, 5.0)), 2: ((4.0, 5.0), (5.0, 6.0))}

# Equilibrium coordinates x of the ring network, to 4 decimals, by orthant k.
RING4_ALPHA = 0.1220
RING4_GAMMA = 1.0976
RING4_DELTA = 0.5556
RING4_EQUILIBRIA = {
    0: (5.0, 5.0, 5.0, 5.0),
    15: (-5.0, -5.0, -5.0, -5.0),
    3: (RING4_ALPHA, RING4_GAMMA, -RING4_ALPHA, -RING4_GAMMA),
    12: (-RING4_ALPHA, -RING4_GAMMA, RING4_ALPHA, RING4_GAMMA),
    5: (RING4_DELTA, -RING4_DELTA, RING4_DELTA, -RING4_DELTA),
    10: (-RING4_DELTA, RING4_DELTA, -RING4_DELTA, RING4_DELTA),
    6: (RING4_GAMMA, -RING4_ALPHA, -RING4_GAMMA, RING4_ALPHA),
    9: (-RING4_GAMMA, RING4_ALPHA, RING4_GAMMA, -RING4_ALPHA),
}

# One full period of the known period-8 orbit, rows are x(0)..x(7).
RING4_ORBIT = np.array([
    [0.6754, -1.3678, -0.6754, 1.3678],
    [2.0942, -0.4597, -2.0942, 0.4597],
    [1.3678, 0.6754, -1.3678, -0.6754],
    [0.4597, 2.0942, -0.4597, -2.0942],
    [-0.6754, 1.3678, 0.6754, -1.3678],
    [-2.0942, 0.4597, 2.0942, -0.4597],
    [-1.3678, -0.6754, 1.3678, 0.6754],
    [-0.4597, -2.0942, 0.4597, 2.0942],
])


def complete10() -> FinancialNetwork:
    """Ten organizations, uniform complete-graph cross-holdings 1/12.

    The asset book concentrates income on organizations 8 and 10
    (1-based); the other eight run a small structural deficit (drift
    -0.075), which carves a nontrivial maximal invariant region out of the
    healthy orthant. Organizations 8 and 10 are interchangeable, so the
    minimal injection is not unique: every v that leaves y = x + v with
    y_8 + y_10 = 0.9, y_8, y_10 >= 0 and zero elsewhere is optimal, and a
    vertex LP solver returns one end of that segment.
    """
    n = 10
    C = (np.ones((n, n)) - np.eye(n)) / (n + 2)
    income = np.full(n, 0.05)
    income[7] = income[9] = 1.0
    return FinancialNetwork(
        C=C,
        D=np.diag(income),
        p=np.ones(n),
        beta=np.full(n, 0.4),
        threshold=np.full(n, 0.5),
    )


# Reference distressed state and injection pattern for the ten-organization
# network: the injection flips the sign of eight components exactly and
# puts its surplus on components 8 and 10. The sample comes from a network
# that is not bundled: here x + SAMPLE_INJECTION10 lies in M+ but totals
# 9.78, while the minimal injection totals 0.9.
SAMPLE_STATE10 = np.array([
    -0.2943, -1.0177, -0.0024, 0.4985, -0.0982,
    0.0954, -0.0425, 0.4426, -0.7542, -1.3096,
])
SAMPLE_INJECTION10 = np.array([
    0.2943, 1.0177, 0.0024, -0.4985, 0.0982,
    -0.0954, 0.0425, 5.5322, 0.7542, 5.1135,
])
SAMPLE_SURPLUS_COMPONENTS = (7, 9)      # zero-based indices of the surplus


@dataclass
class FixtureReport:
    """Checks {"name", "ok", "detail"} against the pinned values, in a fixed order, and notes."""

    ok: bool
    checks: list[dict]
    notes: list[str]


def fixture_report(seed: int = 0) -> FixtureReport:
    """Check the bundled networks against their pinned values; seed starts the drive."""
    checks, notes = [], []

    def check(name: str, ok, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    net = two_bank()
    model = ShiftedModel.from_network(net)
    check("two_bank.healthy_invariant", orthant0_invariant(model))
    check("two_bank.failed_invariant", last_orthant_invariant(model))
    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    for k, v in TWO_BANK_EQUILIBRIA.items():
        check(f"two_bank.equilibrium_k{k}", k in recs and np.allclose(recs[k].v, v, atol=1e-3))
    for k, box in TWO_BANK_BOXES.items():
        poly, _ = stable_region(model, recs[k])
        bounds = [(lp_solve(LinearProgram(c=c, A=poly.A, b=poly.b)).objective,
                   -lp_solve(LinearProgram(c=-c, A=poly.A, b=poly.b)).objective)
                  for c in np.eye(2)]
        v_box = np.array(bounds) + net.threshold[:, None]
        check(f"two_bank.quadrant_box_k{k}", np.all(np.abs(v_box - box) <= 1e-6))
    for k in (0, 3):
        check(f"two_bank.tau_k{k}", finite_determination_index(model, k) == 1)

    model = ShiftedModel.from_network(ring4())
    found = {rec.k: rec.x for rec in enumerate_equilibria(model)}
    check("ring4.count", len(found) == len(RING4_EQUILIBRIA), f"found {len(found)}")
    for k, x in RING4_EQUILIBRIA.items():
        check(f"ring4.equilibrium_k{k}", k in found and np.allclose(found[k], x, atol=1e-3))
    traj = simulate(model, RING4_ORBIT[0], 400)
    err = float(np.max(np.abs(traj.states[:8] - RING4_ORBIT)))
    check("ring4.orbit_rows", err <= 1e-3, f"max err {err:.2e}")
    hit = detect_cycle(traj)
    check("ring4.period", hit is not None and hit.period == 8)
    for k in (0, 15):
        check(f"ring4.tau_k{k}", finite_determination_index(model, k) == 1)

    net = complete10()
    region = maximal_invariant_region(ShiftedModel.from_network(net), 0)
    v = minimal_injection(InjectionProblem(region=region, x=SAMPLE_STATE10))
    flip = np.ones(10, dtype=bool)
    flip[list(SAMPLE_SURPLUS_COMPONENTS)] = False
    check("complete10.flips", np.max(np.abs(v[flip] + SAMPLE_STATE10[flip])) <= 1e-3)
    # Each deficit row (C y)_i + r_i >= 0 with C = 1/12, r_i = -0.075 and
    # y >= 0 bounds 1.y below by 0.9; components 8 and 10 tie, so the
    # optimum is the segment y_8 + y_10 = 0.9 and the LP returns one end.
    total = float(np.sum(v + SAMPLE_STATE10))
    check("complete10.minimal_total", abs(total - 0.9) <= 1e-9, f"1.(x0 + v) = {total:.6f}")
    mag_err = float(np.max(np.abs(v[~flip] - SAMPLE_INJECTION10[~flip])))
    if mag_err > 1e-3:
        notes.append(
            f"surplus magnitudes differ from the bundled sample by {mag_err:.4f}: "
            "components 8 and 10 tie, so any split of the minimal total 0.9 "
            "between them is optimal, and the sample (total "
            f"{float(np.sum(SAMPLE_STATE10 + SAMPLE_INJECTION10)):.4f}) is not minimal "
            "on this network")
    plan = drive_to_invariant(net, np.random.default_rng(seed).uniform(-1.0, 1.0, size=10))
    check("complete10.drive_terminates", plan.success, f"{plan.iterations} iterations")
    worst = max((max(s.residuals.values()) for s in plan.steps), default=0.0)
    check("complete10.drive_feasible_steps", worst <= 1e-8, f"worst residual {worst:.2e}")
    return FixtureReport(ok=all(c["ok"] for c in checks), checks=checks, notes=notes)


# -- random instances for property sweeps ------------------------------------

def random_network(rng: np.random.Generator, n: int) -> FinancialNetwork:
    """Random n-organization network with n external assets, satisfying all
    standing assumptions.

    C is dense off the diagonal, with column sums scaled into (0.2, 0.9);
    D, p, beta, threshold are positive with unit-order magnitudes.
    """
    C = rng.uniform(0.0, 1.0, size=(n, n))
    np.fill_diagonal(C, 0.0)
    target = rng.uniform(0.2, 0.9, size=n)
    sums = C.sum(axis=0)
    sums[sums == 0] = 1.0
    C *= target / sums
    return FinancialNetwork(
        C=C,
        D=rng.uniform(0.1, 1.0, size=(n, n)),
        p=rng.uniform(0.1, 2.0, size=n),
        beta=rng.uniform(0.2, 1.5, size=n),
        threshold=rng.uniform(0.5, 2.0, size=n),
    )


def random_gap_network(rng: np.random.Generator, n: int) -> FinancialNetwork:
    """Random network whose maximal healthy-invariant region is a strict
    subset of the orthant (drift negative somewhere, equilibrium positive).

    Built by drawing the drift r with a few mildly negative components and
    back-solving the asset income that produces it. Draws up to 200 times,
    then raises RuntimeError.
    """
    for _ in range(200):
        C = rng.uniform(0.05, 1.0, size=(n, n))
        np.fill_diagonal(C, 0.0)
        C *= rng.uniform(0.4, 0.9, size=n) / C.sum(axis=0)
        threshold = rng.uniform(0.5, 2.0, size=n)
        r = rng.uniform(0.05, 0.4, size=n)
        weak = rng.choice(n, size=max(1, n // 4), replace=False)
        r[weak] = rng.uniform(-0.1, -0.01, size=weak.size)
        x_bar = solve_linear(np.eye(n) - C, r)
        if np.any(x_bar <= 1e-6):
            continue
        income = r + (np.eye(n) - C) @ threshold
        if np.any(income < 0):
            continue
        net = FinancialNetwork(C=C, D=np.diag(income), p=np.ones(n),
                               beta=rng.uniform(0.2, 1.0, size=n),
                               threshold=threshold)
        model = ShiftedModel.from_network(net)
        if np.any(model.r < 0):        # truncation index is then >= 2
            return net
    raise RuntimeError("could not draw a gap network; widen the search")
