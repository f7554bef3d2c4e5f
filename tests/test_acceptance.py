"""End-to-end acceptance checks, one test per pinned behavioral criterion.

Each test is self-contained and verifies a pinned or hand-derived
value at its stated tolerance, with runtime budgets where the behavior
is explicitly a performance contract. Criterion 8 certifies the minimal
injection on the ten-organization example: the sample state's eight
deficit components are flipped exactly, the surplus sits only on the
tied components 8 and 10, and its total equals a hand-derived cost floor
of 0.9; the bundled sample's split of the surplus between 8 and 10 is
checked to be attainable at that cost.
"""

import itertools
import time

import numpy as np
import pytest

from finnet import fixtures
from finnet.cycles import detect_cycle, periodic_points, verify_no_period2
from finnet.equilibria import candidate_equilibrium, enumerate_equilibria
from finnet.intervene import (
    InjectionProblem,
    ReallocationProblem,
    asset_reallocation,
    drive_to_invariant,
    minimal_injection,
)
from finnet.invariance import (
    finite_determination_index,
    last_orthant_invariant,
    maximal_invariant_region,
    orthant0_invariant,
    polyhedra_equivalent,
    region_of_attraction,
    stable_region,
)
from finnet.netmodel import FinancialNetwork, ShiftedModel, simulate
from finnet.numerics import (
    STRICT_MARGIN,
    LinearProgram,
    lp_solve,
    solve_linear,
)
from finnet.robust import (
    IntervalNetwork,
    extremal_fixed_points,
    robust_invariant_set,
    sandwich_bounds,
    uniform_sampler,
)


def test_criterion_01_ring_equilibrium_census():
    start = time.perf_counter()
    model = ShiftedModel.from_network(fixtures.ring4())
    recs = enumerate_equilibria(model)
    assert len(recs) == 8
    found = [rec.x for rec in recs]
    for pat in fixtures.RING4_EQUILIBRIA.values():
        hits = [x for x in found if np.allclose(x, pat, atol=1e-3)]
        assert len(hits) == 1, f"pattern {pat} matched {len(hits)} equilibria"
    assert time.perf_counter() - start < 1.0


def test_criterion_02_period8_orbit():
    start = time.perf_counter()
    model = ShiftedModel.from_network(fixtures.ring4())
    traj = simulate(model, fixtures.RING4_ORBIT[0], 300)
    for i in range(8):
        np.testing.assert_allclose(traj.states[i], fixtures.RING4_ORBIT[i],
                                   atol=1e-3)
    hit = detect_cycle(traj)
    assert hit is not None and hit.period == 8
    assert time.perf_counter() - start < 1.0


def test_criterion_03_no_period2_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        model = ShiftedModel.from_network(fixtures.random_network(rng, n))
        rep = verify_no_period2(model, trials=10, seed=int(rng.integers(1 << 31)))
        violations += len(rep.violations)
    assert violations == 0
    assert time.perf_counter() - start < 60.0


def test_criterion_03_no_period2_exact():
    # the sweep's 1,000 networks, each period-2 point found by the lifted census:
    # every one is an equilibrium, so no network has a proper period-2 orbit
    rng = np.random.default_rng(2026)
    points = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        model = ShiftedModel.from_network(fixtures.random_network(rng, n))
        rng.integers(1 << 31)       # the sweep's trial seed, drawn to keep the stream aligned
        pairs = periodic_points(model, 2)
        equilibria = np.array([rec.x for rec in enumerate_equilibria(model)])
        assert pairs.shape == (len(equilibria), 2, n)
        for state in (0, 1):
            np.testing.assert_allclose(pairs[:, state], equilibria, rtol=0.0, atol=1e-9)
        points += len(pairs)
    assert points == 1462


def coordinate_bounds(poly, i, n):
    c = np.zeros(n)
    c[i] = 1.0
    low = lp_solve(LinearProgram(c=c, A=poly.A, b=poly.b)).objective
    high = -lp_solve(LinearProgram(c=-c, A=poly.A, b=poly.b)).objective
    return low, high


def test_criterion_04_two_bank_invariance_and_quadrants():
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    np.testing.assert_allclose(model.r, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(model.beta, [1.0, 1.0], atol=1e-12)
    assert orthant0_invariant(model)
    assert last_orthant_invariant(model)

    recs = {rec.k: rec for rec in enumerate_equilibria(model)}
    assert sorted(recs) == [0, 1, 2, 3]
    for k, v in fixtures.TWO_BANK_EQUILIBRIA.items():
        np.testing.assert_allclose(recs[k].v, v, atol=1e-3)

    # mixed-sign quadrants: boxes in original coordinates
    assert sorted(fixtures.TWO_BANK_BOXES) == [1, 2]
    for k, box in fixtures.TWO_BANK_BOXES.items():
        poly, _ = stable_region(model, recs[k])
        for i, (lo, hi) in enumerate(box):
            low, high = coordinate_bounds(poly, i, 2)
            assert abs(low + net.threshold[i] - lo) <= 1e-6
            assert abs(high + net.threshold[i] - hi) <= 1e-6


def test_criterion_05_truncation_index_fixed_point():
    for make in (fixtures.two_bank, fixtures.ring4):
        model = ShiftedModel.from_network(make())
        last = 2 ** model.n - 1
        for k in (0, last):
            tau = finite_determination_index(model, k)
            assert tau == 1
            eq = candidate_equilibrium(model, k)
            truncated = maximal_invariant_region(model, k)
            deeper = region_of_attraction(model, eq, tau + 1)
            assert polyhedra_equivalent(truncated, deeper)


def test_criterion_06_region_maximality_sampling():
    rng = np.random.default_rng(42)
    net = fixtures.random_gap_network(rng, 4)
    model = ShiftedModel.from_network(net)
    tau = finite_determination_index(model, 0)
    assert tau >= 2                      # nontrivial gap between region and orthant
    region = maximal_invariant_region(model, 0)
    eq = candidate_equilibrium(model, 0)

    hi = 2.0 * float(eq.x.max())
    inside, outside = [], []
    while len(inside) < 1000 or len(outside) < 1000:
        x = rng.uniform(0.0, hi, size=model.n)
        if region.contains(x):
            if len(inside) < 1000:
                inside.append(x)
        elif len(outside) < 1000:
            outside.append(x)

    stay_violations = sum(
        0 if region.contains(model.step(x)) else 1 for x in inside)
    exit_violations = 0
    for x in outside:
        traj = simulate(model, x, tau + 1)
        if not np.any(traj.states[1:].min(axis=1) < -1e-12):
            exit_violations += 1
    assert stay_violations == 0
    assert exit_violations == 0


def test_criterion_07_robust_sandwich_500_sequences():
    start = time.perf_counter()
    net = fixtures.two_bank()
    model = ShiftedModel.from_network(net)
    inet = IntervalNetwork.from_nominal(net.C, model.r, 0.10)
    x_lower, x_upper = extremal_fixed_points(inet)
    region = robust_invariant_set(inet)
    rng = np.random.default_rng(7)
    for seed in range(500):
        while True:
            x0 = rng.uniform(0.0, 2.5, size=2)
            if region.contains(x0):
                break
        res = sandwich_bounds(inet, x0, T=200,
                              sampler=uniform_sampler(inet, seed=seed))
        assert np.all(res.lower <= res.sampled + 1e-12)
        assert np.all(res.sampled <= res.upper + 1e-12)
        assert np.all(res.sampled[-1] >= x_lower - 1e-6)
        assert np.all(res.sampled[-1] <= x_upper + 1e-6)
    assert time.perf_counter() - start < 30.0


def check_complete10_injection(region, x0, v):
    """Criterion 8 on complete10: v is a cheapest injection with the sample's
    structure.

    Cost floor, by hand: each of the eight deficit organizations has drift
    r_i = 0.05 - 0.125 = -0.075, and C = 1/12 off the diagonal, so its t = 1
    row of M+ reads sum_{j != i} y_j / 12 >= 0.075. With y >= 0 (the t = 0
    rows) every y in M+ has 1.y >= 12 * 0.075 = 0.9, and 0.9 is reached on
    the segment {y_8 + y_10 = 0.9, y_8, y_10 >= 0, other components 0}.
    Organizations 8 and 10 are interchangeable (same income, holdings and
    drift 0.875), so the LP may return any point of that segment.
    """
    flip = np.ones(10, dtype=bool)
    flip[list(fixtures.SAMPLE_SURPLUS_COMPONENTS)] = False
    np.testing.assert_allclose(v[flip], -x0[flip], atol=1e-3)

    surplus = x0 + v
    assert surplus.min() >= -1e-9, f"negative surplus {surplus.min():.3e}"
    for i in np.flatnonzero(flip):
        assert abs(surplus[i]) <= 1e-9, (
            f"surplus on component {i + 1}: {surplus[i]:.3e}")
    total = float(surplus.sum())
    assert abs(total - 12 * 0.075) <= 1e-9, (
        f"injected total 1.(x0 + v) = {total:.6f}, minimum is 0.9")
    assert region.contains(surplus)


def test_criterion_08_injection_structure_on_sample_state():
    net = fixtures.complete10()
    model = ShiftedModel.from_network(net)
    # the premises of the hand-derived cost floor in check_complete10_injection
    deficit = np.setdiff1d(np.arange(10), fixtures.SAMPLE_SURPLUS_COMPONENTS)
    np.testing.assert_allclose(model.r[deficit], -0.075, atol=1e-12)
    np.testing.assert_allclose(model.C + np.eye(10) / 12, 1 / 12, atol=1e-12)

    region = maximal_invariant_region(model, 0)
    x0 = fixtures.SAMPLE_STATE10
    v = minimal_injection(InjectionProblem(region=region, x=x0))
    check_complete10_injection(region, x0, v)

    sample = fixtures.SAMPLE_INJECTION10
    i8, i10 = fixtures.SAMPLE_SURPLUS_COMPONENTS
    mag_err = float(np.max(np.abs(v[[i8, i10]] - sample[[i8, i10]])))
    if mag_err > 1e-3:
        print(f"note: surplus magnitudes differ from the bundled sample by "
              f"{mag_err:.4f}; components {i8 + 1} and {i10 + 1} tie, so the "
              f"LP returns an end of the optimal segment, and the sample "
              f"(total {float((x0 + sample).sum()):.4f}) lies in M+ but is "
              f"not minimal on this network")

    # the sample's two-component split is attainable at minimal cost
    for s in (0.0, 0.5, 1.0):
        y = np.zeros(10)
        y[i8], y[i10] = 0.9 * s, 0.9 * (1.0 - s)
        assert region.contains(y), f"split s={s} not in M+"


@pytest.mark.parametrize("case", ["sample", "wrong_flip", "other_surplus",
                                  "over_minimum"])
def test_criterion_08_rejects_non_minimal_injections(case):
    model = ShiftedModel.from_network(fixtures.complete10())
    region = maximal_invariant_region(model, 0)
    x0 = fixtures.SAMPLE_STATE10
    y = np.zeros(10)
    y[7] = 0.9
    if case == "sample":                   # in M+, but total 9.78
        y, message = x0 + fixtures.SAMPLE_INJECTION10, "injected total"
    elif case == "wrong_flip":             # component 9 left in distress
        y[8], message = x0[8], "Not equal to tolerance"
    elif case == "other_surplus":
        y[0], message = 1e-6, "surplus on component 1"
    else:                                  # 0.9 on 8 plus 0.1 on 10
        y[9], message = 0.1, "injected total"
    with pytest.raises(AssertionError, match=message):
        check_complete10_injection(region, x0, y - x0)


def test_criterion_09_driving_loop_terminates():
    start = time.perf_counter()
    net = fixtures.complete10()
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, size=10)
    assert (x0 < 0).any() and (x0 > 0).any()
    plan = drive_to_invariant(net, x0)
    assert plan.success
    assert plan.region.margins(plan.final_x).min() >= -1e-7
    for step in plan.steps:
        assert max(step.residuals.values()) <= 1e-8
    assert time.perf_counter() - start < 10.0


def bounded_lp(rng, n):
    z0 = rng.uniform(-2.0, 2.0, size=n)
    rows = [np.eye(n), -np.eye(n)]
    rhs = [z0 - 5.0, -(z0 + 5.0)]
    for _ in range(int(rng.integers(2, 5))):
        a = rng.normal(size=n)
        rows.append(a[None, :])
        rhs.append(np.array([a @ z0 - rng.uniform(0.5, 2.0)]))
    return LinearProgram(c=rng.normal(size=n), A=np.vstack(rows),
                         b=np.concatenate(rhs))


def vertex_oracle(lp):
    m, n = lp.A.shape
    best = None
    for rows in itertools.combinations(range(m), n):
        sub = lp.A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        z = np.linalg.solve(sub, lp.b[list(rows)])
        if np.all(lp.A @ z >= lp.b - 1e-9):
            val = float(lp.c @ z)
            if best is None or val < best:
                best = val
    return best


def reallocation_grid_min(net, v, step=0.01):
    """Exhaustive search over holdings matrices on a fixed lattice."""
    p = np.asarray(net.p, dtype=float)
    G = np.linalg.inv(np.eye(2) - np.asarray(net.C, dtype=float))
    floor = np.asarray(net.threshold, dtype=float) + STRICT_MARGIN
    vals = np.arange(0.0, 1.0 + 1e-12, step)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    keep = (a + b) <= 1.0 + 1e-12
    cols = np.stack([a[keep], b[keep]], axis=1)
    best = np.inf
    for s in range(0, cols.shape[0], 256):
        c1 = cols[s:s + 256]
        dp1 = c1[:, 0, None] * p[0] + cols[None, :, 0] * p[1]
        dp2 = c1[:, 1, None] * p[0] + cols[None, :, 1] * p[1]
        x1 = G[0, 0] * dp1 + G[0, 1] * dp2
        x2 = G[1, 0] * dp1 + G[1, 1] * dp2
        feasible = (x1 >= floor[0]) & (x2 >= floor[1])
        if not feasible.any():
            continue
        gap = np.sqrt((dp1 - v[0]) ** 2 + (dp2 - v[1]) ** 2)
        hold = np.sqrt((c1[:, 0, None] + c1[:, 1, None]) ** 2
                       + (cols[None, :, 0] + cols[None, :, 1]) ** 2)
        obj = np.where(feasible, gap + hold, np.inf)
        best = min(best, float(obj.min()))
    return best


def test_criterion_10_numerics_oracles():
    rng = np.random.default_rng(31)

    # simplex vs brute-force vertex enumeration
    for _ in range(200):
        lp = bounded_lp(rng, int(rng.integers(2, 4)))
        sol = lp_solve(lp)
        oracle = vertex_oracle(lp)
        assert oracle is not None
        assert abs(sol.objective - oracle) <= 1e-8

    # linear solves: scaled residual bound
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        bvec = rng.normal(size=n)
        x = solve_linear(A, bvec)
        scale = max(1.0, np.abs(A).sum(axis=1).max() * np.abs(x).max())
        assert np.max(np.abs(A @ x - bvec)) <= 1e-9 * scale

    # exact reallocation vs lattice search: lattice points are feasible, so
    # the optimum cannot lie above the best of them
    for _ in range(3):
        C = rng.uniform(0.05, 0.4, size=(2, 2))
        np.fill_diagonal(C, 0.0)
        net = FinancialNetwork(C=C, D=rng.uniform(0.05, 0.45, size=(2, 2)),
                               p=rng.uniform(0.5, 1.5, size=2),
                               beta=[0.5, 0.5],
                               threshold=rng.uniform(0.1, 0.5, size=2))
        v = rng.uniform(0.2, 1.2, size=2)
        _, sol = asset_reallocation(ReallocationProblem(network=net, v=v))
        grid_min = reallocation_grid_min(net, v)
        assert sol.objective <= grid_min + 1e-9
        assert abs(sol.objective - grid_min) <= 1e-2
