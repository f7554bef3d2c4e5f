"""Cash injection LP, holdings reallocation, and the driving loop."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finnet import fixtures, intervene, numerics
from finnet.intervene import (
    InjectionProblem,
    InterventionPlan,
    IterationCapReached,
    ReallocationProblem,
    asset_reallocation,
    build_reallocation_program,
    drive_to_invariant,
    minimal_injection,
    reallocation_feasible,
)
from finnet.invariance import maximal_invariant_region
from finnet.netmodel import FinancialNetwork, ShiftedModel
from finnet.numerics import OPT_TOL, InfeasibleError, IterationLimitError


def healthy_region(net):
    return maximal_invariant_region(ShiftedModel.from_network(net), 0)


def lp_oracle(c, A, b):
    """Brute-force vertex enumeration for tiny >= form LPs."""
    m, n = A.shape
    best = None
    for rows in itertools.combinations(range(m), n):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        z = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ z >= b - 1e-9):
            val = float(c @ z)
            if best is None or val < best:
                best = val
    return best


def test_injection_zero_inside_region():
    net = fixtures.two_bank()
    region = healthy_region(net)
    v = minimal_injection(InjectionProblem(region=region, x=np.zeros(2)))
    np.testing.assert_allclose(v, [0.0, 0.0], atol=1e-9)


def test_injection_two_bank_distressed():
    net = fixtures.two_bank()
    region = healthy_region(net)
    x = np.array([-1.0, -1.0])
    v = minimal_injection(InjectionProblem(region=region, x=x))
    np.testing.assert_allclose(v, [1.0, 1.0], atol=1e-9)
    assert region.contains(x + v, tol=1e-8)
    # independent vertex enumeration on the same constraint rows
    oracle = lp_oracle(np.ones(2), region.A, region.b - region.A @ x)
    assert abs(float(v.sum()) - oracle) <= 1e-8


def test_injection_lands_inside_region_random():
    rng = np.random.default_rng(21)
    net = fixtures.two_bank()
    region = healthy_region(net)
    for _ in range(40):
        x = rng.uniform(-3.0, 3.0, size=2)
        v = minimal_injection(InjectionProblem(region=region, x=x))
        assert region.contains(x + v, tol=1e-7)
        oracle = lp_oracle(np.ones(2), region.A, region.b - region.A @ x)
        assert abs(float(v.sum()) - oracle) <= 1e-8


def test_injection_nonnegative_flag():
    net = fixtures.complete10()
    region = healthy_region(net)
    x = fixtures.SAMPLE_STATE10
    free = minimal_injection(InjectionProblem(region=region, x=x))
    assert free.min() < -1e-3             # withdrawals used when allowed
    capped = minimal_injection(InjectionProblem(region=region, x=x,
                                                nonnegative=True))
    assert capped.min() >= -1e-9
    assert region.contains(x + capped, tol=1e-7)
    assert capped.sum() >= free.sum() - 1e-9


def test_injection_complete10_flips_eight_components():
    net = fixtures.complete10()
    region = healthy_region(net)
    x = fixtures.SAMPLE_STATE10
    v = minimal_injection(InjectionProblem(region=region, x=x))
    flips = [0, 1, 2, 3, 4, 5, 6, 8]
    np.testing.assert_allclose(v[flips], -x[flips], atol=1e-3)
    surplus = x + v
    assert surplus.min() >= -1e-8
    # components 8 and 10 tie, so the LP may split the minimal 0.9 between them
    assert abs(surplus[7] + surplus[9] - 0.9) <= 1e-9
    assert np.abs(surplus[flips]).max() <= 1e-9


def test_reallocation_trivial_target():
    # v equals the current income vector, so the gap term can reach zero
    # and only the holdings norm remains: ||(0.75, 0.75)||
    net = fixtures.two_bank()
    D, sol = asset_reallocation(ReallocationProblem(network=net, v=net.D @ net.p))
    assert sol.converged
    assert abs(sol.objective - np.hypot(0.75, 0.75)) < 1e-6
    assert np.linalg.norm(D @ net.p - net.D @ net.p) < 1e-6


def test_reallocation_feasibility_and_history():
    net = fixtures.complete10()
    prob = ReallocationProblem(network=net, v=np.full(10, 0.8))
    D, sol = asset_reallocation(prob)
    ok, residuals = reallocation_feasible(prob, D)
    assert ok
    assert set(residuals) == {"nonneg", "colsum", "equilibrium"}
    assert all(r <= 1e-8 for r in residuals.values())
    assert all(a >= b - 1e-12 for a, b in zip(sol.history, sol.history[1:]))


def test_reallocation_multi_start_prefers_tracking():
    prob = ReallocationProblem(network=fixtures.complete10(), v=np.full(10, 0.8))
    prog, starts = build_reallocation_program(prob)
    assert len(starts) == 2
    # both starts must already be feasible points
    for start in starts:
        ok, _ = reallocation_feasible(prob, start.reshape(10, 10), tol=1e-6)
        assert ok


def test_reallocation_infeasible_names_group():
    net = fixtures.two_bank()
    bad = FinancialNetwork(C=net.C, D=net.D, p=net.p, beta=net.beta,
                           threshold=[50.0, 50.0])
    with pytest.raises(InfeasibleError, match="unreachable") as err:
        asset_reallocation(ReallocationProblem(network=bad, v=np.array([1.0, 1.0])))
    assert any(g in str(err.value) for g in ("nonneg", "colsum", "equilibrium"))


def test_drive_two_bank_monotone():
    net = fixtures.two_bank()
    plan = drive_to_invariant(net, np.array([-3.0, -3.0]))
    assert plan.success and plan.iterations == 3
    xs = [plan.initial_x] + [s.x for s in plan.steps]
    for a, b in zip(xs, xs[1:]):
        assert np.all(b >= a - 1e-12)     # recovery never loses ground
    assert plan.region.contains(plan.final_x)


def test_drive_skips_when_already_inside():
    net = fixtures.two_bank()
    plan = drive_to_invariant(net, np.array([1.0, 1.0]))
    assert plan.success and plan.iterations == 0
    np.testing.assert_array_equal(plan.final_x, [1.0, 1.0])
    assert isinstance(plan, InterventionPlan)


def test_drive_complete10_both_modes():
    net = fixtures.complete10()
    for mode in ("verbatim", "clamped"):
        plan = drive_to_invariant(net, fixtures.SAMPLE_STATE10, mode=mode)
        assert plan.success, mode
        assert plan.region.contains(plan.final_x, tol=1e-7)
        for step in plan.steps:
            assert max(step.residuals.values()) <= 1e-8
            assert step.D.shape == (10, 10)
            assert step.iterations >= 1       # the chosen descent's iterations


def test_drive_rejects_unknown_mode():
    with pytest.raises(ValueError):
        drive_to_invariant(fixtures.two_bank(), np.zeros(2), mode="greedy")


def test_iteration_cap_carries_partial_plan():
    net = fixtures.complete10()
    with pytest.raises(IterationCapReached) as err:
        drive_to_invariant(net, fixtures.SAMPLE_STATE10, max_iterations=1)
    plan = err.value.plan
    assert plan.iterations == 1 and not plan.success
    assert "after 1 iterations" in str(err.value)


def test_unconverged_reallocation_raises(monkeypatch):
    # one descent step cannot settle the complete10 program
    monkeypatch.setattr(intervene, "convex_solve",
                        lambda prog, start: numerics.convex_solve(replace(prog, max_iter=1), start))
    prob = ReallocationProblem(network=fixtures.complete10(), v=np.full(10, 0.8))
    with pytest.raises(IterationLimitError, match="not converged in 1 iterations"):
        asset_reallocation(prob)


def test_projection_warm_start_stays_with_its_problem():
    # the multipliers warm-starting each projection live in the problem's
    # own closure, so a drive in between cannot change a later drive's bits
    net = fixtures.complete10()
    first = drive_to_invariant(net, fixtures.SAMPLE_STATE10)
    drive_to_invariant(net, fixtures.SAMPLE_STATE10, mode="clamped")
    drive_to_invariant(fixtures.two_bank(), np.array([-3.0, -3.0]))
    again = drive_to_invariant(net, fixtures.SAMPLE_STATE10)
    assert first.iterations == again.iterations >= 1
    for a, b in zip(first.steps, again.steps):
        assert a.D.tobytes() == b.D.tobytes()


@pytest.mark.parametrize("price_scale", [1e3, 1e4])
def test_reallocation_on_a_network_with_large_prices(price_scale):
    # Large p makes the equilibrium rows kron(G, p) far longer than the
    # colsum rows. Projections then start from colsum multipliers in the
    # hundreds, which a full Newton step unwinds by about one per step; the
    # step search doubles such steps while the dual objective falls.
    net = fixtures.complete10()
    net = FinancialNetwork(C=net.C, D=net.D, p=net.p * price_scale, beta=net.beta,
                           threshold=net.threshold)
    prob = ReallocationProblem(network=net, v=np.full(10, 0.8 * price_scale))
    D, sol = asset_reallocation(prob)
    assert sol.converged
    ok, residuals = reallocation_feasible(prob, D)
    assert ok, residuals


def reference_reallocate(prob):
    """Descend from every start and keep the best: _reallocate without its certificate."""
    prog, starts = build_reallocation_program(prob)
    sol = None
    for start in starts:
        cand = numerics.convex_solve(prog, start)
        if sol is None or cand.objective < sol.objective - OPT_TOL:
            sol = cand
    return sol


def with_prices(net, scale):
    return FinancialNetwork(C=net.C, D=net.D, p=net.p * scale, beta=net.beta,
                            threshold=net.threshold)


def reallocation_problems(scales):
    """complete10 or a random gap network (n = 4..10), prices x scale, random target."""
    @st.composite
    def draw_problem(draw):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            net = fixtures.complete10()
        else:
            net = fixtures.random_gap_network(rng, draw(st.integers(4, 10)))
        scale = draw(st.sampled_from(scales))
        return ReallocationProblem(network=with_prices(net, scale),
                                   v=rng.uniform(-0.5, 1.5, size=net.n) * scale)
    return draw_problem()


def check_against_reference(prob):
    try:
        ref = reference_reallocate(prob)
    except IterationLimitError:     # a projection gave up in one of the descents
        ref = None
    try:
        D, sol, _, gap = intervene._reallocate(prob)
    except IterationLimitError:
        assert ref is None or not ref.converged
        return
    if ref is None:                 # only a start the certificate skipped may have raised
        assert gap is not None and gap <= 0.9 * OPT_TOL
        return
    assert D.tobytes() == ref.x.tobytes()
    assert (sol.objective, sol.iterations, sol.converged) == \
        (ref.objective, ref.iterations, ref.converged)


@settings(max_examples=25, deadline=None)
@given(reallocation_problems([1.0]))
def test_certified_reallocation_matches_both_starts(prob):
    check_against_reference(prob)


# At prices x1e3 the holdings descent usually runs to its 3,000-iteration cap,
# twice per example (reference and _reallocate), so each run draws one problem.
@settings(max_examples=1, deadline=None)
@given(reallocation_problems([1e3]))
def test_certified_reallocation_matches_both_starts_at_large_prices(prob):
    check_against_reference(prob)


@settings(max_examples=25, deadline=None)
@given(reallocation_problems([1.0, 1e3]), st.integers(0, 2**32 - 1))
def test_reallocation_lower_bound_is_valid(prob, seed):
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(seed)
    objective, project, (n, m), A, b = intervene._reallocation_pieces(prob)
    points = [project(rng.uniform(-1.0, 2.0, size=n * m)) for _ in range(8)]
    x = points[0]
    f, g = objective(x)
    gap = intervene._optimality_gap(objective, A, b, x)
    assert gap is not None
    bound = float(g @ x) - gap                    # the linear part: min g.z over K >= bound
    scale = max(1.0, float(np.abs(g).sum()))
    lower = f - gap                               # LB on f over K
    for z in points:
        assert lower <= objective(z)[0] + 1e-12 * scale
    ref = linprog(g, A_ub=-A, b_ub=-b, bounds=[(0.0, None)] * (n * m), method="highs")
    assert ref.status == 0
    assert bound <= ref.fun + 1e-12 * scale


def test_uncertified_start_runs_the_next(monkeypatch):
    # one descent step leaves the first start far from optimal, so its gap
    # cannot certify it and the holdings start must run and win
    runs = []
    def first_stops_early(prog, start):
        runs.append(numerics.convex_solve(replace(prog, max_iter=1) if not runs else prog, start))
        return runs[-1]
    monkeypatch.setattr(intervene, "convex_solve", first_stops_early)
    prob = ReallocationProblem(network=fixtures.complete10(), v=np.linspace(-0.5, 1.5, 10))
    D, sol, _, gap = intervene._reallocate(prob)
    assert len(runs) == 2 and sol is runs[1]
    assert runs[1].objective < runs[0].objective - OPT_TOL
    assert gap is None                  # the returned point was never bounded


def test_benchmark_drive_descends_once(monkeypatch):
    # a complete10 drive from one deficit node 0.45 below the healthy
    # equilibrium, as the benchmark builds them: the first start is certified
    net = fixtures.complete10()
    drift = (net.C - np.eye(net.n)) @ net.threshold + net.D @ net.p
    x0 = np.linalg.solve(np.eye(net.n) - net.C, drift)
    assert drift[0] < 0
    x0[0] -= 0.45
    runs = []
    def counted(prog, start):
        runs.append(start)
        return numerics.convex_solve(prog, start)
    monkeypatch.setattr(intervene, "convex_solve", counted)
    plan = drive_to_invariant(net, x0)
    assert plan.success and plan.iterations == 1
    assert len(runs) == 1
    assert 0.0 <= plan.steps[0].optimality_gap <= 0.9 * OPT_TOL
