"""Cash injection LP, holdings reallocation, and the driving loop."""

import functools
import gc
import itertools
import re
import warnings
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finnet import fixtures, intervene, numerics
from finnet.equilibria import candidate_equilibrium
from finnet.intervene import (
    InjectionProblem,
    InterventionPlan,
    IterationCapReached,
    ReallocationProblem,
    asset_reallocation,
    drive_to_invariant,
    minimal_injection,
    reallocation_feasible,
)
from finnet.invariance import Polyhedron, maximal_invariant_region
from finnet.netmodel import FinancialNetwork, ShiftedModel
from finnet.numerics import (PROJECTION_TOL, STRICT_MARGIN, InfeasibleError, IterationLimitError,
                             LinearProgram, NonFiniteDataError, UnboundedError, lp_solve,
                             project_polyhedron, projection_tol)
from finnet.robust import IntervalNetwork, robust_report
from reallocation_reference import build_reallocation_program, reference_reallocate


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
    assert region.margins(x + v).min() >= -1e-8
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
        assert region.margins(x + v).min() >= -1e-7
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
    assert region.margins(x + capped).min() >= -1e-7
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


def injection_lp(region, x, nonnegative):
    A, b, n = region.A, region.b - region.A @ x, x.size
    if nonnegative:
        A, b = np.vstack([A, np.eye(n)]), np.concatenate([b, np.zeros(n)])
    return LinearProgram(c=np.ones(n), A=A, b=b)


def distressed_states(net, rng, count):
    """The healthy equilibrium with one to three nodes pushed into distress, draws around it,
    and two states far from M+, x_eq +- 100 |x_eq|."""
    model = ShiftedModel.from_network(net)
    x_eq = np.linalg.solve(np.eye(net.n) - model.C, model.r)
    states = []
    for _ in range(count):
        x = x_eq.copy()
        idx = rng.choice(net.n, size=int(rng.integers(1, 4)), replace=False)
        x[idx] -= rng.uniform(0.2, 1.5, size=idx.size)
        states += [x, x_eq + rng.uniform(-1.5, 0.5, net.n)]
    return states + [x_eq + 100.0 * np.abs(x_eq), x_eq - 100.0 * np.abs(x_eq)]


@pytest.mark.parametrize("nonnegative", [False, True])
@pytest.mark.parametrize("label", ["complete10", "gap6", "gap8"])
def test_injection_does_not_depend_on_call_order(label, nonnegative):
    # one region's LPs share a phase 1. Free v is the first optimal basis's point for
    # every x, with no simplex call after the first; nonnegative v warm-starts phase 2
    # from the last optimal tableau, kept only at a unique optimum. Either way every v
    # is a cold lp_solve's, bit for bit, whatever ran before it
    rng = np.random.default_rng(17)
    net = fixtures.complete10() if label == "complete10" else \
        fixtures.random_gap_network(rng, int(label[3:]))
    region = healthy_region(net)
    states = distressed_states(net, rng, 12) + [fixtures.SAMPLE_STATE10] * (net.n == 10)
    with mock.patch.object(numerics, "_pivot", wraps=numerics._pivot) as pivots, \
            mock.patch.object(numerics, "_simplex", wraps=numerics._simplex) as simplex:
        cold = [lp_solve(injection_lp(region, x, nonnegative)).z for x in states]
        cold_pivots, pivots.call_count = pivots.call_count, 0
        orders = [range(len(states)), range(len(states))[::-1]]
        simplex_calls = []
        for order in orders + [rng.permutation(len(states)) for _ in range(5)]:
            for i in order:
                v = minimal_injection(InjectionProblem(region=region, x=states[i],
                                                       nonnegative=nonnegative))
                assert v.tobytes() == cold[i].tobytes()
                simplex_calls.append(simplex.call_count)
    # the shared phase 1 alone saves pivots; free v pivots on the first call only
    assert pivots.call_count < 7 * cold_pivots
    if not nonnegative:
        assert simplex_calls[-1] == simplex_calls[0]
    if label == "complete10" and not nonnegative:
        # the optimum at SAMPLE_STATE10 is a segment: v is the cold run's end, which is
        # the first basis's point, 0.9 on component 8
        assert abs((fixtures.SAMPLE_STATE10 + cold[-1])[7] - 0.9) <= 1e-9


def test_injection_on_a_rank_deficient_region():
    # A's rows are parallel, so a dual basis has one row and z is lstsq's least-norm point
    # on it; every x, in any order, still gets a cold lp_solve's z, bit for bit
    region = Polyhedron(A=[[1.0, 1.0], [2.0, 2.0]], b=[0.0, 1.0], row_power=[0, 0])
    states = [np.array(x) for x in ([0.0, 0.0], [-1.0, 0.5], [3.0, -2.0], [-40.0, -7.5],
                                    [0.25, 0.25], [1e3, -1e3])]
    cold = [lp_solve(injection_lp(region, x, False)).z for x in states]
    for order in (range(len(states)), *(np.random.default_rng(k).permutation(len(states))
                                        for k in range(3))):
        for i in order:
            v = minimal_injection(InjectionProblem(region=region, x=states[i]))
            assert v.tobytes() == cold[i].tobytes()
            assert region.margins(states[i] + v).min() >= -1e-9


def test_injection_follows_rows_changed_in_place():
    rng = np.random.default_rng(5)
    net = fixtures.complete10()
    region = healthy_region(net)
    x = fixtures.SAMPLE_STATE10
    states = distressed_states(net, np.random.default_rng(6), 3)
    before = {}
    for nonnegative in (False, True):
        before[nonnegative] = minimal_injection(InjectionProblem(region=region, x=x,
                                                                 nonnegative=nonnegative))
    # a region's rows are read-only, so its kept LP start cannot go stale; new rows (M+ stays
    # nonempty) make a new region, with a start of its own. The states after x reuse it,
    # its basis and the kept inverse, and every answer is the cold LP's, bit for bit
    for A, b in ((rng.uniform(0.5, 2.0, region.A.shape), 0.0),
                 (1.0, rng.uniform(0.0, 1.0, region.b.shape))):
        with pytest.raises(ValueError, match="read-only"):
            region.A[:] *= A
        with pytest.raises(ValueError, match="read-only"):
            region.b[:] -= b
        region = Polyhedron(A=region.A * A, b=region.b - b, row_power=region.row_power)
        for nonnegative in (False, True):
            for y in [x] + states:
                v = minimal_injection(InjectionProblem(region=region, x=y,
                                                       nonnegative=nonnegative))
                assert v.tobytes() == lp_solve(injection_lp(region, y, nonnegative)).z.tobytes()
            v = minimal_injection(InjectionProblem(region=region, x=x, nonnegative=nonnegative))
            assert not np.array_equal(v, before[nonnegative])
            before[nonnegative] = v


@pytest.mark.parametrize("label", ["complete10", "gap6", "gap8"])
def test_free_injections_after_a_regions_first_factorise_nothing(label):
    # the free injection's basis does not depend on x, and its start keeps that basis's
    # inverse: after a region's first LP, v is one product, with no LAPACK solve or inverse
    rng = np.random.default_rng(17)
    net = fixtures.complete10() if label == "complete10" else \
        fixtures.random_gap_network(rng, int(label[3:]))
    region = healthy_region(net)
    states = distressed_states(net, rng, 12)
    minimal_injection(InjectionProblem(region=region, x=states[0]))
    with mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve) as solve, \
            mock.patch.object(np.linalg, "inv", wraps=np.linalg.inv) as inv:
        for x in states[1:]:
            minimal_injection(InjectionProblem(region=region, x=x))
    assert solve.call_count == inv.call_count == 0


@functools.lru_cache(maxsize=None)
def gap_model(n, seed):
    """A random_gap_network's model and M+, built once so examples share the region's LPs."""
    model = ShiftedModel.from_network(fixtures.random_gap_network(np.random.default_rng(seed), n))
    return model, maximal_invariant_region(model, 0)


@st.composite
def distressed_gap_states(draw):
    n = draw(st.integers(3, 8))
    model, region = gap_model(n, draw(st.integers(0, 3)))
    x_eq = np.linalg.solve(np.eye(n) - model.C, model.r)
    deficit = draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))
    return model, region, x_eq - np.array(deficit), draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(distressed_gap_states())
def test_injected_state_stays_in_the_invariant_region(case):
    # x + v enters M+, and M+ is invariant, so one step keeps it there; the
    # examples share 24 regions in hypothesis's own order, so later examples
    # on a region start phase 2 warm
    model, region, x, nonnegative = case
    v = minimal_injection(InjectionProblem(region=region, x=x, nonnegative=nonnegative))
    tol = 1e-9 * max(1.0, np.abs(region.A).max(), np.abs(region.b).max(), np.abs(x).max())
    assert region.margins(x + v).min() >= -tol
    assert region.margins(model.step(x + v)).min() >= -tol
    if nonnegative:
        assert v.min() >= -tol


def test_injection_failures_repeat():
    empty = Polyhedron(A=[[1.0], [-1.0]], b=[1.0, 0.0], row_power=[0, 0])   # 1 <= x <= 0
    open_below = Polyhedron(A=[[1.0, 0.0]], b=[0.0], row_power=[0])        # x_2 unbounded
    capped = Polyhedron(A=[[-1.0]], b=[-1.0], row_power=[0])                # x <= 1
    for _ in range(3):
        for nonnegative in (False, True):
            with pytest.raises(InfeasibleError):
                minimal_injection(InjectionProblem(region=empty, x=[0.0], nonnegative=nonnegative))
        with pytest.raises(UnboundedError):
            minimal_injection(InjectionProblem(region=open_below, x=[0.0, 0.0]))
        v = minimal_injection(InjectionProblem(region=open_below, x=[-1.0, 0.0], nonnegative=True))
        np.testing.assert_array_equal(v, [1.0, 0.0])
        # no withdrawal brings x = 2 under the cap; x = 0 and x = -3 need none
        for x, expected in ((0.0, [0.0]), (2.0, None), (-3.0, [0.0])):
            prob = InjectionProblem(region=capped, x=[x], nonnegative=True)
            if expected is None:
                with pytest.raises(InfeasibleError):
                    minimal_injection(prob)
            else:
                np.testing.assert_array_equal(minimal_injection(prob), expected)
        for region, x in ((empty, [np.nan]), (open_below, [0.0, np.inf])):
            with pytest.raises(ValueError, match="non-finite"):
                minimal_injection(InjectionProblem(region=region, x=x))


def test_injection_rejects_a_b_that_overflows_on_a_later_call():
    # every call checks b = region.b - A x before it looks up the region's start, so a later
    # call that reuses the start checks it too. M+'s rows have |A| row sums <= 1, so they are
    # scaled by 4 (the same set) for A x to overflow at x = 1e308
    m_plus = healthy_region(fixtures.complete10())
    region = Polyhedron(A=4.0 * m_plus.A, b=4.0 * m_plus.b, row_power=m_plus.row_power)
    for nonnegative in (False, True):
        minimal_injection(InjectionProblem(region=region, x=fixtures.SAMPLE_STATE10,
                                           nonnegative=nonnegative))
        assert nonnegative in region._injection_lps
        with pytest.raises(ValueError, match="^LP data has non-finite entries$"):
            minimal_injection(InjectionProblem(region=region, x=np.full(10, 1e308),
                                               nonnegative=nonnegative))


@pytest.mark.parametrize("later", [False, True], ids=["first", "later"])
@pytest.mark.parametrize("nonnegative", [False, True], ids=["free", "nonnegative"])
def test_injection_near_float_range_answers_or_raises_without_a_warning(later, nonnegative):
    # on M+ b stays finite at x = 1e308, but the free answer's 1.v (about -1e309) or the
    # products of a simplex on b are past float range: each call either answers exactly or
    # raises NonFiniteDataError, and none warns. A nonnegative call answers v = 0 in any
    # call order: its cold phase 2 forms no product past float range, and a later call's
    # warm run from the kept tableau, which overflows, is repeated cold
    region = healthy_region(fixtures.complete10())
    if later:
        minimal_injection(InjectionProblem(region=region, x=fixtures.SAMPLE_STATE10,
                                           nonnegative=nonnegative))
    prob = InjectionProblem(region=region, x=np.full(10, 1e308), nonnegative=nonnegative)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if nonnegative:
            v = minimal_injection(prob)
            assert v.tobytes() == np.zeros(10).tobytes() and region.contains(prob.x)
        else:
            with pytest.raises(NonFiniteDataError, match="^injection LP at this state overflows"):
                minimal_injection(prob)
    # the failure leaves the region's start sound for ordinary states
    x = fixtures.SAMPLE_STATE10
    v = minimal_injection(InjectionProblem(region=region, x=x, nonnegative=nonnegative))
    assert v.tobytes() == lp_solve(injection_lp(region, x, nonnegative)).z.tobytes()


def test_a_stalled_cold_projection_is_raised(monkeypatch):
    # the first projection starts from the active-set estimate; its stall is repeated from
    # zero multipliers, which have no colder start to repeat: that stall is the answer
    net = fixtures.complete10()
    v = drive_to_invariant(net, benchmark_start(net)).injection
    prob = ReallocationProblem(network=net, v=v)
    estimate = intervene._multipliers(*prob._rows[:2], prob.v)
    calls = []
    def stalling(A, b, y, lam=None):
        calls.append(lam)
        raise IterationLimitError("projection residual 1e-3 after 100 Newton steps")
    monkeypatch.setattr(intervene, "project_polyhedron", stalling)
    with pytest.raises(IterationLimitError, match="^projection residual"):
        asset_reallocation(prob)
    assert len(calls) == 2 and calls[0].tobytes() == estimate.tobytes() and calls[1] is None


def test_path_stops_where_an_index_would_cross_back_at_once():
    # P = {y >= 0, y_1 + 2 y_2 >= 1/2}, v = (1, 1/2): upward from y(0) = v, y_2 reaches 0
    # and the row becomes active at kappa = 1/2 together. Taking both events, y_2 leaves F,
    # but then w_2 = (v - kappa 1 + A^T lam)_2 rises at rate 2 dlam - 1 = 1: y_2 would
    # re-enter at once. The true path keeps y_2 > 0 (slope (-0.4, 0.2) on F = {1, 2}), so
    # the trace stops at the event and the caller projects there
    A, b, v = np.array([[1.0, 2.0]]), np.array([0.5]), np.array([1.0, 0.5])
    y, lam = project_polyhedron(A, b, v)
    pieces = list(intervene._path(A, b, v, 0.0, y, lam, True))
    assert len(pieces) == 1
    kappa, y0, _, dy, _, length = pieces[0]
    assert kappa == 0.0 and length == 0.5 and dy.tolist() == [-1.0, -1.0]
    assert project_polyhedron(A, b, v - 0.6)[0][1] > 0.0


def test_a_stalled_warm_projection_is_repeated_cold(monkeypatch):
    # every warm projection stalls: each is repeated cold, and the answer lands within its
    # reported gap of the unpatched one
    net = fixtures.complete10()
    v = drive_to_invariant(net, benchmark_start(net)).injection
    _, unpatched = asset_reallocation(ReallocationProblem(network=net, v=v))
    warm, cold = [], []
    def stalling(A, b, y, lam=None):
        if lam is not None:
            warm.append(lam)
            raise IterationLimitError("stalled")
        cold.append(y)
        return project_polyhedron(A, b, y)
    monkeypatch.setattr(intervene, "project_polyhedron", stalling)
    prob = ReallocationProblem(network=net, v=v)
    _, sol = asset_reallocation(prob)
    # the first warm start is the active-set estimate, so every projection is repeated cold
    assert len(cold) == len(warm) == sol.iterations >= 2
    assert warm[0].tobytes() == intervene._multipliers(*prob._rows[:2], v).tobytes()
    assert sol.objective - unpatched.objective <= sol.optimality_gap
    assert unpatched.objective - sol.objective <= unpatched.optimality_gap


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["x", "v"])
def test_non_finite_target_is_named(name, bad):
    # checked where the problem is built, before any matrix product can warn
    net = fixtures.two_bank()
    with pytest.raises(ValueError, match=f"{name} has non-finite"):
        if name == "x":
            minimal_injection(InjectionProblem(region=healthy_region(net), x=[0.5, bad]))
        else:
            asset_reallocation(ReallocationProblem(network=net, v=[bad, 0.5]))


@pytest.mark.parametrize("make, message", [
    (lambda net: InjectionProblem(region=healthy_region(net), x=[0.5, 0.5, 0.5]),
     "injection state x has shape (3,), expected (2,)"),
    (lambda net: ReallocationProblem(network=net, v=[[0.5, 0.5]]),
     "reallocation target v has shape (1, 2), expected (2,)"),
    (lambda net: robust_report(IntervalNetwork.from_nominal(net.C, [0.5, 0.5], 0.1), x0=[1.0]),
     "x0 has shape (1,), expected (2,)"),
], ids=["injection-x", "reallocation-v", "robust-x0"])
def test_wrong_shape_is_named(make, message):
    # checked where the problem is built, so the error names the argument and its shape
    with pytest.raises(ValueError, match=re.escape(message)):
        make(fixtures.two_bank())


def test_reallocation_trivial_target():
    # v equals the current income vector, so the gap term can reach zero
    # and only the holdings norm remains: ||(0.75, 0.75)||
    net = fixtures.two_bank()
    D, sol = asset_reallocation(ReallocationProblem(network=net, v=net.D @ net.p))
    assert 0.0 <= sol.optimality_gap <= 1e-9
    assert abs(sol.objective - np.hypot(0.75, 0.75)) < 1e-6
    assert np.linalg.norm(D @ net.p - net.D @ net.p) < 1e-6


def test_reallocation_feasibility_and_gap():
    net = fixtures.complete10()
    prob = ReallocationProblem(network=net, v=np.full(10, 0.8))
    D, sol = asset_reallocation(prob)
    ok, residuals = reallocation_feasible(prob, D)
    assert ok
    assert set(residuals) == {"nonneg", "colsum", "equilibrium"}
    assert all(r <= 1e-8 for r in residuals.values())
    assert 0.0 <= sol.optimality_gap <= intervene.REALLOCATION_TOL * 10.0
    # v lies in P, and with equal prices phi(0+) = 1 / sqrt(10) - h'(8) = 0 on the path's
    # first piece: y = v is optimal, but rounding decides whether y(0) alone certifies it
    assert sol.iterations <= 2


def test_reallocation_multi_start_prefers_tracking():
    prob = ReallocationProblem(network=fixtures.complete10(), v=np.full(10, 0.8))
    prog, starts = build_reallocation_program(prob)
    assert len(starts) == 2
    # both of the reference's starts must already be feasible points
    for start in starts:
        _, residuals = reallocation_feasible(prob, start.reshape(10, 10))
        assert max(residuals.values()) <= 1e-6


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
        assert plan.region.margins(plan.final_x).min() >= -1e-7
        for step in plan.steps:
            assert max(step.residuals.values()) <= 1e-8
            assert step.D.shape == (10, 10)
            assert 1 <= step.iterations <= 2  # y(0), and the checked root unless v is in P
            assert 0.0 <= step.optimality_gap <= intervene.REALLOCATION_TOL * 10.0


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


def test_drive_entering_on_its_last_allowed_iteration_succeeds():
    # a mild start (one deficit node 0.45 below the healthy equilibrium) needs one
    # reallocation: a cap of 1 lets it succeed, a cap of 0 stops it outside M+
    net = fixtures.complete10()
    x0 = candidate_equilibrium(ShiftedModel.from_network(net), 0).x
    x0[0] -= 0.45
    assert not healthy_region(net).contains(x0)
    plan = drive_to_invariant(net, x0, max_iterations=1)
    assert plan.success and plan.iterations == 1
    assert plan.region.contains(plan.final_x)
    with pytest.raises(IterationCapReached) as err:
        drive_to_invariant(net, x0, max_iterations=0)
    assert err.value.plan.iterations == 0 and not err.value.plan.success


def test_unconverged_reallocation_raises(monkeypatch):
    # one projection cannot settle the complete10 program when v sums past sum p = 10:
    # v lies outside P, so y(0) = proj_P(v) needs a checked root after it
    monkeypatch.setattr(intervene, "REALLOCATION_MAX_ITER", 1)
    prob = ReallocationProblem(network=fixtures.complete10(), v=np.full(10, 2.0))
    with pytest.raises(IterationLimitError, match="reallocation not converged in 1 projections"):
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
    assert 0.0 <= sol.optimality_gap <= intervene.REALLOCATION_TOL * 10.0 * price_scale
    ok, residuals = reallocation_feasible(prob, D)
    assert ok, residuals


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


def scale_of(prob):
    return max(1.0, float(np.abs(prob.v).max()), float(prob.network.p.sum()))


def check_lift(prob, D, y):
    """D >= 0 with D p = y, 1^T D = the least-norm column sums for 1^T y, and those <= 1."""
    p, tol = prob.network.p, 1e-12 * scale_of(prob)
    s = least_norm_column_sums(p, float(y.sum()))
    assert D.min() >= 0.0
    assert np.abs(D @ p - y).max() <= tol
    assert np.abs(D.sum(axis=0) - s).max() <= tol
    assert D.sum(axis=0).max() <= 1.0 + tol


def check_against_reference(prob):
    D, sol = asset_reallocation(prob)
    check_lift(prob, D, D @ prob.network.p)
    assert reallocation_feasible(prob, D)[0]
    try:
        ref = reference_reallocate(prob)
    except IterationLimitError:     # a projection in one of the reference's descents gave up
        return
    # every reference iterate is a projection, so its objective is attained on the set
    assert sol.objective <= ref.objective + 1e-9 * scale_of(prob)


@settings(max_examples=25, deadline=None)
@given(reallocation_problems([1.0]))
def test_certified_reallocation_matches_both_starts(prob):
    check_against_reference(prob)


# At prices x1e3 the reference's holdings descent usually runs to its
# 3,000-iteration cap, so each run draws one problem.
@settings(max_examples=1, deadline=None)
@given(reallocation_problems([1e3]))
def test_certified_reallocation_matches_both_starts_at_large_prices(prob):
    check_against_reference(prob)


def least_norm_column_sums(p, sigma):
    """min |s| over 0 <= s <= 1, p.s = sigma, by bisection on tau in s = min(1, tau p)."""
    lo, hi = 0.0, 1.0 / p[p > 0].min()
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        lo, hi = (tau, hi) if np.minimum(1.0, tau * p) @ p < sigma else (lo, tau)
    return np.minimum(1.0, hi * p)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 7.0]), min_size=1, max_size=8)
       .filter(lambda ps: max(ps) > 0), st.floats(0.0, 1.0))
def test_column_sums_are_the_least_norm_fill(prices, frac):
    p = np.array(prices)
    sigma = frac * p.sum()
    s, slope = intervene._column_sums(p, sigma)
    np.testing.assert_allclose(s, least_norm_column_sums(p, sigma), rtol=0.0, atol=1e-12)
    assert abs(s @ p - sigma) <= 1e-12 * p.sum()
    # h'(sigma), against a one-sided difference quotient of h = |s| inside [0, sum p]
    delta = 1e-6 * p.sum() * (1.0 if frac < 0.5 else -1.0)
    h = np.linalg.norm
    quotient = (h(least_norm_column_sums(p, sigma + delta)) - h(s)) / delta
    assert abs(slope - quotient) <= 1e-4 * max(1.0, slope)


@settings(max_examples=50, deadline=None)
@given(reallocation_problems([1.0, 1e3]), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_lift_meets_the_reduced_point(prob, frac, seed):
    # any y >= 0 with 1^T y <= sum p lifts to holdings with D p = y and 1^T D = s
    rng = np.random.default_rng(seed)
    y = rng.exponential(size=prob.network.n) * (rng.random(prob.network.n) < 0.8)
    y *= frac * prob.network.p.sum() / max(y.sum(), 1e-300)
    D, _ = intervene._lift(prob, y, 0, 0.0, intervene._fill_order(prob.network.p))
    check_lift(prob, D, y)


def slsqp_minimum(prob, D, minimize):
    """SLSQP on the reduced program min |y - v| + |s|, started from y = D p, s = 1^T D.

    Returns the value it reaches and that point's largest constraint violation.
    """
    net, v = prob.network, prob.v
    n, m = net.D.shape
    G, lower = np.linalg.inv(np.eye(n) - net.C), net.threshold + STRICT_MARGIN
    unit = lambda z: z / np.linalg.norm(z) if np.linalg.norm(z) > 0 else np.zeros_like(z)
    res = minimize(
        lambda x: np.linalg.norm(x[:n] - v) + np.linalg.norm(x[n:]),
        np.concatenate([D @ net.p, D.sum(axis=0)]),
        jac=lambda x: np.concatenate([unit(x[:n] - v), unit(x[n:])]),
        method="SLSQP", bounds=[(0.0, None)] * n + [(0.0, 1.0)] * m,
        constraints=[{"type": "ineq", "fun": lambda x: G @ x[:n] - lower,
                      "jac": lambda x: np.hstack([G, np.zeros((n, m))])},
                     {"type": "eq", "fun": lambda x: np.array([net.p @ x[n:] - x[:n].sum()]),
                      "jac": lambda x: np.concatenate([-np.ones(n), net.p])[None, :]}],
        options={"ftol": 1e-15, "maxiter": 500})
    x = res.x
    violation = max(0.0, -(G @ x[:n] - lower).min(), abs(net.p @ x[n:] - x[:n].sum()),
                    -x.min(), (x[n:] - 1.0).max())
    return float(res.fun), violation


@settings(max_examples=25, deadline=None)
@given(reallocation_problems([1.0, 1e3, 1e4]))
def test_reallocation_lower_bound_is_valid(prob):
    minimize = pytest.importorskip("scipy.optimize").minimize
    D, sol = asset_reallocation(prob)
    best, violation = slsqp_minimum(prob, D, minimize)
    scale = scale_of(prob)
    assert violation <= 1e-12 * scale
    assert best >= sol.objective - 1e-10 * scale        # nothing feasible is lower
    assert sol.objective - best <= sol.optimality_gap   # the certificate bounds the distance
    assert sol.optimality_gap <= intervene.REALLOCATION_TOL * scale
    # stopped early, the solve returns a worse point whose gap still bounds its distance
    with mock.patch.object(intervene, "REALLOCATION_TOL", 1e-3):
        D_early, early = asset_reallocation(prob)
    assert reallocation_feasible(prob, D_early)[0]
    assert early.objective - best <= early.optimality_gap <= 1e-3 * scale


def test_reallocation_gap_includes_the_projection_tolerance():
    # drawn by the property above: the solve stopped once |phi| sum p was within
    # REALLOCATION_TOL x scale, but reported that plus the projection's tolerance
    v = np.array([1.14275476, 0.66223285, 0.68861841, 1.25885027, -0.15065452, -0.15696476,
                  0.16632428, 0.70052585, 0.56388138, 0.24317328])
    prob = ReallocationProblem(network=fixtures.complete10(), v=v)
    D, sol = asset_reallocation(prob)
    assert 0.0 <= sol.optimality_gap <= intervene.REALLOCATION_TOL * scale_of(prob)
    assert sol.objective <= reference_reallocate(prob).objective + 1e-9
    assert reallocation_feasible(prob, D)[0]


def test_target_inside_the_set_is_kept():
    # v = D p lies inside P, and at prices x1e3 the holdings norm is too cheap
    # to trade for income: y = v and the objective is h(1^T v) = 1^T v / |p|
    net = with_prices(fixtures.complete10(), 1e3)
    v = net.D @ net.p
    D, sol = asset_reallocation(ReallocationProblem(network=net, v=v))
    assert np.abs(D @ net.p - v).max() <= 1e-12 * v.max()
    assert abs(sol.objective - v.sum() / np.linalg.norm(net.p)) <= 1e-12 * v.sum()
    assert sol.iterations == 1          # y(0) = v, and the path's first piece gives phi(0+)


def test_target_inside_the_set_moves_when_holdings_cost_more():
    # v = 0.3 is interior, but at prices x0.5 a unit of income costs 2 / |p| in
    # holdings against 1 / sqrt(n) in tracking, so the root lies above kappa = 0
    net = with_prices(fixtures.complete10(), 0.5)
    prob = ReallocationProblem(network=net, v=np.full(10, 0.3))
    D, sol = asset_reallocation(prob)
    assert np.abs(D @ net.p - prob.v).max() > 1e-3
    assert sol.objective < np.linalg.norm(least_norm_column_sums(net.p, 3.0)) - 1e-3
    ref = reference_reallocate(prob)
    assert sol.objective <= ref.objective + 1e-9
    assert 0.0 <= sol.optimality_gap <= intervene.REALLOCATION_TOL * 5.0


def test_zero_income_gives_zero_holdings():
    # thresholds below zero put y = 0 in P, and v < 0 projects there: sigma = 0
    net = fixtures.complete10()
    net = FinancialNetwork(C=net.C, D=net.D, p=net.p, beta=net.beta, threshold=np.full(10, -1.0))
    v = np.full(10, -0.5)
    D, sol = asset_reallocation(ReallocationProblem(network=net, v=v))
    assert not D.any()
    assert sol.objective == np.linalg.norm(v)


def test_zero_price_column_stays_empty():
    net = fixtures.complete10()
    p = net.p.copy()
    p[3] = 0.0
    net = FinancialNetwork(C=net.C, D=net.D, p=p, beta=net.beta, threshold=net.threshold)
    prob = ReallocationProblem(network=net, v=np.linspace(-0.5, 1.5, 10))
    D, sol = asset_reallocation(prob)
    assert not D[:, 3].any()
    check_lift(prob, D, D @ p)
    assert sol.objective <= reference_reallocate(prob).objective + 1e-9


def two_node_problem(c01, c10, p, threshold, v):
    net = FinancialNetwork(C=np.array([[0.0, c01], [c10, 0.0]]), D=np.zeros((2, len(p))),
                           p=np.array(p), beta=np.ones(2), threshold=np.array(threshold))
    return ReallocationProblem(network=net, v=np.array(v))


@pytest.mark.parametrize("c", [0.99, 0.9999])
def test_reallocation_on_a_nearly_singular_network(c):
    # column sums c near one make G = (I - C)^-1 as large as 1 / (1 - c), and
    # with it the projection's own tolerance, which the stop must not wait on.
    # By symmetry the optimum is y = (1 + eps)(1 - c) 1 with s = y: 2 sqrt(2) y_1.
    prob = two_node_problem(c, c, [1.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    D, sol = asset_reallocation(prob)
    exact = 2.0 * np.sqrt(2.0) * (1.0 + STRICT_MARGIN) * (1.0 - c)
    assert abs(sol.objective - exact) <= sol.optimality_gap
    assert sol.optimality_gap <= intervene.REALLOCATION_TOL * 2.0 + PROJECTION_TOL * prob.G.max()
    assert sol.iterations <= 3
    assert reallocation_feasible(prob, D)[0]


@pytest.mark.parametrize("case", [
    # phi rises by more than REALLOCATION_TOL over one float step of kappa, so
    # the solve stops at float resolution, with a larger gap
    (0.36, 0.9, [0.001, 1.63], [0.17, 0.14], [7.4, 4.5]),
    # h'(1^T y(0)) is near 1 / 0.001, so |y - v| h' would put the first probe
    # at kappa ~ 6e3, where the projection's Newton steps stall
    (0.999, 0.4087, [0.001, 0.92], [1.43, 0.9], [-0.1, 6.4]),
    # the bracket spans four orders of magnitude; plain bisection needs 47
    (0.7875, 0.9, [0.001, 1.75], [0.1, 0.35], [8.0, 5.9]),
    # phi changes sign within two ulps of kappa = 0.2644: the piece from the bracket's
    # lower end holds no root before its projected upper end, so the next kappa halves
    # the bracket (projecting that end again would repeat until the projection cap)
    (0.9311229863506436, 0.7917543419417478,
     [0.019983613067014638, 7.069096267981772, 8.242828135634305],
     [1.902898485902274, -0.02450386089540857], [7.276437553490362, 8.56477543869349]),
], ids=["float-resolution", "far-first-probe", "wide-bracket", "model-misses-the-root"])
def test_reallocation_with_a_thousandfold_cheaper_asset(case):
    minimize = pytest.importorskip("scipy.optimize").minimize
    prob = two_node_problem(*case)
    D, sol = asset_reallocation(prob)
    assert sol.iterations <= 16
    assert reallocation_feasible(prob, D)[0]
    check_lift(prob, D, D @ prob.network.p)
    best, violation = slsqp_minimum(prob, D, minimize)
    scale = scale_of(prob)
    assert violation <= 1e-12 * scale
    assert best >= sol.objective - 1e-10 * scale
    assert sol.objective - best <= sol.optimality_gap <= 1e-9 * scale


@pytest.mark.parametrize("case", [
    (0.36, 0.9, [0.001, 1.63], [0.17, 0.14], [7.4, 4.5]),
    # a stress draw whose last projection has about 4 times the least gap seen
    (0.9392685758212909, 0.8863486041913694, [1.6335536434432139, 0.001],
     [1.659639973862955, 1.2657040248370104], [1.9408313755788529, -0.2375004967077602]),
], ids=["float-resolution", "rounding-decides"])
def test_float_resolution_answers_the_least_gap_seen(monkeypatch, case):
    # near a root this steep, rounding decides phi from one projection to the next,
    # so the solve answers the projection with the least gap |phi| sum p, not the last
    prob = two_node_problem(*case)
    v, p, gaps = prob.v, prob.network.p, []
    def recorded(A, b, target, lam=None):
        y, lam = project_polyhedron(A, b, target, lam)
        kappa = float(v[0] - target[0])         # to an ulp: kappa / rho moves far less than phi
        phi = kappa / np.linalg.norm(y - v) - intervene._column_sums(p, float(y.sum()))[1]
        gaps.append(abs(phi) * p.sum())
        return y, lam
    monkeypatch.setattr(intervene, "project_polyhedron", recorded)
    D, sol = asset_reallocation(prob)
    assert sol.optimality_gap > intervene.REALLOCATION_TOL * scale_of(prob)     # float resolution
    assert min(gaps) <= sol.optimality_gap <= 1.05 * min(gaps)


@pytest.mark.parametrize("case", [
    (0.541374605956527, 0.3975353406512018, [0.0011789051398859896, 2.3699108943433833],
     [2.3687409194093054, 1.7568536604730143], [1.3902481197147314, 0.9808344663313884]),
    (0.29174902267442104, 0.5700605370335192, [0.0018985117752754945, 1.740595339835364],
     [1.7347057027847903, 1.3423034168566026], [1.3689868625969814, 0.3734776113043728]),
], ids=["price-0.0012", "price-0.0019"])
def test_target_inside_the_set_at_float_resolution(case):
    # v lies in P, but with 1^T v near sum p the cheap asset fills, so phi(0+) < 0 and
    # the root lies above kappa = 0. phi there is steep enough that the solve stops at
    # float resolution, answering the least gap seen; y(0) = v enters that choice only
    # with its own gap |phi(0+)| sum p, not with the projection's tolerance alone
    minimize = pytest.importorskip("scipy.optimize").minimize
    prob = two_node_problem(*case)
    net, v = prob.network, prob.v
    assert (v >= 0).all() and v.sum() <= net.p.sum()
    assert (prob.G @ v >= net.threshold + STRICT_MARGIN).all()
    D, sol = asset_reallocation(prob)
    scale = scale_of(prob)
    assert sol.iterations >= 2
    assert sol.optimality_gap > intervene.REALLOCATION_TOL * scale      # float resolution
    assert reallocation_feasible(prob, D)[0]
    assert np.abs(D @ net.p - v).max() > 1e-4
    best, violation = slsqp_minimum(prob, D, minimize)
    assert violation <= 1e-12 * scale
    assert sol.objective - best <= sol.optimality_gap <= 1e-9 * scale


def test_far_root_that_stalled_the_projection_is_traced():
    # one price of 0.01 puts h' near 1 / 0.01 at y(0): the probe that once bracketed the
    # root from |y - v| h' projected at kappa ~ 500, where 100 Newton steps did not
    # settle. The traced path reaches the root near kappa = 20.3 over three pieces
    # instead, and one warm projection there certifies it.
    minimize = pytest.importorskip("scipy.optimize").minimize
    prob = two_node_problem(0.1943, 0.9, [0.01, 1.13, 0.23], [1.54, 0.91], [10.0, 2.1])
    D, sol = asset_reallocation(prob)
    assert sol.iterations == 2
    assert sol.optimality_gap <= intervene.REALLOCATION_TOL * scale_of(prob)
    assert reallocation_feasible(prob, D)[0]
    best, violation = slsqp_minimum(prob, D, minimize)
    assert violation <= 1e-12 * scale_of(prob)
    assert abs(sol.objective - best) <= sol.optimality_gap


def test_traced_path_matches_cold_projections():
    # _path's pieces of y(kappa) = proj_P(v - kappa 1), upward from y(0) and downward from
    # kappa = K, against a cold projection at each piece's midpoint in [0, K].
    # complete10 at prices 10^U(-1, 3): where G = (I - C)^-1 is larger, the cold point
    # itself strays past projection_tol, as its stop is on the KKT residual, not on y
    pieces = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        prob = ReallocationProblem(network=with_prices(fixtures.complete10(), scale),
                                   v=rng.uniform(-0.5, 1.5, 10) * scale)
        v, K = prob.v, float(np.abs(prob.v).max()) / np.sqrt(10.0)
        A = np.vstack([prob.G, -np.ones(10)])
        b = np.append(prob.network.threshold + STRICT_MARGIN, -prob.network.p.sum())
        for up, start in ((True, 0.0), (False, K)):
            try:
                y, lam = project_polyhedron(A, b, v - start)
            except InfeasibleError:             # prices too low to meet the thresholds
                break
            for kappa, y, lam, dy, dlam, length in intervene._path(A, b, v, start, y, lam, up):
                if (kappa >= K) if up else (kappa <= 0.0):
                    break
                mid = kappa + 0.5 * min(length, K - kappa) if up else \
                    kappa - 0.5 * min(length, kappa)
                cold = project_polyhedron(A, b, v - mid)[0]
                assert np.abs(y + (mid - kappa) * dy - cold).max() <= projection_tol(A, b, v - mid)
                pieces += 1
    assert pieces >= 200


def test_stalled_warm_start_reprojects_cold(monkeypatch):
    # a projection warm-started from a far kappa's multipliers, or from the first
    # projection's active-set estimate, can run out of Newton steps; the solve then
    # repeats it from zero multipliers. Prices 0.5..1.5 make the optimum unique, and
    # 1^T v = 12 > sum p puts v outside P, so the first projection starts warm too
    net = replace(fixtures.complete10(), p=np.linspace(0.5, 1.5, 10))
    prob = ReallocationProblem(network=net, v=np.full(10, 1.2))
    D, sol = asset_reallocation(prob)
    warm = []
    def cold_only(A, b, y, lam=None):
        if lam is not None:
            warm.append(lam)
            raise IterationLimitError("stalled")
        return project_polyhedron(A, b, y)
    monkeypatch.setattr(intervene, "project_polyhedron", cold_only)
    D_cold, cold = asset_reallocation(prob)
    assert len(warm) == cold.iterations >= 2
    assert warm[0].tobytes() == intervene._multipliers(*prob._rows[:2], prob.v).tobytes()
    assert abs(cold.objective - sol.objective) <= 1e-12 * 10.0
    assert cold.optimality_gap <= intervene.REALLOCATION_TOL * 10.0
    assert np.abs(D_cold - D).max() <= 1e-9


def stress_networks(rng, count):
    """count networks from each of three stress families: random networks (n = 2-10) with
    prices spread by 10^U(-3, 5); two-node networks with up to three assets, one priced
    10^U(-3, -1); and random networks (n = 2-5) whose columns of C sum to 0.9-0.999, so
    that G = (I - C)^-1 is large."""
    for _ in range(count):
        n = int(rng.integers(2, 11))
        net = fixtures.random_network(rng, n)
        yield replace(net, p=net.p * 10.0 ** rng.uniform(-3.0, 5.0, n))
        m = int(rng.integers(1, 4))
        p = rng.uniform(0.5, 2.0, m)
        p[rng.integers(m)] = 10.0 ** rng.uniform(-3.0, -1.0)
        yield FinancialNetwork(C=np.array([[0.0, rng.uniform()], [rng.uniform(), 0.0]]),
                               D=np.zeros((2, m)), p=p, beta=np.ones(2),
                               threshold=rng.uniform(-0.1, 2.0, 2))
        n = int(rng.integers(2, 6))
        net = fixtures.random_network(rng, n)
        yield replace(net, C=net.C * rng.uniform(0.9, 0.999, n) / net.C.sum(axis=0))


def reallocated(prob):
    """(objective, gap) of the reallocation, or (the error's type, None)."""
    try:
        _, sol = asset_reallocation(prob)
    except numerics.SolverError as e:
        return type(e), None
    return sol.objective, sol.optimality_gap


def test_estimated_start_keeps_every_outcome(monkeypatch):
    # the first projection's start changes its work, not the answer: on the stress families
    # each problem has the same outcome with the active-set estimate as from zero
    # multipliers, and solved objectives agree within the sum of both reported gaps
    rng = np.random.default_rng(33)
    problems = [ReallocationProblem(network=net, v=rng.uniform(-2.0, 4.0, net.n) *
                                    2.0 * net.p.sum() / net.n) for net in stress_networks(rng, 40)]
    estimate, starts = intervene._multipliers, []
    monkeypatch.setattr(intervene, "_multipliers",
                        lambda *args: starts.append(estimate(*args)) or starts[-1])
    warm = [reallocated(prob) for prob in problems]
    monkeypatch.setattr(intervene, "_multipliers", lambda *args: None)
    cold = [reallocated(prob) for prob in problems]
    for (a, gap_a), (b, gap_b) in zip(warm, cold):
        if gap_a is None or gap_b is None:
            assert a is b
        else:
            assert abs(a - b) <= gap_a + gap_b
    assert sum(gap is None for _, gap in cold) >= 10
    assert sum(start is not None for start in starts) >= 80


@pytest.mark.parametrize("v", [[-8e281, 4e266], [1e180, 5e179]], ids=["cli-target", "1e180"])
def test_estimate_is_none_for_a_target_past_the_squares_float_range(v):
    # the network of the CLI's non-finite-residual case, p = (1e180, 1): |w|^2 overflows, so
    # the estimate gives way, without a warning, to the cold start and its outcome
    net = FinancialNetwork(C=np.array([[0.0, 0.5], [0.5, 0.0]]), D=np.eye(2),
                           p=np.array([1e180, 1.0]), beta=np.ones(2),
                           threshold=np.array([-2.0, 0.0]))
    prob = ReallocationProblem(network=net, v=v)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert intervene._multipliers(*prob._rows[:2], prob.v) is None
    if v[0] < 0:
        with np.errstate(all="ignore"), pytest.raises(numerics.NonFiniteResidualError):
            asset_reallocation(prob)


def benchmark_start(net):
    """complete10's healthy equilibrium with deficit node 0 pushed 0.45 below it."""
    drift = (net.C - np.eye(net.n)) @ net.threshold + net.D @ net.p
    x0 = np.linalg.solve(np.eye(net.n) - net.C, drift)
    assert drift[0] < 0
    x0[0] -= 0.45
    return x0


def test_benchmark_drive_reallocates_once_with_a_certificate(monkeypatch):
    # a complete10 drive from one deficit node 0.45 below the healthy
    # equilibrium, as the benchmark builds them
    net = fixtures.complete10()
    x0 = benchmark_start(net)
    calls = []
    def counted(*args):
        calls.append((args, project_polyhedron(*args)))
        return calls[-1][1]
    monkeypatch.setattr(intervene, "project_polyhedron", counted)
    plan = drive_to_invariant(net, x0)
    assert plan.success and plan.iterations == 1
    assert plan.steps[0].iterations == len(calls) == 2     # y(0) and the checked root
    # the root's check starts from the traced multipliers and takes no Newton step
    (A, b, target, traced), (_, lam) = calls[1]
    assert np.array_equal(lam, traced)
    assert 0.0 <= plan.steps[0].optimality_gap <= intervene.REALLOCATION_TOL * 10.0


def test_piece_slope_is_the_projection_path_slope():
    # along the benchmark drive's target, v - kappa 1 projects onto one piece for kappa in
    # [0.2, 0.3]: y > 0 throughout and the nine equilibrium rows of nodes 1-9 active
    net = fixtures.complete10()
    region = healthy_region(net)
    v = minimal_injection(InjectionProblem(region=region, x=benchmark_start(net)))
    G = ReallocationProblem(network=net, v=v).G
    A = np.vstack([G, -np.ones(net.n)])
    b = np.append(net.threshold + STRICT_MARGIN, -net.p.sum())
    (y1, lam1), (y2, lam2) = (project_polyhedron(A, b, v - kappa) for kappa in (0.2, 0.3))
    assert np.array_equal(y1 > 0, y2 > 0) and np.array_equal(lam1 > 0, lam2 > 0)
    assert np.flatnonzero(lam1 > 0).tolist() == list(range(1, 10))
    dy, _ = intervene._piece(A, y1 > 0, lam1 > 0)
    assert np.abs(dy + 1.0).max() > 0.1        # the active rows bend the path
    np.testing.assert_allclose(dy, (y2 - y1) / (0.3 - 0.2), rtol=0.0, atol=1e-9)


def test_piece_steps_cut_projections_at_spread_prices():
    # 100 complete10 problems at prices 10^U(-1, 3), 99 of them feasible: the bound,
    # about 2 projections per problem, holds only if the traced path, not repeated
    # projections, finds each root
    rng = np.random.default_rng(2024)
    total = 0
    for _ in range(100):
        scale = 10.0 ** rng.uniform(-1.0, 3.0)
        prob = ReallocationProblem(network=with_prices(fixtures.complete10(), scale),
                                   v=rng.uniform(-0.5, 1.5, 10) * scale)
        try:
            D, sol = asset_reallocation(prob)
        except InfeasibleError:                 # prices too low to meet the thresholds
            continue
        assert sol.optimality_gap <= intervene.REALLOCATION_TOL * scale_of(prob)
        total += sol.iterations
    assert total <= 211


def test_weakly_active_row_does_not_stall_the_piece_step():
    # the sum row keeps lam > 0 at slack 4e-13, so the piece through it holds 1^T y
    # fixed; a piece model that misreads such a row can propose kappa + 1e-10 over and
    # over until the projection cap. Two projections reach the root: y(0) and the
    # checked root at the end of the traced path.
    C = np.array([[0, .16260398, .5213771, .31535937], [.10778622, 0, .24723095, .0392033],
                  [.16641478, .37926513, 0, .19008324], [.42569858, .34173153, .10990171, 0]])
    net = FinancialNetwork(C=C, D=np.diag([.619742238, .0309798733, 1.01875118, 2.77129001e-4]),
                           p=np.ones(4), beta=[.86690924, .25288584, .2786366, .63445502],
                           threshold=[1.85954769, .54785721, 1.47647773, 1.08135706])
    prob = ReallocationProblem(network=net, v=[.32104819, 1.19643036, 1.47205314, 1.08820203])
    D, sol = asset_reallocation(prob)
    assert sol.iterations == 2
    assert sol.optimality_gap <= intervene.REALLOCATION_TOL * scale_of(prob)
    assert abs(sol.objective - 2.03886686) <= 1e-8
    assert reallocation_feasible(prob, D)[0]


def counted_regions(monkeypatch):
    calls = []
    def counted(model, k):
        calls.append(k)
        return maximal_invariant_region(model, k)
    monkeypatch.setattr(intervene, "maximal_invariant_region", counted)
    return calls


def test_drives_of_one_network_share_its_region(monkeypatch):
    calls = counted_regions(monkeypatch)
    net = fixtures.complete10()
    first = drive_to_invariant(net, benchmark_start(net))
    second = drive_to_invariant(net, fixtures.SAMPLE_STATE10, mode="clamped")
    assert len(calls) == 1 and first.region is second.region


def counted(monkeypatch, owner, name, log):
    """Replace owner.name by a wrapper that appends name to log on each call."""
    original = getattr(owner, name)
    def wrapper(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)


def test_drives_of_one_network_build_its_reallocation_rows_once(monkeypatch):
    # G, the rows and the fill order are kept beside M+; a direct call on the network reuses them
    builds = []
    counted(monkeypatch, intervene, "solve_linear", builds)
    net = fixtures.complete10()
    plans = [drive_to_invariant(net, benchmark_start(net), mode=mode)
             for mode in ("verbatim", "clamped")]
    assert [plan.iterations for plan in plans] == [1, 1] and len(builds) == 1
    asset_reallocation(ReallocationProblem(network=net, v=plans[0].injection))
    assert len(builds) == 1


def test_a_driven_network_is_freed_without_the_cycle_collector():
    # what the network keeps for its drives holds no reference back to it
    net = fixtures.complete10()
    drive_to_invariant(net, benchmark_start(net))
    ref = weakref.ref(net)
    gc.disable()
    try:
        del net
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name, index, factor", [("threshold", 1, 1.05), ("p", 0, 1.1)])
def test_reallocation_rows_follow_a_network_changed_in_place(monkeypatch, name, index, factor):
    # the network's arrays are read-only, so its kept rows cannot go stale; a network
    # rebuilt with the new values builds its own
    builds = []
    counted(monkeypatch, intervene, "solve_linear", builds)
    net = fixtures.complete10()
    drive_to_invariant(net, benchmark_start(net))
    with pytest.raises(ValueError, match="read-only"):
        getattr(net, name)[index] *= factor
    values = getattr(net, name).copy()
    values[index] *= factor
    net = replace(net, **{name: values})
    x0 = benchmark_start(net)
    plan = drive_to_invariant(net, x0)
    assert len(builds) == 2 and plan.success and plan.iterations >= 1
    fresh = drive_to_invariant(FinancialNetwork(C=net.C, D=net.D, p=net.p.copy(), beta=net.beta,
                                                threshold=net.threshold.copy()), x0)
    assert plan.iterations == fresh.iterations
    for sa, sb in zip(plan.steps, fresh.steps):
        assert sa.D.tobytes() == sb.D.tobytes() and sa.x.tobytes() == sb.x.tobytes()


def test_region_follows_a_network_changed_in_place(monkeypatch):
    # as for the rows: the write raises, and a network rebuilt with the new C builds its M+
    calls = counted_regions(monkeypatch)
    net = fixtures.complete10()
    drive_to_invariant(net, benchmark_start(net))
    with pytest.raises(ValueError, match="read-only"):
        net.C[0, 1] *= 0.5
    C = net.C.copy()
    C[0, 1] *= 0.5
    net = replace(net, C=C)
    plan = drive_to_invariant(net, benchmark_start(net))
    assert len(calls) == 2
    fresh = healthy_region(FinancialNetwork(C=C, D=net.D, p=net.p, beta=net.beta,
                                            threshold=net.threshold))
    assert plan.region.A.tobytes() == fresh.A.tobytes()
    assert plan.region.b.tobytes() == fresh.b.tobytes()


def test_plans_on_a_shared_network_match_fresh_ones():
    shared = fixtures.complete10()
    starts = [benchmark_start(shared), fixtures.SAMPLE_STATE10]
    for x0, mode in itertools.product(starts, ("verbatim", "clamped")):
        a = drive_to_invariant(shared, x0, mode=mode)
        b = drive_to_invariant(fixtures.complete10(), x0, mode=mode)
        assert a.iterations == b.iterations and a.success == b.success
        assert a.injection.tobytes() == b.injection.tobytes()
        for sa, sb in zip(a.steps, b.steps):
            assert sa.D.tobytes() == sb.D.tobytes() and sa.x.tobytes() == sb.x.tobytes()


def test_work_counts_of_the_benchmark_tasks(monkeypatch):
    # exact work counts, so a change that brings back a per-call rebuild fails here and not
    # only in the benchmark. On complete10's distressed states a free injection after the
    # region's first makes no LAPACK factorisation (np.linalg.inv, solve or lstsq) and a
    # nonnegative one at most 1; drives on one network build G once, and the benchmark
    # drive takes 2 projections with no Newton step (np.linalg.solve inside
    # project_polyhedron) in either: y(0) starts from the active-set estimate (from zero
    # multipliers it took 5 to 7 steps), and the root's check from the traced multipliers
    net = fixtures.complete10()
    region = healthy_region(net)
    states = distressed_states(net, np.random.default_rng(1), 20)
    lapack = []
    for name in ("inv", "solve", "lstsq"):
        counted(monkeypatch, np.linalg, name, lapack)
    counts = {}
    for nonnegative in (False, True):
        counts[nonnegative] = []
        for x in states:
            before = len(lapack)
            minimal_injection(InjectionProblem(region=region, x=x, nonnegative=nonnegative))
            counts[nonnegative].append(len(lapack) - before)
    assert counts[False] == [1] + [0] * (len(states) - 1)
    assert max(counts[True]) == 1
    G_builds, newton = [], []
    counted(monkeypatch, intervene, "solve_linear", G_builds)
    project = intervene.project_polyhedron
    def stepped(*args):
        start = len(lapack)
        answer = project(*args)
        newton.append(lapack[start:].count("solve"))
        return answer
    monkeypatch.setattr(intervene, "project_polyhedron", stepped)
    for mode in ("verbatim", "clamped"):
        plan = drive_to_invariant(net, benchmark_start(net), mode=mode)
        assert plan.iterations == 1
    assert len(G_builds) == 1 and newton == [0, 0] * 2
