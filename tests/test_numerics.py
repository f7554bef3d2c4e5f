"""Kernel checks against independent oracles (numpy.linalg, vertex enumeration)."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finnet import fixtures, numerics
from finnet.intervene import ReallocationProblem, _reallocation_pieces
from finnet.numerics import (
    OPT_TOL,
    ConvexProgram,
    InfeasibleError,
    LinearProgram,
    SingularMatrixError,
    UnboundedError,
    _phase1,
    _phase2,
    convex_solve,
    dykstra,
    lp_solve,
    project_nonneg,
    solve_linear,
)


def lp_vertex_oracle(lp: LinearProgram):
    """Enumerate basic feasible points of {Az >= b} and take the best.

    Independent of the simplex path: every n-subset of rows is solved with
    numpy and filtered by feasibility. Returns (objective, argmin) or None
    when no vertex is feasible.
    """
    m, n = lp.A.shape
    best = None
    for rows in itertools.combinations(range(m), n):
        sub = lp.A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        z = np.linalg.solve(sub, lp.b[list(rows)])
        if np.all(lp.A @ z >= lp.b - 1e-9):
            val = float(lp.c @ z)
            if best is None or val < best[0]:
                best = (val, z)
    return best


def random_bounded_lp(rng, n):
    # random halfspaces kept feasible at an interior point, plus a box
    z0 = rng.uniform(-2.0, 2.0, n)
    k = rng.integers(2, 5)
    A = rng.normal(size=(k, n))
    b = A @ z0 - rng.uniform(0.1, 2.0, k)
    box_A = np.vstack([np.eye(n), -np.eye(n)])
    box_b = np.concatenate([z0 - 5.0, -(z0 + 5.0)])
    c = rng.normal(size=n)
    return LinearProgram(c=c, A=np.vstack([A, box_A]), b=np.concatenate([b, box_b]))


def test_lu_matches_numpy_on_random_systems():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = rng.integers(1, 9)
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_linear(A, b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-9)
        assert np.max(np.abs(A @ x - b)) <= 1e-8 * max(1.0, np.abs(b).max())


def test_lu_solve_matrix_rhs():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5)) + 5 * np.eye(5)
    B = rng.normal(size=(5, 3))
    X = solve_linear(A, B)
    assert X.shape == (5, 3)
    np.testing.assert_allclose(A @ X, B, atol=1e-9)


def test_singular_matrix_raises():
    exact = np.array([[1.0, 2.0], [2.0, 4.0]])          # zero pivot
    near = np.array([[1.0, 2.0], [2.0, 4.0 + 1e-13]])   # 1-norm condition ~ 4e14
    zero_column = np.eye(4)
    zero_column[:, 2] = 0.0
    for A in (exact, near, zero_column, np.diag([1.0, 1e-13])):
        for rhs in (np.ones(A.shape[0]), np.eye(A.shape[0])[:, :2]):
            with pytest.raises(SingularMatrixError):
                solve_linear(A, rhs)
    # condition 1e11 is inside the 1 / PIVOT_TOL = 1e12 bound
    np.testing.assert_allclose(solve_linear(np.diag([1.0, 1e-11]), [1.0, 1e-11]), [1.0, 1.0])


def test_lp_known_vertex():
    # min z1 + z2 s.t. z >= 0, z1 + 2 z2 >= 4, picks (0, 2)
    lp = LinearProgram(c=np.ones(2),
                       A=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]),
                       b=np.array([0.0, 0.0, 4.0]))
    sol = lp_solve(lp)
    np.testing.assert_allclose(sol.z, [0.0, 2.0], atol=1e-9)
    assert abs(sol.objective - 2.0) <= 1e-9
    assert sol.cs_residual <= 1e-8


def test_lp_free_variable_negative_optimum():
    # min z s.t. z >= -5: optimum sits below zero, free variables required
    lp = LinearProgram(c=np.array([1.0]), A=np.array([[1.0]]), b=np.array([-5.0]))
    sol = lp_solve(lp)
    assert abs(sol.objective + 5.0) <= 1e-9


def test_lp_unbounded_and_infeasible():
    with pytest.raises(UnboundedError):
        lp_solve(LinearProgram(c=np.array([-1.0]), A=np.array([[1.0]]), b=np.array([0.0])))
    with pytest.raises(InfeasibleError):
        lp_solve(LinearProgram(c=np.array([1.0]),
                               A=np.array([[1.0], [-1.0]]), b=np.array([1.0, 0.0])))


def test_lp_with_no_rows():
    sol = lp_solve(LinearProgram(c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0)))
    assert sol.objective == 0.0 and sol.dual.shape == (0,)
    with pytest.raises(UnboundedError):
        lp_solve(LinearProgram(c=np.ones(2), A=np.zeros((0, 2)), b=np.zeros(0)))


def test_lp_matches_vertex_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(120):
        n = int(rng.integers(2, 4))
        lp = random_bounded_lp(rng, n)
        oracle = lp_vertex_oracle(lp)
        assert oracle is not None
        sol = lp_solve(lp)
        assert abs(sol.objective - oracle[0]) <= 1e-8
        assert sol.cs_residual <= 1e-8
        assert np.all(lp.A @ sol.z >= lp.b - 1e-8)


def test_lp_duals_certify_objective():
    rng = np.random.default_rng(6)
    for _ in range(40):
        lp = random_bounded_lp(rng, 2)
        sol = lp_solve(lp)
        # weak duality at the reported multipliers
        assert sol.dual is not None
        assert abs(sol.dual @ lp.b - sol.objective) <= 1e-7
        assert np.min(sol.dual) >= -1e-8


def random_lp(rng, kind):
    """Feasible at z0 ('free': bounded or not), boxed around z0, or made infeasible."""
    n = int(rng.integers(2, 6))
    k = int(rng.integers(n, 3 * n + 1))
    z0 = rng.uniform(-2.0, 2.0, n)
    A = rng.normal(size=(k, n))
    b = A @ z0 - rng.uniform(0.0, 1.0, k)
    if kind == "box":
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, z0 - 3.0, -(z0 + 3.0)])
    elif kind == "infeasible":          # a.z >= a.z0 + 0.5 and a.z <= a.z0
        a = rng.normal(size=n)
        A = np.vstack([A, a, -a])
        b = np.concatenate([b, [a @ z0 + 0.5, -(a @ z0)]])
    return LinearProgram(c=rng.normal(size=n), A=A, b=b)


def test_lp_matches_highs_on_random_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    seen = set()
    for kind in ("box", "free", "infeasible") * 40:
        lp = random_lp(rng, kind)
        ref = linprog(lp.c, A_ub=-lp.A, b_ub=-lp.b, bounds=[(None, None)] * lp.c.size,
                      method="highs")
        seen.add(ref.status)
        if ref.status == 0:
            sol = lp_solve(lp)
            assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            assert sol.cs_residual <= OPT_TOL
        else:
            assert ref.status in (2, 3)
            with pytest.raises(InfeasibleError if ref.status == 2 else UnboundedError):
                lp_solve(lp)
    assert seen == {0, 2, 3}


def test_phase2_from_shared_phase1_matches_fresh_solve():
    rng = np.random.default_rng(8)
    for kind in ("box", "free") * 15:
        lp = random_lp(rng, kind)
        start = _phase1(lp.A, lp.b)
        tableau = start.T.copy()
        for c in rng.normal(size=(4, lp.c.size)):
            try:
                fresh = lp_solve(LinearProgram(c=c, A=lp.A, b=lp.b))
            except UnboundedError:
                with pytest.raises(UnboundedError):
                    _phase2(start, c)
                continue
            shared = _phase2(start, c)
            assert shared.objective == fresh.objective
            assert np.array_equal(shared.z, fresh.z)
            assert np.array_equal(shared.dual, fresh.dual)
        assert np.array_equal(start.T, tableau)


def beale_tableau():
    """Beale's (1955) LP at the degenerate vertex x = 0 with the slack basis.

    min -3/4 x1 + 20 x2 - 1/2 x3 + 6 x4 over x >= 0 with
    1/4 x1 - 8 x2 - x3 + 9 x4 <= 0, 1/2 x1 - 12 x2 - 1/2 x3 + 3 x4 <= 0 and
    x3 <= 1. The most-negative-reduced-cost rule cycles here; the optimum
    is -5/4 at x = (1, 0, 1, 0).
    """
    A = np.array([[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]])
    T = np.hstack([A, np.eye(3), [[0.0], [0.0], [1.0]]])
    cost = np.array([-0.75, 20.0, -0.5, 6.0, 0.0, 0.0, 0.0, 0.0])
    return A, T, [4, 5, 6], cost


def test_bland_terminates_on_beale_cycling_example(monkeypatch):
    monkeypatch.setattr(numerics, "SIMPLEX_MAX_ITER", 50)
    A, T, basis, cost = beale_tableau()
    assert numerics._simplex(T, basis, cost) == "optimal"
    assert abs(cost[basis] @ T[:, -1] + 1.25) <= 1e-12
    # the same LP in lp_solve's form, z free with z >= 0 as rows
    lp = LinearProgram(c=cost[:4], A=np.vstack([-A, np.eye(4)]),
                       b=np.array([0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0]))
    sol = lp_solve(lp)
    np.testing.assert_allclose(sol.z, [1.0, 0.0, 1.0, 0.0], atol=1e-12)
    assert abs(sol.objective + 1.25) <= 1e-12 and sol.cs_residual <= OPT_TOL


@pytest.mark.parametrize("rhs, basis, leaves", [
    ((0.0, 0.0), (2, 1), 1),
    ((1e-10, 0.0), (2, 1), 1),
    ((0.0, 1e-10), (2, 1), 1),            # a tie: the larger ratio leaves
    ((1.5e-9, 0.8e-9, 0.0), (1, 3, 9), 2),
])
def test_ratio_test_keeps_the_sequential_bland_tie_rule(rhs, basis, leaves):
    # x0 enters with a unit column. Ratios within the simplex tolerance of
    # the best so far tie, and the smaller basic index wins; the rows are
    # scanned in order, so in the last case row 1 does not displace row 0
    # (index 3 > 1) while row 2 does (0 < 1.5e-9 - 1e-9).
    T = np.zeros((len(rhs), 11))
    T[:, 0], T[:, -1] = 1.0, rhs
    T[np.arange(len(rhs)), basis] = 1.0
    cost = np.zeros(11)
    cost[0] = -1.0
    basis = list(basis)
    expected = basis.copy()
    expected[leaves] = 0
    assert numerics._simplex(T, basis, cost) == "optimal"
    assert basis == expected


def test_convex_projection_onto_nonneg():
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum((z - np.array([1.0, 1.0])) ** 2)),
                             2 * (z - np.array([1.0, 1.0]))),
        project=project_nonneg)
    sol = convex_solve(prog, np.array([5.0, -3.0]))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-6)
    assert sol.converged


def test_convex_projection_clips_negative_target():
    target = np.array([-1.0, 2.0])
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum((z - target) ** 2)), 2 * (z - target)),
        project=project_nonneg)
    sol = convex_solve(prog, np.array([1.0, 1.0]))
    np.testing.assert_allclose(sol.x, [0.0, 2.0], atol=1e-6)


def test_convex_norm_over_halfspace():
    # min ||z|| over z1 + z2 >= 2, z >= 0 lands on (1, 1)
    A, b = np.array([[1.0, 1.0]]), np.array([2.0])
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum(z ** 2)), 2 * z),
        project=lambda z: dykstra(A, b, z))
    sol = convex_solve(prog, np.array([3.0, 0.5]))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-5)


def test_convex_history_is_monotone():
    target = np.array([0.3, -0.7, 1.1])
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum((z - target) ** 2)), 2 * (z - target)),
        project=project_nonneg)
    sol = convex_solve(prog, np.array([4.0, 4.0, 4.0]))
    hist = np.asarray(sol.history)
    assert np.all(np.diff(hist) <= 1e-12)


def test_halfspace_projection_identity_inside():
    A, b = np.array([[1.0, -1.0]]), np.array([1.0])
    x = np.array([3.0, 1.0])        # a.x = 2 >= 1, already inside
    np.testing.assert_allclose(dykstra(A, b, x), x)
    y = dykstra(A, b, np.array([0.0, 2.0]))
    assert abs(A[0] @ y - 1.0) <= 1e-12


def test_dykstra_hits_intersection():
    # nonneg orthant meets the plane z1 + z2 >= 3; projection of the origin-ish
    A, b = np.array([[1.0, 1.0]]), np.array([3.0])
    z = dykstra(A, b, np.array([-1.0, 0.5]))
    assert np.min(z) >= -1e-10
    assert A[0] @ z >= 3.0 - 1e-9
    # idempotent on the result
    z2 = dykstra(A, b, z)
    np.testing.assert_allclose(z2, z, atol=1e-8)


# -- dykstra against the callable-list sweep it replaced ---------------------

def project_halfspace(x, a, rhs):
    """Project onto {x : a.x >= rhs}."""
    gap = rhs - float(a @ x)
    return x if gap <= 0.0 else x + (gap / float(a @ a)) * a


def reference_dykstra(A, b, x0, tol=1e-10, max_cycles=2000):
    """Dykstra over [nonneg, halfspace rows in order], one vector correction per set."""
    projectors = [project_nonneg] + [
        lambda y, a=a, rhs=rhs: project_halfspace(y, a, rhs) for a, rhs in zip(A, b)]
    x = np.asarray(x0, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in projectors]
    for _ in range(max_cycles):
        x_prev = x.copy()
        for i, proj in enumerate(projectors):
            y = x + corrections[i]
            x = proj(y)
            corrections[i] = y - x
        if np.max(np.abs(x - x_prev)) < tol:
            break
    return x


def reallocation_set(net, epsilon=1e-6):
    """{z >= 0 : column sums of D <= 1, (I - C)^-1 D p >= threshold + epsilon}."""
    n, m = net.D.shape
    G = np.linalg.inv(np.eye(n) - net.C)
    rows = []
    for j in range(m):
        mask = np.zeros((n, m))
        mask[:, j] = 1.0
        rows.append(-mask.reshape(-1))
    for i in range(n):
        rows.append(np.outer(G[i], net.p).reshape(-1))
    return np.array(rows), np.concatenate([-np.ones(m), net.threshold + epsilon])


def polyhedron_cases():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 7))
        A = rng.normal(size=(k, n))
        b = A @ rng.uniform(0.0, 2.0, n) - rng.uniform(0.0, 1.0, k)
        yield A, b, rng.normal(scale=3.0, size=n)
    nets = [fixtures.complete10()] + [fixtures.random_gap_network(rng, n) for n in range(6, 11)]
    for net in nets:
        A, b = reallocation_set(net)
        for x0 in (net.D.reshape(-1), rng.normal(scale=0.5, size=net.D.size)):
            yield A, b, x0


@pytest.mark.parametrize("max_cycles", [1, 5, 2000])
def test_dykstra_matches_callable_reference(max_cycles):
    for A, b, x0 in polyhedron_cases():
        scale = max(1.0, np.abs(A).max(), np.abs(b).max(), np.abs(x0).max())
        got = dykstra(A, b, x0, max_cycles=max_cycles)
        want = reference_dykstra(A, b, x0, max_cycles=max_cycles)
        assert np.max(np.abs(got - want)) <= 1e-12 * scale


def test_reallocation_projection_uses_the_reallocation_set():
    rng = np.random.default_rng(12)
    for net in (fixtures.complete10(), fixtures.random_gap_network(rng, 7)):
        prob = ReallocationProblem(network=net, v=rng.uniform(-1.0, 1.0, net.n))
        _, project, _, A, b = _reallocation_pieces(prob)
        A_ref, b_ref = reallocation_set(net, prob.epsilon)
        np.testing.assert_allclose(A, A_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b, b_ref, rtol=1e-12, atol=0.0)
        z = net.D.reshape(-1)
        scale = max(1.0, np.abs(A).max(), np.abs(b).max())
        assert np.max(np.abs(project(z) - reference_dykstra(A_ref, b_ref, z))) <= 1e-12 * scale


small_ints = st.integers(-3, 3)


@st.composite
def polyhedra_with_interior(draw):
    """{x >= 0, A x >= b} with z0 >= 1 and A z0 >= b + 1, so z0 is interior."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    A = np.array(draw(st.lists(st.lists(small_ints, min_size=n, max_size=n)
                               .filter(lambda row: any(row)), min_size=k, max_size=k)), dtype=float)
    z0 = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    slack = np.array(draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)), dtype=float)
    x0 = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return A, A @ z0 - slack, x0


# Without an interior point the sweep can stall for thousands of cycles
# while the corrections build up: from x0 = (-5, 0, -2.62, 5), the set
# A = [[2, -2, -2, 1], [0, -3, 1, 0], [-3, -2, 1, -2]], b = (0, 1, -2) is
# still 0.078 away after max_cycles. So the property is stated for sets
# with an interior point. The explicit example once stopped on a stall
# outside the set.
@settings(max_examples=200, deadline=None)
@example((np.array([[0.0, 0.0, -1.0, 1.0]]), np.array([1.0]), np.array([0.0, 0.0, 0.0, -1.0])))
@given(polyhedra_with_interior())
def test_dykstra_feasible_and_idempotent(case):
    A, b, x0 = case
    x = dykstra(A, b, x0)
    assert np.min(x) >= -1e-7
    assert np.min(A @ x - b) >= -1e-7 * max(1.0, np.abs(b).max())
    np.testing.assert_allclose(dykstra(A, b, x), x, atol=1e-7)
