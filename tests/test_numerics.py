"""Kernel checks against independent oracles (numpy.linalg, vertex and active-set enumeration)."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finnet import fixtures, numerics
from finnet.intervene import ReallocationProblem
from finnet.numerics import (
    OPT_TOL,
    STRICT_MARGIN,
    InfeasibleError,
    IterationLimitError,
    LinearProgram,
    NonFiniteResidualError,
    SingularMatrixError,
    UnboundedError,
    _anchored,
    _phase1,
    _vertex,
    lp_solve,
    project_polyhedron,
    solve_linear,
)
from reallocation_reference import (
    ConvexProgram,
    build_reallocation_program,
    convex_solve,
    reallocation_pieces,
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


@pytest.mark.parametrize("A, b, message", [
    (np.ones((2, 3)), np.ones(2), r"^expected a square matrix, got shape \(2, 3\)$"),
    (np.ones(3), np.ones(3), r"^expected a square matrix, got shape \(3,\)$"),
    (np.eye(2), np.ones(3), "^right-hand side has incompatible shape$"),
    (np.eye(2), np.ones((3, 2)), "^right-hand side has incompatible shape$"),
    (np.eye(2), np.ones((2, 2, 1)), "^right-hand side has incompatible shape$")])
def test_solve_linear_rejects_bad_shapes(A, b, message):
    with pytest.raises(ValueError, match=message):
        solve_linear(A, b)


@pytest.mark.parametrize("c, A, b", [([1.0, 1.0], [[1.0, 0.0]], [0.0, 1.0]),
                                     ([1.0], [[1.0, 0.0]], [0.0])])
def test_linear_program_rejects_inconsistent_dimensions(c, A, b):
    with pytest.raises(ValueError, match="^inconsistent LP dimensions$"):
        LinearProgram(c=c, A=A, b=b)


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


@pytest.mark.parametrize("width", [1.0, 1e-8, 1e-12])
def test_phase1_tells_small_sets_from_empty_ones(width):
    # the acceptance is relative to the right-hand side: 1e-8 <= z <= 0 is empty at any
    # scale, and 0 <= z <= width holds z = width / 2 however small width is
    A = np.array([[1.0], [-1.0]])
    with pytest.raises(InfeasibleError):
        _phase1(A, np.array([width, 0.0]))
    z, _ = _vertex(_phase1(A, np.array([0.0, -width])), np.array([-1.0]))
    assert z[0] == width


def test_lp_with_no_rows():
    sol = lp_solve(LinearProgram(c=np.zeros(2), A=np.zeros((0, 2)), b=np.zeros(0)))
    assert sol.objective == 0.0 and sol.dual.shape == (0,)
    with pytest.raises(UnboundedError):
        lp_solve(LinearProgram(c=np.ones(2), A=np.zeros((0, 2)), b=np.zeros(0)))


def test_basic_point_does_not_depend_on_the_basis_order():
    # z = A_B^-1 b_B with B's rows in increasing order, so every order of one basis gives the
    # same bits, from a fresh start or from the inverse a start keeps. A short or singular
    # basis (A rank deficient) gives lstsq's point on the sorted rows
    rng = np.random.default_rng(21)
    A, b = rng.normal(size=(9, 4)), rng.normal(size=9)
    A[7] = 2.0 * A[6]
    for basis in ([6, 1, 8, 3], [5, 0], [7, 6, 0, 2]):
        kept, rows, bits = numerics._DualStart(A, np.ones(4)), sorted(basis), set()
        for order in itertools.permutations(basis):
            bits.add(numerics._basic_point(kept, b, list(order)).tobytes())
            fresh = numerics._DualStart(A, np.ones(4))
            bits.add(numerics._basic_point(fresh, b, list(order)).tobytes())
        assert len(bits) == 1
        z = np.frombuffer(bits.pop())
        if basis[0] == 6:
            assert (kept.inverse[1] @ b[rows]).tobytes() == z.tobytes()
            np.testing.assert_allclose(A[rows] @ z, b[rows], rtol=0.0, atol=1e-12)
        else:
            assert kept.inverse[1] is None
            assert z.tobytes() == np.linalg.lstsq(A[rows], b[rows], rcond=None)[0].tobytes()


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
        assert np.max(np.abs(sol.dual @ lp.A - lp.c)) <= 1e-8


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


def check_against_highs(lp, linprog):
    """lp_solve's answer on lp against HiGHS': the objective, or the same failure; returns the status."""
    ref = linprog(lp.c, A_ub=-lp.A, b_ub=-lp.b, bounds=[(None, None)] * lp.c.size, method="highs")
    if ref.status == 0:
        sol = lp_solve(lp)
        assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
        assert sol.cs_residual <= OPT_TOL
    else:
        assert ref.status in (2, 3)
        with pytest.raises(InfeasibleError if ref.status == 2 else UnboundedError):
            lp_solve(lp)
    return ref.status


def test_lp_matches_highs_on_random_instances():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    seen = {check_against_highs(random_lp(rng, kind), linprog)
            for kind in ("box", "free", "infeasible") * 40}
    assert seen == {0, 2, 3}


def test_lp_matches_highs_on_scaled_rows():
    # the same instances with each row (a_i, b_i) scaled by 10^U(-4, 4): the
    # polyhedron, the optimum and the failure class are unchanged
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    seen = set()
    for kind in ("box", "free", "infeasible") * 60:
        lp = random_lp(rng, kind)
        row = 10.0 ** rng.uniform(-4.0, 4.0, lp.b.size)
        seen.add(check_against_highs(LinearProgram(c=lp.c, A=lp.A * row[:, None], b=lp.b * row),
                                     linprog))
    assert seen == {0, 2, 3}


def test_warm_phase2_matches_highs_on_scaled_rows():
    # one dual start per polyhedron serves 20 right-hand sides in turn, each
    # phase 2 starting from the last optimal tableau; rows are scaled by
    # 10^U(-4, 4) as above
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(11)
    seen, warm = set(), 0
    for kind in ("box", "free") * 8:
        lp = random_lp(rng, kind)
        row = 10.0 ** rng.uniform(-4.0, 4.0, lp.b.size)
        start = numerics._DualStart(lp.A * row[:, None], lp.c)
        for _ in range(20):
            b = (lp.b + rng.uniform(-0.5, 0.5, lp.b.size)) * row
            ref = linprog(lp.c, A_ub=-start.A, b_ub=-b, bounds=[(None, None)] * lp.c.size,
                          method="highs")
            seen.add(ref.status)
            had_last = start.last is not None
            with mock.patch.object(numerics, "_simplex", wraps=numerics._simplex) as simplex:
                if ref.status != 0:
                    with pytest.raises(InfeasibleError if ref.status == 2 else UnboundedError):
                        numerics._dual_phase2(start, b)
                    continue
                sol = numerics._certified(start, b, numerics._dual_phase2(start, b))
            assert abs(sol.objective - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            assert sol.cs_residual <= OPT_TOL
            warm += had_last and simplex.call_count == 1     # the warm answer was kept
    assert seen == {0, 2, 3} and warm >= 100


def test_lp_answer_scales_with_the_objective():
    # scaling c scales the optimum and the duals and keeps z and the failure
    # class. The dual's phase-1 tolerance is absolute, so without the scaling
    # of c it takes |c| < 1e-7 for feasible: the unbounded LP below returned
    # z = 0 with y = -1e-8.
    with pytest.raises(UnboundedError):
        lp_solve(LinearProgram(c=np.array([-1e-8]), A=np.array([[1.0]]), b=np.array([0.0])))
    rng = np.random.default_rng(9)
    for kind in ("box", "free", "infeasible") * 10:
        lp = random_lp(rng, kind)
        try:
            ref = lp_solve(lp)
        except (InfeasibleError, UnboundedError) as e:
            for k in (1e-8, 1e8):
                with pytest.raises(type(e)):
                    lp_solve(LinearProgram(c=k * lp.c, A=lp.A, b=lp.b))
            continue
        for k in (1e-8, 1e8):
            sol = lp_solve(LinearProgram(c=k * lp.c, A=lp.A, b=lp.b))
            assert np.max(np.abs(sol.z - ref.z)) <= 1e-9 * scale_of(lp.A, lp.b, ref.z)
            assert np.max(np.abs(sol.dual - k * ref.dual)) <= 1e-9 * k * max(1.0, np.abs(ref.dual).max())
            assert abs(sol.objective - k * ref.objective) <= 1e-9 * k * max(1.0, abs(ref.objective))


def test_vertex_from_shared_phase1_matches_fresh_solve():
    # one _phase1 serves many objectives: each vertex is the one a fresh phase 1
    # gives, bit for bit, and its objective is lp_solve's certified optimum; so is the
    # objective reached from the optimal basis that the previous bounded objective handed back
    rng = np.random.default_rng(8)
    for kind in ("box", "free") * 15:
        lp = random_lp(rng, kind)
        start = warm = _phase1(lp.A, lp.b)
        tableau = start.T.copy()
        for c in rng.normal(size=(4, lp.c.size)):
            try:
                fresh = lp_solve(LinearProgram(c=c, A=lp.A, b=lp.b))
            except UnboundedError:
                for begin in (start, warm, _phase1(lp.A, lp.b)):
                    with pytest.raises(UnboundedError):
                        _vertex(begin, c)
                continue
            shared, _ = _vertex(start, c)
            assert np.array_equal(shared, _vertex(_phase1(lp.A, lp.b), c)[0])
            z, warm = _vertex(warm, c)
            for z in (shared, z):
                assert abs(c @ z - fresh.objective) <= 1e-9 * max(1.0, abs(fresh.objective))
                assert np.all(lp.A @ z >= lp.b - 1e-9 * scale_of(lp.A, lp.b, z))
        assert np.array_equal(start.T, tableau)


def test_anchored_vertex_matches_lp_solve_on_highs_instances():
    # the instances of test_lp_matches_highs_on_random_instances, each anchored
    # at a HiGHS Chebyshev centre (radius capped at 1), so no phase 1 runs
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(7)
    solved = 0
    for kind in ("box", "free", "infeasible") * 40:
        lp = random_lp(rng, kind)
        n = lp.c.size
        cheb = linprog(np.eye(1, n + 1, n)[0] * -1.0,
                       A_ub=-np.column_stack([lp.A, -np.linalg.norm(lp.A, axis=1)]), b_ub=-lp.b,
                       bounds=[(None, None)] * n + [(0.0, 1.0)], method="highs")
        if kind == "infeasible":
            assert cheb.status == 2
            continue
        start = _anchored(lp.A, lp.b, cheb.x[:n])
        try:
            fresh = lp_solve(lp)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                _vertex(start, lp.c)
            continue
        anchored, _ = _vertex(start, lp.c)
        assert abs(lp.c @ anchored - fresh.objective) <= 1e-9 * max(1.0, abs(fresh.objective))
        assert np.all(lp.A @ anchored >= lp.b - 1e-9 * scale_of(lp.A, lp.b, anchored))
        assert fresh.cs_residual <= OPT_TOL
        solved += 1
    assert solved >= 60


def test_anchored_margins_roundoff_and_violation():
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 1.0])
    start = _anchored(A, b, np.array([0.5, 0.5 - 1e-15]))     # third margin -1e-15: roundoff
    assert np.all(start.T[:, -1] >= 0.0)
    z, _ = _vertex(start, np.array([1.0, 2.0]))
    np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
    assert np.all(A @ z >= b - 1e-12)
    for x0 in (np.array([0.5, 0.4]), np.array([np.nan, 0.5])):
        with pytest.raises(ValueError, match="anchor"):
            _anchored(A, b, x0)


@st.composite
def bounded_lps(draw):
    """min c.z over {A z >= b} boxed around z0, with A z0 >= b (rows may be tight at z0)."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, 6))
    ints = st.integers(-3, 3)
    A = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=float).reshape(k, n)
    z0 = np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=float)
    slack = np.array(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), dtype=float)
    width = float(draw(st.integers(1, 4)))
    c = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([A[:k] @ z0 - slack, z0 - width, -(z0 + width)])
    return LinearProgram(c=c, A=A, b=b)


@settings(max_examples=200, deadline=None)
@given(bounded_lps())
def test_lp_duals_certify_bounded_lps(lp):
    # LP duality: y >= 0 with A^T y = c is dual feasible, so b.y bounds c.z below
    # on the polyhedron, and b.y = c.z at a feasible z proves z optimal
    sol = lp_solve(lp)
    tol = 1e-9 * scale_of(lp.A, lp.b, lp.c)
    assert np.min(sol.dual) >= -tol
    assert np.max(np.abs(sol.dual @ lp.A - lp.c)) <= tol
    assert abs(lp.b @ sol.dual - lp.c @ sol.z) <= tol
    assert np.all(lp.A @ sol.z >= lp.b - tol)


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


def test_dantzig_switches_to_bland_on_beales_original_cycle(monkeypatch):
    # Beale (1955) at the degenerate vertex x = 0 with the slack basis: min -3/4 x1 + 150 x2
    # - 1/50 x3 + 6 x4 with x3 <= 1. Most-negative pricing with this ratio tie rule cycles
    # here; the switch to Bland's rule at the first degenerate pivot ends at x1 = 1/25, x3 = 1
    monkeypatch.setattr(numerics, "SIMPLEX_MAX_ITER", 50)
    A = np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]])
    T = np.hstack([A, np.eye(3), [[0.0], [0.0], [1.0]]])
    cost = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0, 0.0])
    basis = [4, 5, 6]
    assert numerics._simplex(T, basis, cost, dantzig=True) == "optimal"
    assert abs(cost[basis] @ T[:, -1] + 0.05) <= 1e-12


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


# The projected-gradient solver below is the test-side reference that the
# reallocation properties in test_intervene.py compare against.

def nonneg(z):
    return np.maximum(z, 0.0)


def test_convex_projection_onto_nonneg():
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum((z - np.array([1.0, 1.0])) ** 2)),
                             2 * (z - np.array([1.0, 1.0]))),
        project=nonneg)
    sol = convex_solve(prog, np.array([5.0, -3.0]))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-6)
    assert sol.converged


def test_convex_projection_clips_negative_target():
    target = np.array([-1.0, 2.0])
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum((z - target) ** 2)), 2 * (z - target)),
        project=nonneg)
    sol = convex_solve(prog, np.array([1.0, 1.0]))
    np.testing.assert_allclose(sol.x, [0.0, 2.0], atol=1e-6)


def test_convex_norm_over_halfspace():
    # min ||z|| over z1 + z2 >= 2, z >= 0 lands on (1, 1)
    A, b = np.array([[1.0, 1.0]]), np.array([2.0])
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum(z ** 2)), 2 * z),
        project=lambda z: project_polyhedron(A, b, z)[0])
    sol = convex_solve(prog, np.array([3.0, 0.5]))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-5)


def test_convex_history_is_monotone():
    target = np.array([0.3, -0.7, 1.1])
    prog = ConvexProgram(
        objective=lambda z: (float(np.sum((z - target) ** 2)), 2 * (z - target)),
        project=nonneg)
    sol = convex_solve(prog, np.array([4.0, 4.0, 4.0]))
    hist = np.asarray(sol.history)
    assert np.all(np.diff(hist) <= 1e-12)


# -- projection onto {z >= 0, A z >= b} ----------------------------------------

def scale_of(A, b, y):
    return max(1.0, np.abs(A).max(initial=0.0), np.abs(b).max(initial=0.0), np.abs(y).max(initial=0.0))


def kkt_violation(A, b, y, z, lam):
    """Largest violation of the KKT conditions of min |z - y|^2 / 2 over {z >= 0, A z >= b}.

    Stationarity defines the bound multiplier mu = z - y - A^T lam; the
    rest must hold: lam, mu, z and the slack s = A z - b nonnegative,
    mu.z = 0 and lam.s = 0. For a convex QP these certify the minimiser.
    """
    mu = z - y - A.T @ lam
    s = A @ z - b
    return max(-lam.min(initial=0.0), -mu.min(initial=0.0), -z.min(initial=0.0),
               -s.min(initial=0.0), abs(mu @ z), abs(lam @ s))


def active_set_projection(A, b, y):
    """Brute-force projection of y onto {z >= 0, A z >= b} for n <= 5, m <= 4.

    Enumerates every set of bounds z_j = 0 and rows a_i.z = b_i whose rows,
    restricted to the other coordinates, are independent, so that the
    equality-constrained projection and its multipliers are unique. Some
    optimal multipliers have such an independent support (Caratheodory),
    so the candidate meeting KKT is the projection. Of the candidates that
    meet KKT within tol, the one with the least violation is returned, so a
    slightly infeasible candidate never shadows an exact one. None on an
    empty set.
    """
    m, n = A.shape
    assert n <= 5 and m <= 4
    tol = 1e-9 * scale_of(A, b, y)
    best, least = None, tol
    for bound in itertools.product((False, True), repeat=n):
        free = ~np.array(bound)
        for active in itertools.product((False, True), repeat=m):
            rows = np.array(active, dtype=bool)
            A_RF = A[np.ix_(rows, free)]
            k = int(rows.sum())
            if k and (A_RF.shape[1] < k or np.linalg.matrix_rank(A_RF) < k):
                continue
            lam = np.zeros(m)
            if k:
                lam[rows] = np.linalg.solve(A_RF @ A_RF.T, b[rows] - A_RF @ y[free])
            w = y + A.T @ lam
            z = np.where(free, w, 0.0)
            violation = -min(lam.min(initial=0.0), -w[~free].max(initial=0.0), z.min(),
                             (A @ z - b).min(initial=0.0))
            if violation <= least:
                best, least = z, violation
    return best


def test_halfspace_projection_identity_inside(monkeypatch):
    A, b = np.array([[1.0, -1.0]]), np.array([1.0])
    x = np.array([3.0, 1.0])        # a.x = 2 >= 1, already inside: no Newton step needed
    with monkeypatch.context() as m:
        m.setattr(numerics, "PROJECTION_MAX_ITER", 0)
        z, lam = project_polyhedron(A, b, x)
    np.testing.assert_array_equal(z, x)
    np.testing.assert_array_equal(lam, [0.0])
    y = project_polyhedron(A, b, np.array([0.0, 2.0]))[0]
    assert abs(A[0] @ y - 1.0) <= 1e-12


def test_projection_hits_intersection():
    # the nearest point of {z >= 0, z1 + z2 >= 3} to (-1, 0.5) is (0.75, 2.25)
    A, b = np.array([[1.0, 1.0]]), np.array([3.0])
    z, lam = project_polyhedron(A, b, np.array([-1.0, 0.5]))
    np.testing.assert_allclose(z, [0.75, 2.25], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(lam, [1.75], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(project_polyhedron(A, b, z)[0], z, rtol=0.0, atol=1e-12)


def test_projection_of_an_empty_set_raises():
    # z >= 1 and -z >= 0 cannot both hold
    with pytest.raises(InfeasibleError):
        project_polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), np.array([0.5]))


def test_projection_past_its_cap_raises(monkeypatch):
    A, b = np.array([[1.0, 1.0]]), np.array([3.0])
    monkeypatch.setattr(numerics, "PROJECTION_MAX_ITER", 0)
    with pytest.raises(IterationLimitError, match="after 0 Newton steps"):
        project_polyhedron(A, b, np.array([-1.0, 0.5]))


def test_projection_names_a_non_finite_residual():
    # finite data whose row product overflows: z <= 1e100 as -1e200 z >= -1e300, and the
    # slack at z = y = 1e200 is -1e400 + 1e300 = -inf
    A, b = np.array([[-1e200]]), np.array([-1e300])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteResidualError, match="KKT residual is inf"):
            project_polyhedron(A, b, np.array([1e200]))


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


def test_projection_certifies_kkt_on_polyhedron_cases(monkeypatch):
    for A, b, y in polyhedron_cases():
        z, lam = project_polyhedron(A, b, y)
        assert kkt_violation(A, b, y, z, lam) <= 1e-12 * scale_of(A, b, y)
        # warm-started at its own multipliers, the projection is already certified
        with monkeypatch.context() as m:
            m.setattr(numerics, "PROJECTION_MAX_ITER", 0)
            z_warm, lam_warm = project_polyhedron(A, b, y, lam)
        assert np.array_equal(z_warm, z) and np.array_equal(lam_warm, lam)


def test_projection_does_not_stall_on_the_reallocation_set():
    # Dykstra's sweep stopped here at a feasible point 1.7e-2 away from the
    # projection, at distance 2.494994 from y instead of 2.487278.
    net = fixtures.complete10()
    prob = ReallocationProblem(network=net, v=np.full(10, 0.8))
    objective = reallocation_pieces(prob)[0]
    s0 = build_reallocation_program(prob)[1][0]
    A, b = reallocation_set(net, STRICT_MARGIN)
    y = s0 - objective(s0)[1]
    z, lam = project_polyhedron(A, b, y)
    assert kkt_violation(A, b, y, z, lam) <= 1e-12 * scale_of(A, b, y)
    assert np.linalg.norm(z - y) <= 2.487279


def test_reallocation_projection_uses_the_reallocation_set():
    # the reference descent projects onto the n * m holdings set, warm-started
    rng = np.random.default_rng(12)
    for net in (fixtures.complete10(), fixtures.random_gap_network(rng, 7), fixtures.two_bank()):
        prob = ReallocationProblem(network=net, v=rng.uniform(-1.0, 1.0, net.n))
        _, project, _, A, b = reallocation_pieces(prob)
        A_ref, b_ref = reallocation_set(net, STRICT_MARGIN)
        np.testing.assert_allclose(A, A_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b, b_ref, rtol=1e-12, atol=0.0)
        for z in (net.D.reshape(-1), rng.normal(scale=0.5, size=net.D.size)):
            scale = scale_of(A, b, z)
            x, lam = project_polyhedron(A_ref, b_ref, z)
            assert kkt_violation(A_ref, b_ref, z, x, lam) <= 1e-12 * scale
            assert np.max(np.abs(project(z) - x)) <= 1e-12 * scale
            if A.shape[1] <= 5 and A.shape[0] <= 4:
                assert np.max(np.abs(x - active_set_projection(A_ref, b_ref, z))) <= 1e-9 * scale


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


# The first explicit example once stopped Dykstra's sweep on a stall outside
# the set. In the next two, full Newton steps that had to halve only the last
# residual, not the least one so far, cycled between two multiplier vectors
# (the second under an earlier choice of delta). In the last, the projection
# is exactly z = 0, and the oracle once returned an infeasible candidate with
# z_1 = -1.19e-8, inside its KKT tolerance, before the exact one.
@settings(max_examples=200, deadline=None)
@example((np.array([[0.0, 0.0, -1.0, 1.0]]), np.array([1.0]), np.array([0.0, 0.0, 0.0, -1.0])))
@example((np.array([[0.0, -1.0, 0.0], [0.0, -2.0, 2.0]]), np.array([-2.0, -1.0]),
          np.array([0.0, 2.0, 0.0])))
@example((np.array([[2.0], [-2.0], [-3.0]]), np.array([4.0, -5.0, -7.0]), np.array([2.7])))
@example((np.array([[3.0, -2.0, -2.0, 1.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, -3.0]]),
          np.array([0.0, -4.0, -13.0]), np.array([-1.1920929e-07, 0.0, 0.0, 0.0])))
@given(polyhedra_with_interior())
def test_projection_matches_active_set_oracle(case):
    A, b, y = case
    z, lam = project_polyhedron(A, b, y)
    scale = scale_of(A, b, y)
    assert kkt_violation(A, b, y, z, lam) <= 1e-12 * scale
    assert np.max(np.abs(z - active_set_projection(A, b, y))) <= 1e-9 * scale


def test_projection_without_an_interior_point():
    # Dykstra's sweep was still 0.078 away from this set after 2,000
    # cycles; it has no interior point, and the projection is exact anyway.
    # Its multipliers are large (up to 41.6), and lam.s scales with them.
    A = np.array([[2.0, -2.0, -2.0, 1.0], [0.0, -3.0, 1.0, 0.0], [-3.0, -2.0, 1.0, -2.0]])
    b = np.array([0.0, 1.0, -2.0])
    y = np.array([-5.0, 0.0, -2.62, 5.0])
    z, lam = project_polyhedron(A, b, y)
    scale = scale_of(A, b, y)
    assert kkt_violation(A, b, y, z, lam) <= 1e-12 * scale * max(1.0, lam.max())
    assert np.max(np.abs(z - active_set_projection(A, b, y))) <= 1e-9 * scale
