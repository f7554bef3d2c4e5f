"""Dense linear algebra and small-scale optimization kernels.

Everything downstream (equilibrium solves, invariant-region pruning, the
injection LP, the reallocation program) funnels through the entry points
here: solve_linear (LAPACK, with a condition check), lp_solve, and
project_polyhedron (the exact projection onto {z >= 0, A z >= b}, with its
KKT multipliers; the reallocation's root search calls it once per step).
Problems are small (tens of variables), so the solvers are dense: the
simplex pivots with whole-array updates, by Bland's rule (Dantzig's up to the first
degenerate pivot in _vertex, whose callers read only the optimal value), and Python
loops are left only where a rule is sequential. lp_solve pivots on the dual's
n-row tableau: a _DualStart holds its phase 1, which depends on A and c only, and
_dual_phase2 runs phase 2 for b, warm from the last optimum, kept only at a strictly
complementary (unique) basis; z is the basis's point A_B^-1 b_B, from the inverse that the
start keeps for its last basis (_basic_point), so a repeated basis is not factorised again.
A region's injection LPs share a start; free ones skip phase 2 after the first, and so take
one product (see minimal_injection). LPs that share one polyhedron across many objectives
(the invariance checks) keep the primal form: _vertex starts from _phase1's basis, from
_anchored's slack basis at a point known to lie on the polyhedron (no phase 1), or from the
optimal basis that an earlier _vertex call over the same polyhedron hands back. One phase-1
routine, _feasible, serves both forms; it pivots on rows divided by their largest entry and
judges emptiness relative to b. Every error by which a solver, here or in an analysis, gives
up on valid input derives from SolverError; a wrong shape is a plain ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Centralized tolerances. Callers should not invent their own.
OPT_TOL = 1e-8          # LP optimality certificates and objective ties
STRICT_MARGIN = 1e-6    # margin used to close strict inequalities
PIVOT_TOL = 1e-12       # solve_linear, _basic_point refuse condition numbers above 1/PIVOT_TOL
SIMPLEX_MAX_ITER = 20000  # pivots per simplex phase before IterationLimitError
PROJECTION_TOL = 1e-13  # KKT residual at which project_polyhedron stops, times scale
PROJECTION_MAX_ITER = 100  # Newton steps before project_polyhedron gives up


class SolverError(Exception):
    """Base of every error by which an analysis gives up on valid input (the CLI exits 3)."""


class SingularMatrixError(SolverError, ValueError):
    """Raised when a matrix is singular to working precision (see PIVOT_TOL)."""


class InfeasibleError(SolverError, ValueError):
    """Raised when an optimization problem has an empty feasible set."""


class UnboundedError(SolverError, ValueError):
    """Raised when an LP objective is unbounded below on the feasible set."""


class NonFiniteDataError(SolverError, ValueError):
    """Raised when an LP's data, or a product of a solve on finite data, is not finite."""


class IterationLimitError(SolverError, RuntimeError):
    """Raised when an iterative solver reaches its iteration cap uncertified."""


class NonFiniteResidualError(SolverError, RuntimeError):
    """Raised when a solver's residual overflows to inf or nan on finite data."""


def _frozen(a, dtype=float) -> np.ndarray:
    """a as a read-only array of dtype: a itself if it already is one that owns its data, else a
    copy, so the caller's array is never made read-only and a cache built from it stays sound."""
    if type(a) is np.ndarray and a.dtype == dtype and a.base is None and not a.flags.writeable:
        return a
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


def _vector(x, n: int, name: str) -> np.ndarray:
    """x as floats of shape (n,); a ValueError names it for another shape or a non-finite entry."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    return x


def solve_linear(A, b) -> np.ndarray:
    """Solve A x = b by LAPACK (b a vector or a matrix of right-hand sides).

    Raises SingularMatrixError when A is singular or its 1-norm condition
    number exceeds 1/PIVOT_TOL; A^-1, which measures it, comes from the
    same factorization as x.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError("right-hand side has incompatible shape")
    k = 1 if b.ndim == 1 else b.shape[1]
    try:
        X = np.linalg.solve(A, np.column_stack([b, np.eye(n)]))
    except np.linalg.LinAlgError as e:
        raise SingularMatrixError(f"matrix is singular: {e}")
    cond = np.abs(A).sum(axis=0).max(initial=0.0) * np.abs(X[:, k:]).sum(axis=0).max(initial=0.0)
    if not cond <= 1.0 / PIVOT_TOL:
        raise SingularMatrixError(f"1-norm condition number {cond:.3e} above {1.0 / PIVOT_TOL:.0e}")
    return X[:, 0] if b.ndim == 1 else X[:, :k]


# ---------------------------------------------------------------------------
# Linear programming: min c.z  s.t.  A z >= b, z free.
# lp_solve: two-phase simplex on the dual max b.y s.t. A^T y = c, y >= 0.
# _phase1/_vertex: primal simplex on the standard form [A, -A, -I], for
# many objectives over one polyhedron. Bland's rule for anti-cycling.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """min c.z subject to A z >= b with free variables z."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("c", "A", "b"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")
        if not all(np.isfinite(v).all() for v in (self.c, self.A, self.b)):
            raise NonFiniteDataError("LP data has non-finite entries")


@dataclass
class LPSolution:
    z: np.ndarray
    objective: float
    dual: np.ndarray           # multipliers for the >= rows, nonnegative
    cs_residual: float         # complementary slackness / duality residual


_SIMPLEX_EPS = 1e-9


def _pivot(T: np.ndarray, leave: int, enter: int) -> None:
    """Make column enter basic in row leave: one rank-1 update of T."""
    T[leave] /= T[leave, enter]
    f = T[:, enter].copy()
    f[leave] = 0.0
    T -= f[:, None] * T[leave]


def _simplex(T: np.ndarray, basis: list[int], cost: np.ndarray, *, dantzig: bool = False):
    """Primal simplex on tableau T = [B^-1 A | B^-1 b], by Bland's rule (Bland, 1977).

    cost is the full cost vector over tableau columns. Mutates T and basis.
    Returns 'optimal' or 'unbounded'. With dantzig, the most negative reduced cost
    enters until the first degenerate pivot (a step of at most _SIMPLEX_EPS), and Bland's
    rule from there on. It terminates: each Dantzig pivot steps by more than
    _SIMPLEX_EPS, so the objective strictly falls and no basis repeats, and Bland's
    rule terminates from any basis. The ratio test is the same under both rules.
    """
    ncols = T.shape[1] - 1
    cost_basis = cost[basis]
    for _ in range(SIMPLEX_MAX_ITER):
        reduced = cost[:ncols] - cost_basis @ T[:, :ncols]
        improving = (reduced < -_SIMPLEX_EPS).nonzero()[0]
        if improving.size == 0:
            return "optimal"
        # Bland: smallest improving index; Dantzig: most negative reduced cost
        enter = int(improving[reduced[improving].argmin()] if dantzig else improving[0])
        col = T[:, enter]
        rows = (col > _SIMPLEX_EPS).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        # ratio test, ties to the smallest basic index (Bland); that tie
        # rule is not transitive, so the candidate rows are scanned in order
        best = leave = None
        for i, ratio in zip(rows.tolist(), (T[rows, -1] / col[rows]).tolist()):
            if best is None or ratio < best - _SIMPLEX_EPS or (
                    abs(ratio - best) <= _SIMPLEX_EPS and basis[i] < basis[leave]):
                best, leave = ratio, i
        dantzig = dantzig and best > _SIMPLEX_EPS
        _pivot(T, leave, enter)
        basis[leave] = enter
        cost_basis[leave] = cost[enter]
    raise IterationLimitError(f"simplex iteration cap of {SIMPLEX_MAX_ITER} pivots reached")


@dataclass(frozen=True)
class _FeasibleBasis:
    """A feasible basic tableau T = [B^-1 A_std | B^-1 b] of {A z >= b}'s standard form, for any c.

    Over w = [u, v, s] >= 0 with z = x0 + u - v (x0 None: the origin, as in _phase1)
    and A z - s = b, with some rows negated and dependent rows dropped.
    """

    T: np.ndarray
    basis: list[int]
    x0: np.ndarray | None = None


def _feasible(A_std: np.ndarray, b_std: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Phase 1 for {w >= 0, A_std w = b_std}: a feasible tableau [B^-1 A_std | B^-1 b] and basis B.

    Each row of [A_std | b_std] is divided by its largest absolute entry, as the simplex's
    tolerances are absolute, and negated where b_std < 0; each row gets an artificial. The
    set counts as empty when the least sum of artificials is above 1e-7 times the largest
    scaled b (InfeasibleError). Artificials left basic at zero are pivoted out where
    possible, and rows where they cannot be (dependent rows) are dropped.
    """
    m, nw = A_std.shape
    Ab = np.column_stack([A_std, b_std])
    row = np.abs(Ab).max(axis=1, initial=0.0)
    Ab /= (np.where(b_std < 0, -1.0, 1.0) * np.where(row > 0, row, 1.0))[:, None]
    T = np.hstack([Ab[:, :nw], np.eye(m), Ab[:, nw:]])
    basis = list(range(nw, nw + m))
    cost1 = np.zeros(nw + m + 1)
    cost1[nw:nw + m] = 1.0
    status = _simplex(T, basis, cost1)
    phase1 = cost1[basis] @ T[:, -1]
    if status != "optimal" or phase1 > 1e-7 * Ab[:, -1].max(initial=0.0):
        raise InfeasibleError(f"phase-1 infeasibility measure {phase1:.3e}")
    keep = []
    for i in range(m):
        if basis[i] >= nw:
            cols = (np.abs(T[i, :nw]) > _SIMPLEX_EPS).nonzero()[0]
            if cols.size == 0:
                continue  # redundant zero row
            _pivot(T, i, int(cols[0]))
            basis[i] = int(cols[0])
        keep.append(i)
    return T[keep][:, list(range(nw)) + [nw + m]], [basis[i] for i in keep]


def _phase1(A: np.ndarray, b: np.ndarray) -> _FeasibleBasis:
    """Find a feasible basis of {A z >= b}; raises InfeasibleError.

    Depends on (A, b) only, so callers testing many objectives over one
    polyhedron run it once and call _vertex per objective. Each row of [A | b]
    is divided by its largest entry before the slack block -I is added, which
    would otherwise keep _feasible from scaling a small row up.
    """
    row = np.abs(np.column_stack([A, b])).max(axis=1, initial=0.0)
    row[row == 0.0] = 1.0
    A, b = A / row[:, None], b / row
    return _FeasibleBasis(*_feasible(np.hstack([A, -A, -np.eye(A.shape[0])]), b))


def _anchored(A: np.ndarray, b: np.ndarray, x0: np.ndarray) -> _FeasibleBasis:
    """Slack basis of {A z >= b} at x0, no phase 1; margins below roundoff raise ValueError."""
    m, n = A.shape
    margin = A @ x0 - b
    scale = max(1.0, *(float(v.max(initial=0.0)) for v in (np.abs(A) @ np.abs(x0), np.abs(b))))
    if not margin.min(initial=0.0) >= -PIVOT_TOL * scale:
        raise ValueError(f"anchor point violates a row by {-margin.min():.3e}")
    T = np.hstack([-A, A, np.eye(m), np.maximum(margin, 0.0)[:, None]])
    return _FeasibleBasis(T=T, basis=list(range(2 * n, 2 * n + m)), x0=x0)


def _vertex(start: _FeasibleBasis, c: np.ndarray) -> tuple[np.ndarray, _FeasibleBasis]:
    """An optimal vertex z of min c.z from start (not modified), and its optimal basis, a feasible
    start for any other objective over the same polyhedron; raises UnboundedError. The contract
    is the value c.z: which optimal vertex comes back depends on the pricing (see _simplex)."""
    n = c.size
    T, basis = start.T.copy(), list(start.basis)
    cost = np.zeros(T.shape[1])
    cost[:n], cost[n:2 * n] = c, -c
    if _simplex(T, basis, cost, dantzig=True) == "unbounded":
        raise UnboundedError("objective unbounded below on the feasible set")
    w = np.zeros(T.shape[1] - 1)
    w[basis] = T[:, -1]
    z = w[:n] - w[n:2 * n]
    return (z if start.x0 is None else z + start.x0), _FeasibleBasis(T, basis, start.x0)


class _DualStart:
    """lp_solve's phase 1, for every b, over finite A and c that no one writes: a feasible
    tableau T and basis of the dual {A^T y = c / unit, y >= 0} (T None: it is empty), last,
    the last optimal (T, basis), and inverse, the last basis's (rows, A_rows^-1) from
    _basic_point (None in place of the inverse: refused)."""

    def __init__(self, A: np.ndarray, c: np.ndarray):
        unit = np.abs(c).max(initial=0.0) or 1.0    # tolerances are absolute: solve for c / unit
        self.A, self.c, self.unit, self.T, self.basis = A, c, unit, None, []
        self.last = self.inverse = None
        try:
            self.T, self.basis = _feasible(A.T, c / unit)
        except InfeasibleError:
            pass


def _basic_point(start: _DualStart, b: np.ndarray, basis: list[int]) -> np.ndarray:
    """z on a dual basis's rows, A_B z = b_B, as A_B^-1 b_B with the rows in increasing order
    (a product with the inverse, unlike a pivoted solve, depends on their order). The inverse
    is kept in start.inverse, so a repeated basis costs one product. A_B short, singular or
    of 1-norm condition number above 1/PIVOT_TOL (A rank deficient) gives lstsq's point."""
    rows = sorted(basis)
    if start.inverse is None or start.inverse[0] != rows:
        A_B, inverse = start.A[rows], None
        try:
            inverse = np.linalg.inv(A_B)
        except np.linalg.LinAlgError:
            pass
        else:
            cond = (np.abs(A_B).sum(axis=0).max(initial=0.0) *
                    np.abs(inverse).sum(axis=0).max(initial=0.0))
            if not cond <= 1.0 / PIVOT_TOL:
                inverse = None
        start.inverse = rows, inverse
    if start.inverse[1] is None:
        return np.linalg.lstsq(start.A[rows], b[rows], rcond=None)[0]
    return start.inverse[1] @ b[rows]


def _dual_phase2(start: _DualStart, b: np.ndarray) -> LPSolution:
    """Optimise start's dual max b.y for b; the final (T, basis) is kept as start.last.

    It first runs from start.last, if any (dual feasible, as only b changed), and keeps that
    basis only if it is strictly complementary: n rows, every basic y and nonbasic reduced
    cost (primal slack) above _SIMPLEX_EPS. Then z is the unique optimum and the basis the
    unique optimal one; otherwise, or where the warm run overflows (a FloatingPointError under
    np.errstate(over="raise")), phase 2 reruns from start's phase-1 tableau.
    """
    A, c, unit = start.A, start.c, start.unit
    if start.T is None:     # an infeasible dual is told apart by a phase 1 of the primal
        _phase1(A, b)
        raise UnboundedError("objective unbounded below on the feasible set")
    for T0, basis in ([start.last] if start.last else []) + [(start.T, start.basis)]:
        T, basis, cold = T0.copy(), list(basis), T0 is start.T
        try:
            if _simplex(T, basis, -b) == "unbounded" and cold:  # a warm run then fails the gate
                raise InfeasibleError("dual objective unbounded: A z >= b has no solution")
            if cold or (len(basis) == c.size and T[:, -1].min(initial=np.inf) > _SIMPLEX_EPS and
                        np.delete(b[basis] @ T[:, :-1] - b, basis).min(initial=np.inf) >
                        _SIMPLEX_EPS):
                break
        except FloatingPointError:
            if cold:
                raise
    start.last = T, basis
    y = np.zeros(b.size)
    y[basis] = unit * T[:, -1]
    z = _basic_point(start, b, basis)
    slack = A @ z - b
    objective = float(c @ z)
    cs = float(max(abs(objective - b @ y), np.max(np.abs(y * slack), initial=0.0),
                   np.max(np.abs(y @ A - c), initial=0.0), -np.min(y, initial=0.0),
                   -np.min(slack, initial=0.0)))
    return LPSolution(z=z, objective=objective, dual=y, cs_residual=cs)


def lp_solve(lp: LinearProgram) -> LPSolution:
    """Solve min c.z s.t. A z >= b (z free) to a vertex optimum, through its dual.

    The dual max b.y s.t. A^T y = c, y >= 0 has n equality rows, so its tableau
    is n x (m + n). The basic y are the duals, and z solves the active rows
    A_B z = b_B. Raises InfeasibleError / UnboundedError for the two failure
    modes. The returned solution carries the certificate residual, which stays
    below OPT_TOL on well-scaled inputs.
    """
    return _dual_phase2(_DualStart(lp.A, lp.c), lp.b)


# ---------------------------------------------------------------------------
# Euclidean projection onto {z >= 0, A z >= b}.
# ---------------------------------------------------------------------------

def projection_tol(A, b, y) -> float:
    """KKT residual at which project_polyhedron stops: PROJECTION_TOL * max(1, |A|, |b|, |y|)."""
    return PROJECTION_TOL * max(1.0, *(float(np.abs(v).max(initial=0.0)) for v in (A, b, y)))


def project_polyhedron(A, b, y, lam=None) -> tuple:
    """Nearest point z to y in {z >= 0, A z >= b} and its row multipliers lam.

    z(lam) = max(y + A^T lam, 0) meets stationarity and bound complementarity, so
    only the dual min f = |z(lam)|^2 / 2 - b.lam over lam >= 0 is solved (warm-started
    at lam); its gradient is s = A z - b, and |min(lam, s)|_inf is the whole KKT
    residual. Projected semismooth Newton (Bertsekas, 1982) on rows J with lam > 0 or
    s <= 0 solves (A_JF A_JF^T + delta R_J) d = -s_J, F where y + A^T lam > 0, R the
    squared row norms and delta = max(min(1, max_J s_i^2 / R_i), PIVOT_TOL), as A may
    be rank deficient. A full step is kept if it halves the least residual so far, else
    it is halved until Armijo's rule on f holds, or doubled while f falls. Stops at
    residual projection_tol(A, b, y), or raises InfeasibleError (empty set),
    IterationLimitError after PROJECTION_MAX_ITER Newton steps, or NonFiniteResidualError
    when the residual is not finite (finite data whose products overflow).
    """
    A, b, y = (np.asarray(v, dtype=float) for v in (A, b, y))
    lam = np.zeros(b.shape[0]) if lam is None else np.maximum(lam, 0.0)
    r2 = np.einsum("ij,ij->i", A, A)   # R: delta scales with the rows, as A_JF A_JF^T does
    r2[r2 == 0.0] = 1.0
    tol = projection_tol(A, b, y)

    def dual(lam):
        w = y + lam @ A
        z = np.maximum(w, 0.0)
        s = A @ z - b
        return lam, w, z, s, 0.5 * z @ z - b @ lam, float(abs(np.minimum(lam, s)).max(initial=0))

    lam, w, z, s, f, res = dual(lam)
    best = res      # full steps may raise f; halving the least residual keeps them from cycling
    for _ in range(PROJECTION_MAX_ITER):
        if res <= tol:
            break
        if not np.isfinite(res):
            raise NonFiniteResidualError(f"projection KKT residual is {res}: "
                                         "the data overflow floats")
        J = (lam > 0.0) | (s <= 0.0)
        A_J = A[J]
        H = (A_J * (w > 0.0)) @ A_J.T           # A_JF A_JF^T, F by masking columns
        delta = max(min(1.0, float(np.maximum.reduce(s[J] ** 2 / r2[J]))), PIVOT_TOL)
        H.flat[::len(H) + 1] += delta * r2[J]
        d = np.zeros(lam.size)
        d[J] = -np.linalg.solve(H, s[J])
        new = dual(np.maximum(lam + d, 0.0))
        if new[5] > 0.5 * best:     # f can be linear along d, so a step passing Armijo grows
            up = new[4] <= f + 1e-4 * (s @ (new[0] - lam))
            for k in range(1, 50):
                trial = dual(np.maximum(lam + (2.0 ** k if up else 0.5 ** k) * d, 0.0))
                if up and trial[4] >= new[4]:
                    break
                new = trial
                if not up and new[4] <= f + 1e-4 * (s @ (new[0] - lam)):
                    break
        lam, w, z, s, f, res = new
        best = min(best, res)
    if res > tol:
        _phase1(np.vstack([A, np.eye(y.size)]), np.concatenate([b, np.zeros(y.size)]))
        raise IterationLimitError(
            f"projection residual {res:.3e} after {PROJECTION_MAX_ITER} Newton steps")
    return z, lam
