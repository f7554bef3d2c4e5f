"""Dense linear algebra and small-scale optimization kernels.

Everything downstream (equilibrium solves, invariant-region pruning, the
injection LP, the reallocation program) funnels through the entry points
here: solve_linear and invert, lp_solve, convex_solve, and dykstra (the
projection onto {x >= 0, A x >= b} that convex_solve is given by the
reallocation program). Problems are small (tens of variables), so the
solvers favor transparent vertex/projection arithmetic over sparse
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Centralized tolerances. Callers should not invent their own.
SOLVE_TOL = 1e-9        # linear solve residual / comparison default
OPT_TOL = 1e-8          # LP and projection optimality certificates
STRICT_MARGIN = 1e-6    # margin used to close strict inequalities
PIVOT_TOL = 1e-12       # LU pivot underflow threshold
SIMPLEX_MAX_ITER = 20000  # pivots per simplex phase before IterationLimitError


class SingularMatrixError(ValueError):
    """Raised when an LU pivot underflows PIVOT_TOL."""


class InfeasibleError(ValueError):
    """Raised when an optimization problem has an empty feasible set."""


class UnboundedError(ValueError):
    """Raised when an LP objective is unbounded below on the feasible set."""


class IterationLimitError(RuntimeError):
    """Raised when the simplex method hits SIMPLEX_MAX_ITER pivots."""


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def lu_factor(A) -> tuple[np.ndarray, np.ndarray]:
    """LU factorization with partial pivoting, Doolittle style.

    Returns (LU, perm) where LU packs unit-lower and upper factors and
    perm is the row permutation. Raises SingularMatrixError if any pivot
    magnitude drops below PIVOT_TOL.
    """
    LU = _as_matrix(A).copy()
    n = LU.shape[0]
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(LU[k:, k])))
        if abs(LU[p, k]) < PIVOT_TOL:
            raise SingularMatrixError(f"pivot {abs(LU[p, k]):.3e} below {PIVOT_TOL} at column {k}")
        if p != k:
            LU[[k, p]] = LU[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        LU[k + 1:, k] /= LU[k, k]
        # rank-1 update of the trailing block
        LU[k + 1:, k + 1:] -= np.outer(LU[k + 1:, k], LU[k, k + 1:])
    return LU, perm


def lu_solve(LU: np.ndarray, perm: np.ndarray, b) -> np.ndarray:
    """Solve using a factorization from lu_factor. Supports matrix b."""
    b = np.asarray(b, dtype=float)
    single = b.ndim == 1
    B = b.reshape(-1, 1) if single else b.copy()
    n = LU.shape[0]
    if B.shape[0] != n:
        raise ValueError("right-hand side has incompatible shape")
    X = B[perm].astype(float)
    for k in range(n):        # forward, unit lower triangle
        X[k + 1:] -= np.outer(LU[k + 1:, k], X[k])
    for k in range(n - 1, -1, -1):   # backward, upper triangle
        X[k] /= LU[k, k]
        X[:k] -= np.outer(LU[:k, k], X[k])
    return X[:, 0] if single else X


def solve_linear(A, b) -> np.ndarray:
    """Solve A x = b by LU with partial pivoting.

    Residual satisfies ||Ax - b||_inf <= SOLVE_TOL * scale for the
    well-conditioned systems this toolkit produces.
    """
    LU, perm = lu_factor(A)
    return lu_solve(LU, perm, b)


def invert(A) -> np.ndarray:
    """Dense inverse via LU (used for the small (I - C) systems)."""
    A = _as_matrix(A)
    LU, perm = lu_factor(A)
    return lu_solve(LU, perm, np.eye(A.shape[0]))


def matrix_power(M, t: int) -> np.ndarray:
    """M**t by repeated multiplication. t must be a nonnegative integer."""
    M = _as_matrix(M)
    if t < 0 or int(t) != t:
        raise ValueError("exponent must be a nonnegative integer")
    out = np.eye(M.shape[0])
    for _ in range(int(t)):
        out = out @ M
    return out


# ---------------------------------------------------------------------------
# Linear programming: min c.z  s.t.  A z >= b, z free.
# Two-phase primal simplex on the standard form [A, -A, -I], Bland's rule
# for anti-cycling. Sizes here are tiny; clarity wins over speed.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearProgram:
    """min c.z subject to A z >= b with free variables z."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")


@dataclass
class LPSolution:
    z: np.ndarray
    objective: float
    dual: np.ndarray           # multipliers for the >= rows, nonnegative
    cs_residual: float         # complementary slackness / duality residual

    def __iter__(self):        # convenient unpacking
        yield from (self.z, self.objective)


_SIMPLEX_EPS = 1e-9


def _simplex(T: np.ndarray, basis: list[int], cost: np.ndarray):
    """Bland-rule primal simplex on tableau T = [B^-1 A | B^-1 b].

    cost is the full cost vector over tableau columns. Mutates T and basis.
    Returns 'optimal' or 'unbounded'.
    """
    m = T.shape[0]
    ncols = T.shape[1] - 1
    for _ in range(SIMPLEX_MAX_ITER):
        y = cost[basis] @ T[:, :ncols]
        reduced = cost[:ncols] - y
        enter = -1
        for j in range(ncols):      # Bland: smallest improving index
            if reduced[j] < -_SIMPLEX_EPS:
                enter = j
                break
        if enter < 0:
            return "optimal"
        col = T[:, enter]
        best = None
        leave = -1
        for i in range(m):
            if col[i] > _SIMPLEX_EPS:
                ratio = T[i, -1] / col[i]
                # ties broken by smallest basic variable index (Bland)
                if best is None or ratio < best - _SIMPLEX_EPS or (
                        abs(ratio - best) <= _SIMPLEX_EPS and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter
    raise IterationLimitError(f"simplex iteration cap of {SIMPLEX_MAX_ITER} pivots reached")


def lp_solve(lp: LinearProgram) -> LPSolution:
    """Solve min c.z s.t. A z >= b (z free) to a vertex optimum.

    Raises InfeasibleError / UnboundedError for the two failure modes.
    The returned solution carries constraint duals and the certificate
    residual, which stays below OPT_TOL on well-scaled inputs.
    """
    m, n = lp.A.shape
    # standard form over w = [u, v, s] >= 0 with z = u - v, A z - s = b
    A_std = np.hstack([lp.A, -lp.A, -np.eye(m)])
    b_std = lp.b.copy()
    flip = b_std < 0
    A_std[flip] *= -1.0
    b_std[flip] *= -1.0
    nw = 2 * n + m

    # phase 1: artificial basis
    T = np.hstack([A_std, np.eye(m), b_std.reshape(-1, 1)])
    basis = list(range(nw, nw + m))
    cost1 = np.zeros(nw + m + 1)
    cost1[nw:nw + m] = 1.0
    status = _simplex(T, basis, cost1)
    phase1 = cost1[basis] @ T[:, -1]
    if status != "optimal" or phase1 > 1e-7:
        raise InfeasibleError(f"phase-1 infeasibility measure {phase1:.3e}")

    # pivot artificials out of the basis where possible, drop dead rows
    keep = []
    for i in range(m):
        if basis[i] >= nw:
            piv = next((j for j in range(nw) if abs(T[i, j]) > _SIMPLEX_EPS), None)
            if piv is None:
                continue  # redundant zero row
            T[i] /= T[i, piv]
            for k in range(m):
                if k != i and T[k, piv] != 0.0:
                    T[k] -= T[k, piv] * T[i]
            basis[i] = piv
        keep.append(i)
    T = T[keep][:, list(range(nw)) + [nw + m]]
    basis = [basis[i] for i in keep]

    cost2 = np.concatenate([lp.c, -lp.c, np.zeros(m), [0.0]])
    status = _simplex(T, basis, cost2)
    if status == "unbounded":
        raise UnboundedError("objective unbounded below on the feasible set")

    w = np.zeros(nw)
    w[basis] = T[:, -1]
    z = w[:n] - w[n:2 * n]
    objective = float(lp.c @ z)

    # duals from the final basis: solve B^T y = c_B in the flipped frame
    B = A_std[np.ix_(keep, basis)]
    try:
        y_std = solve_linear(B.T, cost2[basis])
    except SingularMatrixError:
        y_std = np.linalg.lstsq(B.T, cost2[basis], rcond=None)[0]
    y = np.zeros(m)
    y[keep] = y_std
    y[flip] *= -1.0
    slack = lp.A @ z - lp.b
    cs = float(max(
        abs(objective - lp.b @ y),
        np.max(np.abs(y * slack), initial=0.0),
        -np.min(y, initial=0.0),
        -np.min(slack, initial=0.0),
    ))
    return LPSolution(z=z, objective=objective, dual=y, cs_residual=cs)


# ---------------------------------------------------------------------------
# Convex programming: projected gradient with a user-supplied projector.
# ---------------------------------------------------------------------------

@dataclass
class ConvexProgram:
    """Smooth-enough convex objective over a closed convex set.

    objective(x) returns (value, gradient). project(x) maps any point to
    the feasible set; it must be idempotent up to OPT_TOL.
    """

    objective: Callable[[np.ndarray], tuple[float, np.ndarray]]
    project: Callable[[np.ndarray], np.ndarray]
    tol: float = 1e-9
    max_iter: int = 5000
    step0: float = 1.0


@dataclass
class ConvexSolution:
    x: np.ndarray
    objective: float
    converged: bool            # False means NoConvergence: best iterate returned
    iterations: int
    history: list[float] = field(default_factory=list)


def convex_solve(prog: ConvexProgram, start) -> ConvexSolution:
    """Projected gradient with diminishing steps and backtracking.

    The accepted iterate never increases the objective, so history is
    non-increasing. Terminates when the iterate moves less than prog.tol,
    else returns the best point with converged=False.
    """
    x = prog.project(np.asarray(start, dtype=float))
    f, g = prog.objective(x)
    history = [float(f)]
    converged = False
    it = 0
    for it in range(1, prog.max_iter + 1):
        step = prog.step0 / np.sqrt(it)
        cand = prog.project(x - step * g)
        fc, gc = prog.objective(cand)
        shrink = 0
        while fc > f and shrink < 40:
            step *= 0.5
            cand = prog.project(x - step * g)
            fc, gc = prog.objective(cand)
            shrink += 1
        if fc > f:             # no descent direction survived backtracking
            converged = True
            break
        move = float(np.max(np.abs(cand - x))) if cand.size else 0.0
        x, f, g = cand, fc, gc
        history.append(float(f))
        if move < prog.tol:
            converged = True
            break
    return ConvexSolution(x=x, objective=float(f), converged=converged,
                          iterations=it, history=history)


# -- projection helpers ------------------------------------------------------

def project_nonneg(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def dykstra(A, b, x0, tol: float = 1e-10, max_cycles: int = 2000) -> np.ndarray:
    """Dykstra alternating projection onto {x >= 0} intersected with {A x >= b}.

    Each sweep projects onto x >= 0, then onto each row a_i.x >= b_i in
    order; it converges to the nearest point of the set (Boyle and
    Dykstra, 1986). A row's correction is a multiple lam_i of a_i, kept as
    a scalar: within a sweep a_i.x is (A x)_i at the sweep's start plus
    d_j K[i, j] (K = A A^T) for each row j already moved by d_j, and x is
    updated once per sweep. The row loop runs on Python floats, where
    indexing numpy scalars would cost as much as the arithmetic.

    Stops once a sweep moves x by less than tol at a point within OPT_TOL
    (times max|b|) of every constraint, because x can stall outside the
    set while the corrections still move (Birgin and Raydan, 2005). On an
    empty intersection it runs all max_cycles.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    K = (A @ A.T).tolist()
    rows = [(i, b_i, K[i], K[i][i]) for i, b_i in enumerate(b.tolist())]
    feas_tol = OPT_TOL * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    lam = [0.0] * len(rows)
    corr = np.zeros_like(x)             # the nonnegative orthant's correction
    for _ in range(max_cycles):
        y = x + corr
        x_new = np.maximum(y, 0.0)
        corr = y - x_new
        s = (A @ x_new).tolist()
        moves: list[tuple[int, float]] = []
        for (i, b_i, K_i, norm2), ax in zip(rows, s):
            for j, d in moves:
                ax += d * K_i[j]
            old = lam[i]
            gap = b_i - ax + old * norm2
            new = gap / norm2 if gap > 0.0 else 0.0
            if new != old:
                moves.append((i, new - old))
                lam[i] = new
        if moves:
            idx, d = zip(*moves)
            x_new += np.asarray(d) @ A[list(idx)]
        if abs(x_new - x).max() < tol and min(
                x_new.min(), (A @ x_new - b).min(initial=0.0)) >= -feas_tol:
            return x_new
        x = x_new
    return x
