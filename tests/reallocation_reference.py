"""The projected-gradient reallocation over all n * m holdings, kept as a test reference.

`reference_reallocate` descends from two starts (an income-tracking guess and the
network's current holdings) and keeps the better point, as `asset_reallocation`
once did. Each step projects onto {z >= 0, column sums <= 1, G D p >= threshold +
epsilon} with `project_polyhedron`, warm-started from the last multipliers. The
library now solves the same program exactly in y = D p and s = 1^T D; tests
check that its objective is never above this reference's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from finnet.numerics import OPT_TOL, STRICT_MARGIN, project_polyhedron


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


def reallocation_pieces(prob):
    """Objective, warm-started projection, shape and the polyhedron {z >= 0, A z >= b}."""
    net = prob.network
    n, m = net.D.shape
    p = net.p

    # {z : A z >= b} over the C-order flattening z of D: column sums at most
    # one, then the healthy equilibrium G D p at least threshold + epsilon.
    A = np.vstack([-np.tile(np.eye(m), n), np.kron(prob.G, p)])
    b = np.concatenate([-np.ones(m), net.threshold + STRICT_MARGIN])

    last = [None]   # multipliers of the last projection, the next one's warm start
    def project(z: np.ndarray) -> np.ndarray:
        z, last[0] = project_polyhedron(A, b, z, last[0])
        return z

    def objective(z: np.ndarray) -> tuple[float, np.ndarray]:
        D = z.reshape(n, m)
        income_gap = D @ p - prob.v
        colsum = D.sum(axis=0)
        g1, g2 = np.linalg.norm(income_gap), np.linalg.norm(colsum)
        grad = np.outer(income_gap / g1, p) if g1 > 1e-12 else np.zeros((n, m))
        if g2 > 1e-12:
            grad += colsum / g2             # the same colsum gradient in every row
        return float(g1 + g2), grad.reshape(-1)

    return objective, project, (n, m), A, b


def build_reallocation_program(prob, tol: float = 1e-9, max_iter: int = 3000):
    """Projected-gradient formulation plus the two projected starts.

    The objective is flat along whole segments when the gap and holdings terms trade off
    one-for-one, so the start decides which optimum the descent settles on; tracking first
    keeps D p near the target on those ties.
    """
    objective, project, (n, m), _, _ = reallocation_pieces(prob)
    p = prob.network.p
    pnorm = float(p @ p)
    target = np.clip(prob.v, 0.0, None)
    guess = np.outer(target, p) / pnorm if pnorm > 1e-12 else np.zeros((n, m))
    starts = [project(guess.reshape(-1)),
              project(prob.network.D.reshape(-1).copy())]
    prog = ConvexProgram(objective=objective, project=project, tol=tol,
                         max_iter=max_iter, step0=1.0)
    return prog, starts


def reference_reallocate(prob) -> ConvexSolution:
    """Descend from every start and keep the best (ties within OPT_TOL go to the first)."""
    prog, starts = build_reallocation_program(prob)
    sol = None
    for start in starts:
        cand = convex_solve(prog, start)
        if sol is None or cand.objective < sol.objective - OPT_TOL:
            sol = cand
    return sol
