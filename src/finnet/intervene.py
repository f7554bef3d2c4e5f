"""Cash injections and asset reallocation.

Two decision problems drive a distressed network back into the maximal
healthy-invariant region M+:

* the injection LP: the cheapest external cash vector v (componentwise
  sign-free by default) with x + v inside M+;
* the reallocation program: a nonnegative asset-holdings matrix D whose
  income D p tracks a target v while keeping column sums at most one and
  the healthy equilibrium strictly positive.

The driving loop alternates the two: reallocate toward the outstanding
target, step the network under the new holdings, subtract the realized
state from the target, and stop once the state enters M+.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .invariance import Polyhedron, maximal_invariant_region
from .netmodel import FinancialNetwork, ShiftedModel
from .numerics import (
    ConvexProgram,
    ConvexSolution,
    InfeasibleError,
    IterationLimitError,
    LinearProgram,
    OPT_TOL,
    STRICT_MARGIN,
    _anchored, _phase2,
    convex_solve,
    lp_solve,
    project_polyhedron,
    solve_linear,
)


@dataclass(frozen=True)
class InjectionProblem:
    """Minimal-cash-injection instance: drive x into region."""

    region: Polyhedron
    x: np.ndarray
    nonnegative: bool = False      # forbid withdrawals when True

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


def minimal_injection(prob: InjectionProblem) -> np.ndarray:
    """Solve min 1.v subject to x + v in region (componentwise free v).

    The region rows bound the total downward; the LP is infeasible only if
    the region itself is empty. Withdrawals (negative entries) are allowed
    unless the problem says otherwise.
    """
    n = prob.x.shape[0]
    A = prob.region.A
    b = prob.region.b - A @ prob.x
    if prob.nonnegative:
        A = np.vstack([A, np.eye(n)])
        b = np.concatenate([b, np.zeros(n)])
    sol = lp_solve(LinearProgram(c=np.ones(n), A=A, b=b))
    return sol.z


@dataclass(frozen=True)
class ReallocationProblem:
    """Find holdings D tracking income target v on a fixed network shape."""

    network: FinancialNetwork
    v: np.ndarray
    epsilon: float = STRICT_MARGIN     # margin closing the strict constraint

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))

    @cached_property
    def G(self) -> np.ndarray:
        """(I - C)^-1, which maps holdings income D p to the healthy equilibrium."""
        net = self.network
        return solve_linear(np.eye(net.n) - net.C, np.eye(net.n))


def _reallocation_pieces(prob: ReallocationProblem):
    net = prob.network
    n, m = net.D.shape
    p = net.p

    # {z : A z >= b} over the C-order flattening z of D: column sums at most
    # one, then the healthy equilibrium G D p at least threshold + epsilon.
    A = np.vstack([-np.tile(np.eye(m), n), np.kron(prob.G, p)])
    b = np.concatenate([-np.ones(m), net.threshold + prob.epsilon])

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


def build_reallocation_program(prob: ReallocationProblem,
                               tol: float = 1e-9,
                               max_iter: int = 3000) -> tuple[ConvexProgram, list[np.ndarray]]:
    """Projected-gradient formulation plus candidate feasible starts.

    Two starts are offered: an income-tracking guess whose rows scale p to meet max(v, 0),
    and the network's current holdings. The objective is flat along whole segments when the
    gap and holdings terms trade off one-for-one, so the start decides which optimum the
    descent settles on; tracking first keeps Dp near the target on those ties. Both are
    projected even if only one is descended from, as the projections' warm starts chain.
    """
    objective, project, (n, m), _, _ = _reallocation_pieces(prob)
    p = prob.network.p
    pnorm = float(p @ p)
    target = np.clip(prob.v, 0.0, None)
    guess = np.outer(target, p) / pnorm if pnorm > 1e-12 else np.zeros((n, m))
    starts = [project(guess.reshape(-1)),
              project(prob.network.D.reshape(-1).copy())]
    prog = ConvexProgram(objective=objective, project=project, tol=tol,
                         max_iter=max_iter, step0=1.0)
    return prog, starts


def reallocation_feasible(prob: ReallocationProblem, D: np.ndarray,
                          tol: float = 1e-8) -> tuple[bool, dict[str, float]]:
    """Residuals of the three constraint groups at D."""
    net = prob.network
    residuals = {
        "nonneg": float(-min(np.min(D), 0.0)),
        "colsum": float(max(np.max(D.sum(axis=0)) - 1.0, 0.0)),
        "equilibrium": float(max(np.max(net.threshold + prob.epsilon - prob.G @ (D @ net.p)), 0.0)),
    }
    return all(v <= tol for v in residuals.values()), residuals


def asset_reallocation(prob: ReallocationProblem) -> tuple[np.ndarray, ConvexSolution]:
    """Solve the reallocation program; returns (D, solver diagnostics).

    A start is skipped once the best point's optimality gap shows it cannot win.
    Raises InfeasibleError naming the constraint group that cannot be met,
    and IterationLimitError when the chosen descent does not converge.
    """
    D, sol, _, _ = _reallocate(prob)
    return D, sol


def _optimality_gap(objective, A: np.ndarray, b: np.ndarray, x: np.ndarray) -> float | None:
    """Bound on f(x) - min f over K = {z >= 0, A z >= b}, K inside [0, 1]^k; None off K.

    g = objective(x)[1] = u p^T + 1 w^T, |u|, |w| <= 1, so f(z) >= g.z - u.v (equality at
    x) and, for lam >= 0, g.z >= b.lam + sum(min(g - A^T lam, 0)) on K (Frank and Wolfe,
    1956). lam: duals of min g.z over K from the slack basis at x, clipped at 0.
    """
    g = objective(x)[1]
    try:
        start = _anchored(np.vstack([A, np.eye(x.size)]), np.concatenate([b, np.zeros(x.size)]), x)
    except ValueError:
        return None
    lam = np.maximum(_phase2(start, g).dual[:b.size], 0.0)
    return float(g @ x - (b @ lam + np.minimum(g - lam @ A, 0.0).sum()))


def _reallocate(prob: ReallocationProblem):
    """asset_reallocation plus the residuals and the optimality gap (None if not taken) at D.

    After each start but the last, a gap of at most 0.9 OPT_TOL (the rest covers roundoff
    and projections off K) proves that no later start wins by OPT_TOL, and ends the loop.
    """
    try:
        prog, starts = build_reallocation_program(prob)
    except InfeasibleError:
        raise InfeasibleError("reallocation constraints unreachable: no nonneg holdings "
                              "with colsum at most one meet the equilibrium rows") from None
    _, _, _, A, b = _reallocation_pieces(prob)
    sol = gap = None
    for k, start in enumerate(starts):
        cand = convex_solve(prog, start)
        if sol is None or cand.objective < sol.objective - OPT_TOL:
            sol = cand
            gap = _optimality_gap(prog.objective, A, b, sol.x) if k + 1 < len(starts) else None
        if gap is not None and gap <= 0.9 * OPT_TOL:
            break
    if not sol.converged:
        raise IterationLimitError(f"reallocation not converged in {sol.iterations} iterations")
    D = sol.x.reshape(prob.network.D.shape)
    return D, sol, reallocation_feasible(prob, D)[1], gap


class IterationCapReached(RuntimeError):
    """Driving loop hit its iteration cap; carries the partial plan."""

    def __init__(self, plan: "InterventionPlan"):
        super().__init__(
            f"state still outside the invariant region after {plan.iterations} iterations")
        self.plan = plan


@dataclass
class PlanStep:
    iteration: int
    D: np.ndarray
    x: np.ndarray               # state after stepping under this D
    v: np.ndarray               # outstanding target after the update
    objective: float            # reallocation objective at D
    residuals: dict[str, float]
    iterations: int             # descent iterations of the chosen start
    optimality_gap: float | None    # bound on objective - optimum; None: not bounded


@dataclass
class InterventionPlan:
    initial_x: np.ndarray
    injection: np.ndarray       # LP solution at the initial state
    region: Polyhedron
    steps: list[PlanStep] = field(default_factory=list)
    success: bool = False
    mode: str = "verbatim"

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def final_x(self) -> np.ndarray:
        return self.steps[-1].x if self.steps else self.initial_x


def drive_to_invariant(net: FinancialNetwork, x0, mode: str = "verbatim",
                       epsilon: float = STRICT_MARGIN, max_iterations: int = 1000,
                       nonnegative_injection: bool = False) -> InterventionPlan:
    """Iterate reallocation steps until the state enters M+ of the network.

    The region is computed once from the initial holdings. Each iteration
    re-solves the reallocation program toward the outstanding target v,
    swaps the holdings matrix wholesale, steps the state, and updates
    v <- v - x(t) ('verbatim') or v <- max(v - x(t), 0) ('clamped').
    Hitting the iteration cap raises IterationCapReached carrying the
    partial plan.
    """
    if mode not in ("verbatim", "clamped"):
        raise ValueError(f"unknown v-update mode {mode!r}")
    x = np.asarray(x0, dtype=float)
    model = ShiftedModel.from_network(net)
    region = maximal_invariant_region(model, 0)
    v = minimal_injection(InjectionProblem(region=region, x=x,
                                           nonnegative=nonnegative_injection))
    plan = InterventionPlan(initial_x=x.copy(), injection=v.copy(),
                            region=region, mode=mode)
    current = net
    for it in range(1, max_iterations + 1):
        if region.contains(x):
            plan.success = True
            return plan
        D, sol, residuals, gap = _reallocate(ReallocationProblem(network=current, v=v,
                                                                 epsilon=epsilon))
        current = replace(current, D=D)
        x = ShiftedModel.from_network(current).step(x)
        v = v - x
        if mode == "clamped":
            v = np.maximum(v, 0.0)
        plan.steps.append(PlanStep(it, D, x.copy(), v.copy(), sol.objective, residuals,
                                   iterations=sol.iterations, optimality_gap=gap))
    if region.contains(x):
        plan.success = True
        return plan
    raise IterationCapReached(plan)
