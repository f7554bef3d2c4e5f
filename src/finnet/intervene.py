"""Cash injections and asset reallocation.

Two decision problems drive a distressed network back into the maximal
healthy-invariant region M+:

* the injection LP: the cheapest external cash vector v (componentwise
  sign-free by default) with x + v inside M+;
* the reallocation program: a nonnegative asset-holdings matrix D whose
  income D p tracks a target v while keeping column sums at most one and
  the healthy equilibrium strictly positive. It depends on D only through
  y = D p and s = 1^T D, so it is solved exactly in those n + m numbers
  (a scalar root, taken on the projection path's affine pieces) and lifted
  back as the rank-one D = y s^T / (p.s).

The driving loop alternates the two: reallocate toward the outstanding
target, step the network under the new holdings, subtract the realized
state from the target, and stop once the state enters M+ (kept per network).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import inf, nan, sqrt

import numpy as np

from .invariance import Polyhedron, maximal_invariant_region
from .netmodel import FinancialNetwork, ShiftedModel
from .numerics import (
    InfeasibleError,
    IterationLimitError,
    LinearProgram,
    PIVOT_TOL,
    PROJECTION_TOL,
    STRICT_MARGIN,
    _dual_phase2,
    _DualStart,
    project_polyhedron,
    solve_linear,
)

REALLOCATION_TOL = 1e-12    # optimality gap at which the reallocation stops, times scale
REALLOCATION_MAX_ITER = 60  # projections per reallocation before IterationLimitError


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
    unless the problem says otherwise. Each region keeps its LP's phase 1 (_DualStart).
    """
    n = prob.x.shape[0]
    A = prob.region.A
    b = prob.region.b - A @ prob.x
    if prob.nonnegative:
        A = np.vstack([A, np.eye(n)])
        b = np.concatenate([b, np.zeros(n)])
    lp = LinearProgram(c=np.ones(n), A=A, b=b)
    start = prob.region._injection_lps.get(prob.nonnegative)
    if start is None or not np.array_equal(start.A, lp.A):
        start = prob.region._injection_lps[prob.nonnegative] = _DualStart(lp.A, lp.c)
    return _dual_phase2(start, lp.b).z


@dataclass(frozen=True)
class ReallocationProblem:
    """Find holdings D tracking income target v on a fixed network shape."""

    network: FinancialNetwork
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))

    @cached_property
    def G(self) -> np.ndarray:
        """(I - C)^-1, which maps holdings income D p to the healthy equilibrium."""
        net = self.network
        return solve_linear(np.eye(net.n) - net.C, np.eye(net.n))


def reallocation_feasible(prob: ReallocationProblem, D: np.ndarray,
                          tol: float = 1e-8) -> tuple[bool, dict[str, float]]:
    """Residuals of the three constraint groups at D."""
    net = prob.network
    residuals = {
        "nonneg": float(-min(np.min(D), 0.0)),
        "colsum": float(max(np.max(D.sum(axis=0)) - 1.0, 0.0)),
        "equilibrium": float(max(np.max(net.threshold + STRICT_MARGIN - prob.G @ (D @ net.p)),
                                 0.0)),
    }
    return all(v <= tol for v in residuals.values()), residuals


@dataclass(frozen=True)
class ReallocationSolution:
    objective: float            # |D p - v| + |1^T D| at the returned D
    iterations: int             # projections used
    optimality_gap: float       # certified bound on objective - optimum


def _fill_order(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where _column_sums' columns fill: the k-th largest price q_k at
    sigma = sum_{i<k} q_i + sum_{i>=k} q_i^2 / q_k, which grows with k."""
    q = np.sort(p[p > 0])[::-1]
    head = np.cumsum(q) - q                     # sum of the k larger prices
    tail = np.cumsum((q * q)[::-1])[::-1]       # sum of q_i^2 over i >= k
    return head, tail, head + tail / q


def _column_sums(p: np.ndarray, sigma: float,
                 order: tuple | None = None) -> tuple[np.ndarray, float]:
    """Least-norm s = min(1, tau p) with p.s = sigma, and the slope tau / |s| of h(sigma) = |s|.

    h is convex and C^1 on [0, sum p]. Callers that need many slopes pass order = _fill_order(p).
    """
    head, tail, fills = _fill_order(p) if order is None else order
    k = min(int(np.searchsorted(fills, sigma)), tail.size - 1)
    tau = max(sigma - head[k], 0.0) / tail[k]
    return np.minimum(1.0, tau * p), float(1.0 / np.sqrt(tail[k] + (k / tau ** 2 if k else 0.0)))


def asset_reallocation(prob: ReallocationProblem) -> tuple[np.ndarray, ReallocationSolution]:
    """Solve the reallocation program exactly; returns (D, solver diagnostics).

    It sees D only through y = D p and s = 1^T D: min |y - v| + |s| over y in
    P = {y >= 0, G y >= threshold + STRICT_MARGIN, 1^T y <= sum p}, 0 <= s <= 1, p.s = 1^T y.
    Given 1^T y, s is _column_sums'; y is then y(kappa), the projection of v - kappa 1 onto
    P, at a root of phi = kappa / |y(kappa) - v| - h'(1^T y(kappa)). As g + n = -phi 1 for a
    subgradient g of the objective and n in P's normal cone, y(kappa) is within |phi| sum p
    of optimal, plus the projection's own tolerance e, which grows with G; the gap reports
    both. The search stops once |phi| sum p + min(e, bound / 2) is at most bound =
    REALLOCATION_TOL * scale, so the gap stays within bound unless e alone passes half of
    it, or once no float lies nearer the root. On the last projection's affine piece of
    y(kappa) (_piece), |y - v|^2 is quadratic and 1^T y affine, so phi's root there costs no
    projection: it is the next kappa, warm-started on the piece, if it lies in the bracket
    and phi at least halved on the last step (or this is the first); else a secant step
    grows kappa or bisects. Each answer is a projection that passed the stop, so its gap
    certifies it. A projection that stalls from the last multipliers is repeated from zero
    ones. For v in P, y = v is optimal iff phi(0+) >= 0, phi being constant up to the
    ray's first breakpoint, which v's margins bound. Raises InfeasibleError for an empty
    P, IterationLimitError after REALLOCATION_MAX_ITER projections.
    """
    net, v, p = prob.network, prob.v, prob.network.p
    A = np.vstack([prob.G, -np.ones(net.n)])
    b = np.append(net.threshold + STRICT_MARGIN, -p.sum())
    scale = max(1.0, float(np.abs(v).max(initial=0.0)), float(np.abs(b).max()))
    bound = REALLOCATION_TOL * scale
    order = _fill_order(p)
    lam, calls = None, 0

    def projection_error(kappa: float) -> float:
        """The KKT residual at which project_polyhedron stops on v - kappa 1."""
        return PROJECTION_TOL * max(float(np.abs(A).max()), scale, float(np.abs(v - kappa).max()))

    def point(kappa: float) -> tuple[np.ndarray, float]:
        """y(kappa) and |y(kappa) - v|, warm-started at the last multipliers."""
        nonlocal lam, calls
        if calls == REALLOCATION_MAX_ITER:
            raise IterationLimitError(f"reallocation not converged in {calls} projections")
        calls += 1
        try:
            y, lam = project_polyhedron(A, b, v - kappa, lam)
        except IterationLimitError:     # multipliers from a far kappa can stall the Newton steps
            y, lam = project_polyhedron(A, b, v - kappa)
        return y, float(np.linalg.norm(y - v))

    def piece_root(kappa, y, rho, phi, lo, hi) -> tuple[float, np.ndarray]:
        """phi's root in (lo, hi) on y's piece at kappa, nan if the model changes no sign
        below 2^20 kappa; and the piece's dlam / dkappa."""
        dy, dlam = _piece(A, y, lam)
        a, b2, c = rho * rho, 2.0 * float((y - v) @ dy), float(dy @ dy)
        sigma, dsigma = float(y.sum()), float(dy.sum())

        def model(k: float) -> float:       # Python floats: a far k overflows to inf quietly
            t = k - kappa
            r = sqrt(max(a + t * (b2 + t * c), 0.0))
            return (k / r if r > 0 else inf) - _column_sums(p, sigma + t * dsigma, order)[1]

        x0, x1 = (lo, kappa) if phi > 0 else (kappa, min(hi, 2.0 ** 20 * kappa))
        (f0, f1), side = (model(x0), phi) if phi > 0 else (phi, model(x1)), 0
        if not f0 < 0 < f1:
            return nan, dlam
        for _ in range(100):                # Illinois: regula falsi, halving an end's f kept twice
            k = (x0 * f1 - x1 * f0) / (f1 - f0)
            if not x0 < k < x1:
                break
            if (fk := model(k)) < 0:
                x0, f0, f1, side = k, fk, 0.5 * f1 if side < 0 else f1, -1
            else:
                x1, f1, f0, side = k, fk, 0.5 * f0 if side > 0 else f0, 1
        return (x0 if -f0 < f1 else x1), dlam

    try:
        y, rho = point(0.0)
    except InfeasibleError:
        raise InfeasibleError("reallocation constraints unreachable: no nonneg holdings "
                              "with colsum at most one meet the equilibrium rows") from None
    slope = _column_sums(p, float(y.sum()), order)[1]
    if rho > 0:
        # phi(0) = -h'. Probe at |y - v| h', as at the root, but no further than 64 times the
        # |y - v| / |p| that h' >= 1/|p| gives: the projection stalls on far probes
        phi, kappa = -slope, rho * min(slope, 64.0 / float(np.linalg.norm(p)))
        y, rho = point(kappa)
    else:                                       # v in P: probe below the first breakpoint
        margins = np.append(A @ v - b, v)
        loose = margins > projection_error(0.0)
        norms = np.append(np.linalg.norm(A, axis=1), np.ones(net.n))[loose]
        kappa = float(np.min(margins[loose] / norms, initial=scale)) / np.sqrt(net.n)
        y, rho = point(kappa)
        phi = (kappa / rho if rho > 0 else np.inf) - slope       # phi(0+)
        if phi >= 0:
            return _lift(prob, v, calls, projection_error(kappa))
    last, phi_last, lo, hi = 0.0, phi, 0.0, np.inf
    while True:
        phi = (kappa / rho if rho > 0 else np.inf) - _column_sums(p, float(y.sum()), order)[1]
        lo, hi = (kappa, hi) if phi < 0 else (lo, kappa)
        step = phi - phi_last                   # 0 where phi is flat below v's first breakpoint
        secant = kappa - phi * (kappa - last) / step if step != 0 and np.isfinite(step) else np.nan
        gap, error = abs(phi) * p.sum(), projection_error(kappa)
        if gap + min(error, bound / 2) <= bound or secant == kappa or np.nextafter(lo, hi) == hi:
            return _lift(prob, y, calls, gap + error)       # or at float resolution
        if np.isinf(hi):                        # no bracket yet: grow kappa
            secant = min(secant, 64.0 * kappa) if secant > 2.0 * kappa else 2.0 * kappa
        elif not (lo < secant < hi and abs(phi) <= 0.5 * abs(phi_last)):   # it left or stalled:
            secant = np.sqrt(lo * hi) if hi > 4.0 * lo > 0 else 0.5 * (lo + hi)    # bisect
        if last == 0.0 or abs(phi) <= 0.5 * abs(phi_last):     # first step, or phi halved
            root, dlam = piece_root(float(kappa), y, rho, float(phi), float(lo), float(hi))
            if lo < root < hi and root != kappa:
                secant, lam = root, lam + (root - kappa) * dlam     # warm start on the piece
        last, phi_last, kappa = kappa, phi, secant
        y, rho = point(kappa)


def _piece(A: np.ndarray, y: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dy / dkappa and dlam / dkappa of y(kappa) = proj(v - kappa 1) onto {y >= 0, A y >= b},
    multipliers lam, while its support F and active rows J hold: A_JF y_F = b_J with
    y_F = v_F - kappa 1_F + A_JF^T lam_J gives (A_JF A_JF^T) dlam_J = A_JF 1_F, dy_F =
    A_JF^T dlam_J - 1_F. A ridge PIVOT_TOL |a_j|^2, as in project_polyhedron, keeps it solvable."""
    F, J = y > 0.0, lam > 0.0
    A_JF = A[J][:, F]
    H = A_JF @ A_JF.T
    H.flat[::len(H) + 1] += PIVOT_TOL * np.einsum("ij,ij->i", A[J], A[J])
    dlam, dy = np.zeros(lam.size), np.zeros(y.size)
    dlam[J] = np.linalg.solve(H, A_JF.sum(axis=1))
    dy[F] = dlam[J] @ A_JF - 1.0
    return dy, dlam


def _lift(prob: ReallocationProblem, y: np.ndarray, calls: int,
          gap: float) -> tuple[np.ndarray, ReallocationSolution]:
    """D = y s^T / (p.s) for the least-norm s of _column_sums, with its diagnostics."""
    p = prob.network.p
    s = _column_sums(p, float(y.sum()))[0]
    ps = float(p @ s)
    D = np.outer(y, s) / ps if ps > 0 else np.zeros(prob.network.D.shape)
    objective = float(np.linalg.norm(D @ p - prob.v) + np.linalg.norm(D.sum(axis=0)))
    return D, ReallocationSolution(objective=objective, iterations=calls, optimality_gap=float(gap))


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
    iterations: int             # projections of the reallocation
    optimality_gap: float       # certified bound on objective - optimum


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
                       max_iterations: int = 1000,
                       nonnegative_injection: bool = False) -> InterventionPlan:
    """Iterate reallocation steps until the state enters M+ of the network.

    M+ is computed once per network, from its initial holdings, and kept with it (and
    its injection LPs' phase 1) until C, r or beta changes. Each iteration
    re-solves the reallocation program toward the outstanding target v,
    swaps the holdings matrix wholesale, steps the state, and updates
    v <- v - x(t) ('verbatim') or v <- max(v - x(t), 0) ('clamped').
    Hitting the iteration cap raises IterationCapReached carrying the
    partial plan.
    """
    if mode not in ("verbatim", "clamped"):
        raise ValueError(f"unknown v-update mode {mode!r}")
    x = np.asarray(x0, dtype=float)
    model, memo = ShiftedModel.from_network(net), net._regions
    if not all(np.array_equal(memo.get(name), getattr(model, name)) for name in ("C", "r", "beta")):
        memo.update(C=model.C.copy(), r=model.r, beta=model.beta.copy(),
                    region=maximal_invariant_region(model, 0))
    region = memo["region"]
    v = minimal_injection(InjectionProblem(region=region, x=x,
                                           nonnegative=nonnegative_injection))
    plan = InterventionPlan(initial_x=x.copy(), injection=v.copy(),
                            region=region, mode=mode)
    current = net
    for it in range(1, max_iterations + 1):
        if region.contains(x):
            plan.success = True
            return plan
        prob = ReallocationProblem(network=current, v=v)
        D, sol = asset_reallocation(prob)
        current = replace(current, D=D)
        x = ShiftedModel.from_network(current).step(x)
        v = v - x
        if mode == "clamped":
            v = np.maximum(v, 0.0)
        plan.steps.append(PlanStep(it, D, x.copy(), v.copy(), sol.objective,
                                   reallocation_feasible(prob, D)[1], iterations=sol.iterations,
                                   optimality_gap=sol.optimality_gap))
    if region.contains(x):
        plan.success = True
        return plan
    raise IterationCapReached(plan)
