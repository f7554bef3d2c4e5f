"""Cash injections and asset reallocation.

Two decision problems drive a distressed network back into the maximal
healthy-invariant region M+:

* the injection LP: the cheapest external cash vector v (componentwise
  sign-free by default) with x + v inside M+;
* the reallocation program: a nonnegative asset-holdings matrix D whose
  income D p tracks a target v while keeping column sums at most one and
  the healthy equilibrium strictly positive. It depends on D only through
  y = D p and s = 1^T D, so it is solved exactly in those n + m numbers
  (a scalar root, reached by tracing the projection path's affine pieces from
  the first projection, and checked by one more) and lifted back as the
  rank-one D = y s^T / (p.s).

The driving loop alternates the two: reallocate toward the outstanding
target, step the network under the new holdings, subtract the realized
state from the target, and stop once the state enters M+ (kept per network).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import inf, sqrt

import numpy as np

from .invariance import Polyhedron, maximal_invariant_region
from .netmodel import FinancialNetwork, ShiftedModel
from .numerics import (
    InfeasibleError,
    IterationLimitError,
    NonFiniteDataError,
    OPT_TOL,
    PIVOT_TOL,
    STRICT_MARGIN,
    SolverError,
    _basic_point,
    _dual_phase2,
    _DualStart,
    _vector,
    project_polyhedron,
    projection_tol,
    solve_linear,
)

REALLOCATION_TOL = 1e-12    # optimality gap at which the reallocation stops, times scale
REALLOCATION_MAX_ITER = 60  # projections per reallocation before IterationLimitError
ESTIMATE_ROUNDS = 4         # active-set rounds of _multipliers, the first projection's start


@dataclass(frozen=True)
class InjectionProblem:
    """Minimal-cash-injection instance: drive x into region."""

    region: Polyhedron
    x: np.ndarray
    nonnegative: bool = False      # forbid withdrawals when True

    def __post_init__(self):
        object.__setattr__(self, "x", _vector(self.x, self.region.dim, "injection state x"))


def minimal_injection(prob: InjectionProblem) -> np.ndarray:
    """Solve min 1.v subject to x + v in region (componentwise free v).

    The region rows bound the total downward; the LP is infeasible only if
    the region itself is empty. Withdrawals (negative entries) are allowed
    unless the problem says otherwise. Each region keeps, per nonnegative flag, its LP's
    rows A (region.A, then the n rows v >= 0 when nonnegative) and their phase 1
    (_DualStart); a call forms only b = region.b - region.A x (and zeros). A b or
    product of the solve that is not finite (x near float range, say) is NonFiniteDataError.
    With free v, the dual max b.y on {A^T y = 1, y >= 0} moves by the constant -1.x, so its
    path and optimal basis B do not depend on x; z = A_B^-1 b_B = w - x, w B's point at
    x = 0, so A z - b = A w - region.b >= 0. After a region's first solve z is B's point, one
    product with the kept inverse (no simplex), while its slack is >= -OPT_TOL; else
    (rounding) it re-solves.
    """
    region, x, n = prob.region, prob.x, prob.x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):     # an overflow is the error below
        b = region.b - region.A @ x
    if not np.isfinite(b).all():
        raise NonFiniteDataError("LP data has non-finite entries")
    if prob.nonnegative:
        b = np.concatenate([b, np.zeros(n)])
    start = region._injection_lps.get(prob.nonnegative)
    if start is None:       # a non-finite entry of region.A makes b non-finite, for every x
        A = np.vstack([region.A, np.eye(n)]) if prob.nonnegative else region.A
        start = region._injection_lps[prob.nonnegative] = _DualStart(A, np.ones(n))
    try:
        with np.errstate(over="raise", invalid="raise"):
            if not prob.nonnegative and start.last:
                z = _basic_point(start, b, start.last[1])
                if (start.A @ z - b).min(initial=0.0) >= -OPT_TOL:
                    return z
            return _dual_phase2(start, b).z
    except FloatingPointError as e:
        raise NonFiniteDataError(f"injection LP at this state overflows floats: {e}") from None


@dataclass(frozen=True)
class ReallocationProblem:
    """Find holdings D tracking income target v on a fixed network shape."""

    network: FinancialNetwork
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", _vector(self.v, self.network.n, "reallocation target v"))

    @property
    def G(self) -> np.ndarray:
        """(I - C)^-1, which maps holdings income D p to the healthy equilibrium."""
        return self._rows[0][:-1]

    @property
    def _rows(self) -> tuple[np.ndarray, np.ndarray, tuple]:
        """asset_reallocation's set [G; -1^T] y >= [threshold + STRICT_MARGIN; -sum p], and
        _fill_order(p). They depend on C, threshold and p only, so they are built once per
        network and kept in its _regions, for every problem and drive on it."""
        net, memo = self.network, self.network._regions
        if "reallocation" not in memo:
            G = solve_linear(np.eye(net.n) - net.C, np.eye(net.n))
            memo["reallocation"] = (np.vstack([G, -np.ones(net.n)]), np.append(
                net.threshold + STRICT_MARGIN, -net.p.sum()), _fill_order(net.p))
        return memo["reallocation"]


def reallocation_feasible(prob: ReallocationProblem,
                          D: np.ndarray) -> tuple[bool, dict[str, float]]:
    """Whether the three constraint groups hold at D to 1e-8, and their residuals."""
    net = prob.network
    residuals = {
        "nonneg": float(-min(np.min(D), 0.0)),
        "colsum": float(max(np.max(D.sum(axis=0)) - 1.0, 0.0)),
        "equilibrium": float(max(np.max(net.threshold + STRICT_MARGIN - prob.G @ (D @ net.p)),
                                 0.0)),
    }
    return all(v <= 1e-8 for v in residuals.values()), residuals


@dataclass(frozen=True)
class ReallocationSolution:
    objective: float            # |D p - v| + |1^T D| at the returned D
    iterations: int             # projections used
    optimality_gap: float       # certified bound on objective - optimum


def _fill_order(p: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Where _column_sums' columns fill: the k-th largest price q_k at
    sigma = sum_{i<k} q_i + sum_{i>=k} q_i^2 / q_k, which grows with k. The sums are in
    units of u, the largest price (first returned), so that q^2 cannot over- or underflow."""
    q = np.sort(p[p > 0])[::-1]
    u = float(q[0])
    q = q / u
    head = np.cumsum(q) - q                     # sum of the k larger prices
    tail = np.cumsum((q * q)[::-1])[::-1]       # sum of q_i^2 over i >= k
    return u, head, tail, u * (head + tail / q)


def _fill(sigma: float, order: tuple) -> tuple[float, float]:
    """u tau and the slope tau / |s| of h(sigma) = |s| for _column_sums' s = min(1, tau p),
    from order = _fill_order(p): the reallocation's root search needs only the slope."""
    u, head, tail, fills = order
    k = min(int(np.searchsorted(fills, sigma)), tail.size - 1)
    tau = max(sigma / u - head[k], 0.0) / tail[k]       # u tau, as tau p = (u tau) p / u
    return tau, float(1.0 / (u * np.sqrt(tail[k] + (k / tau ** 2 if k else 0.0))))


def _column_sums(p: np.ndarray, sigma: float,
                 order: tuple | None = None) -> tuple[np.ndarray, float]:
    """Least-norm s = min(1, tau p) with p.s = sigma, and the slope tau / |s| of h(sigma) = |s|.

    h is convex and C^1 on [0, sum p]. Callers that need many slopes pass order = _fill_order(p).
    """
    order = _fill_order(p) if order is None else order
    tau, slope = _fill(sigma, order)
    return np.minimum(1.0, tau * (p / order[0])), slope


def asset_reallocation(prob: ReallocationProblem) -> tuple[np.ndarray, ReallocationSolution]:
    """Solve the reallocation program exactly; returns (D, solver diagnostics).

    It sees D only through y = D p and s = 1^T D: min |y - v| + |s| over y in
    P = {y >= 0, G y >= threshold + STRICT_MARGIN, 1^T y <= sum p}, 0 <= s <= 1, p.s = 1^T y.
    Given 1^T y, s is _column_sums'; y is then y(kappa), the projection of v - kappa 1 onto
    P, at a root of phi = kappa / |y(kappa) - v| - h'(1^T y(kappa)). As g + n = -phi 1 for a
    subgradient g of the objective and n in P's normal cone, y(kappa) is within |phi| sum p
    of optimal, plus the projection's own tolerance e (it grows with G); the gap reports both.
    The search stops once |phi| sum p + min(e, bound / 2) <= bound = REALLOCATION_TOL * scale.
    From each projection, _path follows y(kappa) toward phi's root one affine piece at a
    time (Best, 1996): on a piece |y - v|^2 is quadratic and 1^T y affine, so phi's root
    there costs no projection (piece_root). The first piece holding a root inside the
    bracket of projected phi signs gives the next kappa, projected warm-started on that
    piece to check it; from y(0) that check usually certifies the root with no Newton
    step. The bracket starts as [0, 2 (|v| + sum p) h'(sum p)], where phi > 0 a priori.
    Where the pieces stop (a degenerate event), the next projection re-synchronises the
    trace there. Where no piece reaches a root before the bracket's end (rounding can move
    phi's sign change off the model's), or the trace cannot leave the projected kappa at
    all (say, active rows dependent on the support), the next kappa is halfway to that end.
    At float resolution (no float lies inside the bracket, or the root is a projected
    kappa) rounding decides phi, so the answer is the projection with the least gap seen.
    A stalled warm projection is repeated cold, so y(0) starts warm too, from _multipliers'
    estimate: it usually needs no Newton step, and changes the work, not the answer. For v in
    P, phi(0+) is the limit on the path's first piece, and y = v is optimal iff phi(0+) >= 0;
    else its gap is |phi(0+)| sum p, as for any other projection. Raises InfeasibleError for
    an empty P, IterationLimitError after REALLOCATION_MAX_ITER projections.
    """
    v, p = prob.v, prob.network.p
    A, b, order = prob._rows
    scale = max(1.0, float(np.abs(v).max(initial=0.0)), float(np.abs(b).max()))
    bound = REALLOCATION_TOL * scale
    calls = 0

    def point(kappa: float, lam: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """y(kappa) and its multipliers, warm-started at lam."""
        nonlocal calls
        if calls == REALLOCATION_MAX_ITER:
            raise IterationLimitError(f"reallocation not converged in {calls} projections")
        calls += 1
        try:
            return project_polyhedron(A, b, v - kappa, lam)
        except IterationLimitError:     # multipliers from a far kappa can stall the Newton steps
            if lam is None:
                raise
            return project_polyhedron(A, b, v - kappa)

    def piece_root(k0, y0, dy, up, far) -> float | None:
        """phi's root on the piece through y0 at k0 with slope dy, between k0 and far, or None."""
        a, b2, c = float((y0 - v) @ (y0 - v)), 2.0 * float((y0 - v) @ dy), float(dy @ dy)
        sigma, dsigma = float(y0.sum()), float(dy.sum())

        def model(k: float) -> float:
            t = k - k0
            r = sqrt(max(a + t * (b2 + t * c), 0.0))
            slope = _fill(sigma + t * dsigma, order)[1]
            return (k / r if r > 0 else 1.0 / sqrt(c) if k == 0 < c else inf) - slope

        f0, f1 = model(k0), model(far)
        if (f0 >= 0) == up:                 # the root is where the piece starts
            return k0
        if (f1 > 0) != up:
            return None
        (x0, f0), (x1, f1) = sorted([(k0, f0), (far, f1)])     # f0 < 0 < f1: phi rises
        side = 0
        for _ in range(100):                # Illinois: regula falsi, halving an end's f kept twice
            k = (x0 * f1 - x1 * f0) / (f1 - f0)
            if not x0 < k < x1:
                break
            if (fk := model(k)) < 0:
                x0, f0, f1, side = k, fk, 0.5 * f1 if side < 0 else f1, -1
            else:
                x1, f1, f0, side = k, fk, 0.5 * f0 if side > 0 else f0, 1
        return x0 if -f0 < f1 else x1

    def next_point(kappa, y, lam, up, end) -> tuple[float, np.ndarray, bool]:
        """Trace from the projection at kappa toward the bracket's end; the next kappa to
        project, its warm multipliers, and whether it is phi's root on its piece."""
        for k0, y0, lam0, dy, dlam, length in _path(A, b, v, kappa, y, lam, up):
            stop = k0 + length if up else k0 - length
            root = piece_root(k0, y0, dy, up, min(stop, end) if up else max(stop, end))
            if root is not None:
                return root, lam0 + (root - k0) * dlam, True
            if (stop >= end) if up else (stop <= end):
                break                           # no root before the bracket's end
        else:
            if stop != kappa:                   # a degenerate event: re-synchronise there
                return stop, lam0 + (stop - k0) * dlam, False
        mid = 0.5 * (k0 + end)                  # no root reached: halfway to the end
        return mid, lam0 + (mid - k0) * dlam, False

    try:
        y, lam = point(0.0, _multipliers(A, b, v))
    except InfeasibleError:
        raise InfeasibleError("reallocation constraints unreachable: no nonneg holdings "
                              "with colsum at most one meet the equilibrium rows") from None
    # phi >= kappa / (|v| + sum p) - h'(sum p), as |y - v| <= |v| + |y|_1 on P and h' grows:
    # phi > 0 at hi, which bounds the bracket before any projection does
    hi = 2.0 * (float(np.linalg.norm(v)) + float(p.sum())) * _fill(float(p.sum()), order)[1]
    kappa, lo, best = 0.0, 0.0, (inf, y)
    while True:
        rho, slope = float(np.linalg.norm(y - v)), _fill(float(y.sum()), order)[1]
        if rho > 0 or kappa > 0:
            phi = (kappa / rho if rho > 0 else inf) - slope
        else:           # v in P: phi(0+) on the path's first piece; v is optimal if it is >= 0
            dy = next(_path(A, b, v, 0.0, y, lam, True))[3]
            phi = min((1.0 / sqrt(c) if (c := float(dy @ dy)) > 0 else inf) - slope, 0.0)
        lo, hi = (kappa, hi) if phi < 0 else (lo, kappa)
        gap, error = abs(phi) * p.sum(), projection_tol(A, b, v - kappa)
        if gap + min(error, bound / 2) <= bound:
            return _lift(prob, y, calls, gap + error, order)
        best = min(best, (gap + error, y), key=lambda seen: seen[0])
        if np.nextafter(lo, hi) == hi:
            return _lift(prob, best[1], calls, best[0], order)
        root, warm, found = next_point(kappa, y, lam, phi < 0, hi if phi < 0 else lo)
        if found and root in (lo, hi):          # float resolution: the best seen
            return _lift(prob, best[1], calls, best[0], order)
        kappa = root
        y, lam = point(kappa, warm)


def _path(A: np.ndarray, b: np.ndarray, v: np.ndarray, kappa: float, y: np.ndarray,
          lam: np.ndarray, up: bool):
    """The affine pieces of y(kappa) = proj(v - kappa 1) onto {y >= 0, A y >= b}, from its
    projection y with multipliers lam at kappa, toward larger kappa if up, else smaller.

    Yields (kappa, y, lam, dy, dlam, length) per piece: its start, its slopes d / dkappa
    (_piece) and its length in |kappa| (inf for the last). The support F and the active
    rows J are carried, not read off y > 0 and lam > 0, as an event leaves its index on
    the boundary. A piece ends where some y_i on F or lam_j on J reaches 0, or the slack
    of a row off J, or w_i = (v - kappa 1 + A^T lam)_i for i off F; that index changes
    sets, and the next slope must move it off the boundary. The pieces stop at a
    degenerate event (a tie, or a slope contradicting its event) and after 2 (n + m)
    events: the caller re-synchronises with a projection where the last piece ends.
    """
    n, m = y.size, lam.size
    F, J = y > 0.0, lam > 0.0
    d = 1.0 if up else -1.0
    events = np.zeros(0, dtype=int)
    for _ in range(2 * (n + m)):
        dy, dlam = _piece(A, F, J)
        # distances to the boundary (y on F, lam on J, -w off F, slack off J) and their rates
        level = np.concatenate([y, lam, lam @ -A - (v - kappa), A @ y - b])
        rate = d * np.concatenate([dy, dlam, 1.0 - dlam @ A, A @ dy])
        if (rate[(events + n + m) % (2 * (n + m))] < 0.0).any():
            return                              # an index would cross back at once
        hits = np.concatenate([F, J, ~F, ~J]) & (rate < 0.0)
        t = np.full(level.size, inf)
        t[hits] = np.maximum(level[hits], 0.0) / -rate[hits]
        length = float(t.min())
        yield kappa, y, lam, dy, dlam, length
        if length == inf:
            return
        events = np.flatnonzero(t <= length * (1.0 + 1e-9))    # ties change sets together
        kappa, y, lam = kappa + d * length, y + d * length * dy, lam + d * length * dlam
        for e in events.tolist():
            if e < n:
                y[e], F[e] = 0.0, False
            elif e < n + m:
                lam[e - n], J[e - n] = 0.0, False
            elif e < 2 * n + m:
                F[e - n - m] = True
            else:
                J[e - 2 * n - m] = True


def _piece(A: np.ndarray, F: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dy / dkappa and dlam / dkappa of y(kappa) = proj(v - kappa 1) onto {y >= 0, A y >= b}
    while its support F and active rows J hold: A_JF y_F = b_J with y_F = v_F - kappa 1_F
    + A_JF^T lam_J gives (A_JF A_JF^T) dlam_J = A_JF 1_F, dy_F = A_JF^T dlam_J - 1_F."""
    A_J, A_JF = A[J], A[J][:, F]
    dlam, dy = np.zeros(J.size), np.zeros(F.size)
    dlam[J] = _row_solve(A_J, A_JF, A_JF.sum(axis=1))
    dy[F] = dlam[J] @ A_JF - 1.0
    return dy, dlam


def _row_solve(A_J: np.ndarray, A_JF: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with (A_JF A_JF^T) x = rhs. A ridge R = PIVOT_TOL |a_j|^2 (rows of A_J), as in
    project_polyhedron, keeps it solvable; one refinement step takes out its bias R_j x_j."""
    H = A_JF @ A_JF.T
    ridged = H.copy()
    ridged.flat[::len(H) + 1] += PIVOT_TOL * np.einsum("ij,ij->i", A_J, A_J)
    step = np.linalg.solve(ridged, rhs)
    return step + np.linalg.solve(ridged, rhs - H @ step)


def _multipliers(A: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray | None:
    """Active-set estimate (Hintermueller, Ito and Kunisch, 2002) of proj(v)'s multipliers on
    {y >= 0, A y >= b}: from J = the rows violated at max(v, 0) and F = every column, each
    round solves A_JF (v_F + A_JF^T lam_J) = b_J, clips lam at 0 and takes F = {w > 0} and
    J = {lam > 0} | the rows violated at max(w, 0), w = v + A^T lam, until J and F repeat or
    for ESTIMATE_ROUNDS rounds. The lam of least KKT residual |min(lam, A max(w, 0) - b)|, or
    None where none beats lam = 0 or |w|^2 is not finite (the projection and the root search
    square such values)."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = A @ np.maximum(v, 0.0) - b
        J, F = s < 0.0, np.ones(v.size, dtype=bool)
        if not J.any():
            return None
        best, least = None, -s.min()        # the residual at lam = 0
        for _ in range(ESTIMATE_ROUNDS):
            A_J, A_JF, lam = A[J], A[J][:, F], np.zeros(b.size)
            lam[J] = np.maximum(_row_solve(A_J, A_JF, b[J] - A_JF @ v[F]), 0.0)
            w = v + lam @ A
            if not np.isfinite(w @ w):
                return None
            s = A @ np.maximum(w, 0.0) - b
            if (res := np.abs(np.minimum(lam, s)).max()) < least:
                best, least = lam, res
            F_next, J_next = w > 0.0, (lam > 0.0) | (s < 0.0)
            if (F_next == F).all() and (J_next == J).all():
                break
            F, J = F_next, J_next
    return best


def _lift(prob: ReallocationProblem, y: np.ndarray, calls: int, gap: float,
          order: tuple) -> tuple[np.ndarray, ReallocationSolution]:
    """D = y s^T / (p.s) for the least-norm s of _column_sums, with its diagnostics."""
    p = prob.network.p
    s = _column_sums(p, float(y.sum()), order)[0]
    ps = float(p @ s)
    D = np.outer(y, s) / ps if ps > 0 else np.zeros(prob.network.D.shape)
    objective = float(np.linalg.norm(D @ p - prob.v) + np.linalg.norm(D.sum(axis=0)))
    return D, ReallocationSolution(objective=objective, iterations=calls, optimality_gap=float(gap))


class IterationCapReached(SolverError, RuntimeError):
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
    its injection LPs' phase 1); so are the reallocation's G and rows
    (ReallocationProblem._rows). Every reallocation of the network's drives is posed on
    net itself, as D enters only through the step, so all of them share those rows. The
    network's arrays are read-only, so none of these goes stale. Each iteration
    re-solves the reallocation program toward the outstanding target v,
    swaps the holdings matrix wholesale, steps the state, and updates
    v <- v - x(t) ('verbatim') or v <- max(v - x(t), 0) ('clamped').
    Hitting the iteration cap raises IterationCapReached carrying the
    partial plan.
    """
    if mode not in ("verbatim", "clamped"):
        raise ValueError(f"unknown v-update mode {mode!r}")
    x = np.asarray(x0, dtype=float)
    memo = net._regions
    if "region" not in memo:
        memo["region"] = maximal_invariant_region(ShiftedModel.from_network(net), 0)
    region = memo["region"]
    v = minimal_injection(InjectionProblem(region=region, x=x,
                                           nonnegative=nonnegative_injection))
    plan = InterventionPlan(initial_x=x.copy(), injection=v.copy(),
                            region=region, mode=mode)
    while not region.contains(x):
        if plan.iterations >= max_iterations:
            raise IterationCapReached(plan)
        prob = ReallocationProblem(network=net, v=v)
        D, sol = asset_reallocation(prob)
        x = ShiftedModel.from_network(replace(net, D=D)).step(x)
        v = v - x
        if mode == "clamped":
            v = np.maximum(v, 0.0)
        plan.steps.append(PlanStep(plan.iterations + 1, D, x.copy(), v.copy(), sol.objective,
                                   reallocation_feasible(prob, D)[1], iterations=sol.iterations,
                                   optimality_gap=sol.optimality_gap))
    plan.success = True
    return plan
