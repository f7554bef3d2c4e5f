"""Periodic orbits of the switched dynamics.

A period-h orbit of the n-dimensional system is a fixed point of the
lifted nh-dimensional system whose state stacks h consecutive states. The
lift keeps C >= 0 and its column sums, so periodic_points finds every
period-h point by the census that enumerates equilibria, for n h up to the
enumeration guard. The dynamics admit no period-2 orbits, which
periodic_points(model, 2) checks exactly and verify_no_period2 probes by
sampling. Trajectories that stay clear of the switching boundaries settle
on an equilibrium or a cycle, which classify_trajectory reports. Every
trajectory here comes from netmodel.simulate: bitwise the plain step loop
(the no-period-2 trials as one block), though a settled one costs few steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .equilibria import ENUMERATION_LIMIT, DimensionTooLargeError, _census
from .netmodel import ShiftedModel, Trajectory, simulate
from .numerics import SolverError, solve_linear

DETECT_TOL = 1e-9       # closure tolerance of the cycle search
H_MAX = 64              # largest period searched
RHO = 1e-6              # criticality margin around the switching boundaries


class InsufficientLengthError(ValueError):
    """Trajectory too short for the requested cycle search."""


class NonFiniteTrajectoryError(SolverError, ValueError):
    """A state of a trajectory to classify, or of a sandwich, is inf or nan."""


def periodic_points(model: ShiftedModel, h: int) -> np.ndarray:
    """Every point whose period divides h, as (count, h, n) stacks of consecutive states.

    Stack j holds x, step(x), ..., step^(h-1)(x) for a point x with step^h(x) = x, so each
    orbit appears once per phase and every equilibrium once, as h equal rows. They are the
    fixed points of the lift Z = C_lift Z + tile(r, h) - B_lift phi(Z) with C_lift =
    kron(P, C), B_lift = kron(P, diag(beta)) and P the h x h cyclic shift, found by the
    equilibrium census on its (w, M). Raises ValueError for h < 1 and
    DimensionTooLargeError when n h exceeds ENUMERATION_LIMIT."""
    if h < 1:
        raise ValueError("period must be >= 1")
    if (nh := model.n * h) > ENUMERATION_LIMIT:
        raise DimensionTooLargeError(f"n*h={nh} exceeds enumeration guard {ENUMERATION_LIMIT}")
    P = np.roll(np.eye(h), 1, axis=0)       # block i reads block i - 1; block 0 the last
    WM = solve_linear(np.eye(nh) - np.kron(P, model.C),
                      np.column_stack([np.tile(model.r, h), np.kron(P, np.diag(model.beta))]))
    return _census(WM[:, 0], WM[:, 1:]).reshape(-1, h, model.n)


@dataclass(frozen=True)
class CycleHit:
    """Detected periodicity: smallest period and the window start index."""

    period: int
    phase: int

    @property
    def is_equilibrium(self) -> bool:
        return self.period == 1


def _detect(states: np.ndarray, tol: float, h_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Core search over a (T+1, n, trials) state array of at least 2 h_max states, as both
    callers pass: each trial's smallest closing period (0 for none) and that period's window
    start. A failure pattern (states < 0) that differs across the window rules h out first."""
    lo = max(states.shape[0] - 2 * h_max, 0)    # no window reaches further back
    states = states[lo:]
    T = states.shape[0] - 1
    failed = states < 0
    period = np.zeros(states.shape[2], dtype=int)
    for h in range(1, h_max + 1):
        start, stop = T - h_max - h + 1, T - h + 1      # window of h_max start times
        open_ = (period == 0) & ~np.any(failed[start + h:] != failed[start:stop], axis=(0, 1))
        if open_.any():
            diff = np.max(np.abs(states[start + h:] - states[start:stop]), axis=(0, 1))
            period[open_ & (diff <= tol)] = h
            if period.all():
                break
    return period, lo + T - h_max + 1 - period


def detect_cycle(traj: Trajectory, tol: float = DETECT_TOL,
                 h_max: int = H_MAX) -> CycleHit | None:
    """Smallest period h <= h_max sustained over the last h_max steps.

    Closure means ||x(t+h) - x(t)||_inf <= tol for every start t in the
    window. period=1 is an equilibrium. None means nothing closed, either
    an unsettled transient or a longer cycle. InsufficientLengthError on
    fewer than 2 h_max + 8 states.
    """
    states = traj.states
    if states.shape[0] < 2 * h_max + 8:
        raise InsufficientLengthError(
            f"need at least {2 * h_max + 8} states, got {states.shape[0]}")
    (period,), (phase,) = _detect(states[:, :, None], tol, h_max)
    return CycleHit(period=int(period), phase=int(phase)) if period else None


@dataclass
class Period2Report:
    trials: int
    seed: int
    period_counts: dict[int, int]
    violations: list[np.ndarray]     # initial states that produced period 2

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_no_period2(model: ShiftedModel, trials: int = 100, seed: int = 0) -> Period2Report:
    """Probe random initial states for genuine period-2 limit behavior.

    Initial states are sampled from a box sized by the asymptotic bound
    ||x||_1 <= (||r||_1 + ||beta||_1) / (1 - max column sum). Counts the
    detected period (up to 8, at closure tolerance 1e-7) per trial, all trials
    simulated and searched as one batch; a hit at period 2 with two distinct
    states is recorded as a violation.
    """
    rng = np.random.default_rng(seed)
    n, tol, h_max = model.n, 1e-7, 8
    slack = 1.0 - float(model.C.sum(axis=0).max())
    scale = min(100.0, (np.abs(model.r).sum() + model.beta.sum()) / max(slack, 1e-2))
    # enough steps for the 1-norm contraction to push a transient of size
    # `scale` two orders below tol
    settle = np.log(tol / (100.0 * n * max(scale, 1.0))) / np.log(max(1.0 - slack, 0.1))
    T = 2 * h_max + min(max(int(settle) + 1, 64), 4000)
    history = simulate(model, rng.uniform(-scale, scale, size=(n, trials)), T).states
    period, _ = _detect(history, tol, h_max)
    counts = dict(Counter(period.tolist()))
    moved = np.max(np.abs(history[-1] - history[-2]), axis=0) > tol
    violations = [history[0, :, j].copy() for j in np.flatnonzero((period == 2) & moved)]
    return Period2Report(trials=trials, seed=seed, period_counts=counts,
                         violations=violations)


@dataclass
class LimitClassification:
    """Outcome of a long simulation: where did the trajectory settle.

    kind is one of 'equilibrium', 'cycle', 'critical', 'undetermined'.
    Critical marks trajectories that graze a switching boundary
    (|x_i(t)| < rho for some i, t); those are never classified further
    because the indicator value there is numerically unreliable.
    """

    kind: str
    rho: float
    period: int | None = None
    point: np.ndarray | None = None         # equilibrium location
    orbit: np.ndarray | None = None         # (h, n) one period of the cycle
    transient: int | None = None
    first_critical: tuple[int, int] | None = None   # (t, i)


def classify_trajectory(traj: Trajectory, rho: float = RHO, tol: float = DETECT_TOL,
                        h_max: int = H_MAX) -> LimitClassification:
    """Classify where a simulated trajectory settled.

    The criticality screen runs first: any state component within rho of
    zero makes the whole trajectory Critical. Undetermined means no period
    up to h_max closed within the horizon. Both scans stop at traj.repeat:
    the rows after it are copies. ValueError, naming the step, when a state
    is not finite (the dynamics overflowed).
    """
    return _classify(traj, rho, tol, h_max)[0]


def _classify(traj: Trajectory, rho: float, tol: float,
              h_max: int) -> tuple[LimitClassification, CycleHit | None]:
    """classify_trajectory's answer and its cycle search's hit (None for a critical run,
    which skips the search)."""
    states = traj.states
    settled = states if traj.repeat is None else states[:traj.repeat[1] + 1]
    finite = np.isfinite(settled)
    if not finite.all():
        t = int(np.argmin(finite.all(axis=1)))
        raise NonFiniteTrajectoryError(f"trajectory is not finite from step {t}")
    near = np.abs(settled) < rho
    if near.any():
        t, i = np.argwhere(near)[0]
        return LimitClassification(kind="critical", rho=rho,
                                   first_critical=(int(t), int(i))), None
    hit = detect_cycle(traj, tol=tol, h_max=h_max)
    if hit is None:
        return LimitClassification(kind="undetermined", rho=rho), None
    h = hit.period
    transient = _transient(states, h, tol, traj.repeat)
    if h == 1:
        return LimitClassification(kind="equilibrium", rho=rho, period=1,
                                   point=states[-1].copy(), transient=transient), hit
    return LimitClassification(kind="cycle", rho=rho, period=h,
                               orbit=states[-h:].copy(), transient=transient), hit


def _transient(states: np.ndarray, h: int, tol: float,
               repeat: tuple[int, int] | None) -> int:
    """Earliest start from which |x(t+h) - x(t)| <= tol holds through the end.

    With repeat = (t0, t1) the diff repeats with period t1 - t0 from t0 on,
    so it is taken only up to t1 - 1. A bad start at or after t0 recurs up
    to the end, and then the whole diff is scanned.
    """
    end = states.shape[0] - 1 - h
    if repeat is not None:
        end = min(end, repeat[1] - 1)
    diff = np.max(np.abs(states[h:end + h + 1] - states[:end + 1]), axis=1)
    bad = np.nonzero(diff > tol)[0]
    if repeat is not None and bad.size and bad[-1] >= repeat[0]:
        return _transient(states, h, tol, None)
    return int(bad[-1] + 1) if bad.size else 0
