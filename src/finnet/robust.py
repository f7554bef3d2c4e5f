"""Interval-uncertain cross-holdings.

Time-varying holdings c_ij(t) in [c_lower_ij, c_upper_ij] turn the healthy
dynamics into the difference inclusion x(t+1) = C(t) x(t) + r. Because the
state stays nonnegative inside the healthy region and the matrices are
nonnegative, trajectories are squeezed between the two constant-matrix
extremes, and in the limit between the extremal fixed points

    x_lower = (I - C_lower)^-1 r,    x_upper = (I - C_upper)^-1 r.

The robust invariant region is the maximal invariant set of the lower
system; the upper system's set is the last-hope region, outside of which
even the most favorable holdings cannot keep every organization healthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .cycles import NonFiniteTrajectoryError
from .equilibria import EquilibriumRecord, candidate_equilibrium
from .invariance import NoPositiveEquilibriumError, Polyhedron, _region_from
from .netmodel import ShiftedModel
from .numerics import _frozen, _vector


@dataclass(frozen=True)
class IntervalNetwork:
    """Entrywise interval [c_lower, c_upper] for C, plus the fixed drift r.

    Zero-width intervals are allowed (diagonals are normally pinned to 0).
    Every entry must be finite, and both extremes must have column sums < 1.
    The arrays are read-only, so the extremes and regions cached here hold.
    """

    c_lower: np.ndarray
    c_upper: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name in ("c_lower", "c_upper", "r"):
            a = _frozen(getattr(self, name))
            if not np.all(np.isfinite(a)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, a)
        cl, cu, r = self.c_lower, self.c_upper, self.r
        if cl.shape != cu.shape or cl.ndim != 2 or cl.shape[0] != cl.shape[1]:
            raise ValueError("interval bounds must be square matrices of equal shape")
        if r.shape != (cl.shape[0],):
            raise ValueError("r has wrong shape")
        if np.any(cl < 0):
            raise ValueError("c_lower has negative entries")
        if np.any(cu < cl):
            raise ValueError("c_upper must dominate c_lower entrywise")
        if np.any(cu.sum(axis=0) >= 1.0):
            raise ValueError("c_upper column sums must be < 1")

    @property
    def n(self) -> int:
        return self.c_lower.shape[0]

    @classmethod
    def from_nominal(cls, C, r, spread: float) -> "IntervalNetwork":
        """Symmetric relative spread around a nominal matrix.

        Zero entries (including the diagonal) stay pinned at zero.
        """
        C = np.asarray(C, dtype=float)
        return cls(c_lower=(1.0 - spread) * C, c_upper=(1.0 + spread) * C,
                   r=np.asarray(r, dtype=float))

    @cached_property
    def _extremes(self) -> tuple[tuple[ShiftedModel, EquilibriumRecord], ...]:
        """Each extreme system with its orthant-0 candidate, the one solve of (I - c) x = r."""
        models = (_extreme_model(c, self.r) for c in (self.c_lower, self.c_upper))
        return tuple((model, candidate_equilibrium(model, 0)) for model in models)

    @cached_property
    def lower_region(self) -> Polyhedron:
        """Maximal invariant set of the lower extreme, built once; see robust_invariant_set."""
        return _region_from(*self._extremes[0])

    @cached_property
    def upper_region(self) -> Polyhedron:
        """Maximal invariant set of the upper extreme, built once; see last_hope_region."""
        return _region_from(*self._extremes[1])


def _extreme_model(c: np.ndarray, r: np.ndarray) -> ShiftedModel:
    """x -> c x + r: beta = 0 makes the kernel's step C x + r - 0.0, bitwise C x + r."""
    return ShiftedModel.from_parts(c, r, np.zeros(r.size))


def extremal_fixed_points(inet: IntervalNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points of the two constant-extreme systems, lower then upper (cached on inet)."""
    x_lower, x_upper = (eq.x for _, eq in inet._extremes)
    if np.any(x_lower > x_upper + 1e-12):
        raise ValueError("extremal fixed points are not ordered; check r sign pattern")
    return x_lower, x_upper


def robust_invariant_set(inet: IntervalNetwork) -> Polyhedron:
    """Maximal healthy-invariant set under every admissible switching.

    Equals the maximal invariant set of the constant lower-extreme system,
    cached on inet. Requires that system to have a nonnegative fixed point.
    """
    return inet.lower_region


def last_hope_region(inet: IntervalNetwork) -> Polyhedron:
    """Maximal invariant set of the upper-extreme system, cached on inet.

    States outside it leave the healthy orthant under every admissible
    holding sequence. Requires that system to have a nonnegative fixed point.
    """
    return inet.upper_region


def last_hope_membership(inet: IntervalNetwork, x0) -> bool:
    """Whether x0 still lies in the last-hope region. ValueError for an x0 not of shape (n,),
    with non-finite entries or with negative ones."""
    x0 = _vector(x0, inet.n, "x0")
    if np.any(x0 < 0):
        raise ValueError("membership test expects a nonnegative state")
    return last_hope_region(inet).contains(x0)


# -- holding-sequence samplers ----------------------------------------------
# A sampler maps a block of steps t0..t1-1 to the stack C(t0), ..., C(t1 - 1) of the
# matrices used at those steps, of shape (t1 - t0, n, n). sandwich_bounds asks for the
# blocks in order, each of at most _DRAW_ENTRIES entries.

_DRAW_ENTRIES = 2 ** 16


def uniform_sampler(inet: IntervalNetwork, seed: int = 0) -> Callable[[int, int], np.ndarray]:
    """Independent uniform draw per entry per step; zero-width entries stay put.
    One rng.random per block, scaled to c_lower + (c_upper - c_lower) u as rng.uniform
    computes it: bitwise the stream of one rng.uniform(c_lower, c_upper) per step,
    however the steps are split into blocks.
    """
    rng = np.random.default_rng(seed)
    lo, width = inet.c_lower, inet.c_upper - inet.c_lower

    def draw(t0: int, t1: int) -> np.ndarray:
        cs = rng.random((t1 - t0,) + lo.shape)
        cs *= width
        cs += lo
        return cs
    return draw


@dataclass
class SandwichResult:
    """Trajectories of the sampled system and the two extreme systems."""

    sampled: np.ndarray        # (T+1, n)
    lower: np.ndarray
    upper: np.ndarray
    liminf_estimate: np.ndarray
    limsup_estimate: np.ndarray

    @property
    def T(self) -> int:
        return self.sampled.shape[0] - 1

    @property
    def ordered(self) -> bool:
        """Sampled trajectory between the two extremes, within 1e-9."""
        return bool(np.all(self.lower <= self.sampled + 1e-9)
                    and np.all(self.sampled <= self.upper + 1e-9))


def sandwich_bounds(inet: IntervalNetwork, x0, T: int,
                    sampler: Callable[[int, int], np.ndarray]) -> SandwichResult:
    """Simulate sampled and extreme trajectories from a common x0.

    x0 must lie in the robust invariant set, which keeps every admissible
    trajectory nonnegative and therefore ordered between the extremes.
    The sampler is asked once per block of steps, of at most _DRAW_ENTRIES
    matrix entries, for that block's stack of matrices. The three trajectories
    advance as one stacked product per step, each bitwise c @ x + r. Limit
    estimates are taken over the last 10 states. ValueError on a negative T, an x0 not of
    shape (n,) or with non-finite entries, or a sampler block not of shape (t1 - t0, n, n);
    NonFiniteTrajectoryError (a SolverError) on a non-finite state.
    """
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    x0 = _vector(x0, inet.n, "x0")
    region = robust_invariant_set(inet)
    if not region.contains(x0):
        raise ValueError("x0 is outside the robust invariant set; bounds would not apply")
    n, r = inet.n, np.tile(inet.r[:, None], (3, 1, 1))
    block = max(1, min(T, _DRAW_ENTRIES // (n * n)))
    cs = np.empty((block, 3, n, n))         # slot 0: the sampled C(t); 1, 2: the extremes
    cs[:, 1], cs[:, 2] = inet.c_lower, inet.c_upper
    xs = np.empty((T + 1, 3, n, 1))
    x = xs[0]
    x[:] = x0[:, None]
    for t0 in range(0, T, block):
        k = min(block, T - t0)
        if np.shape(c := sampler(t0, t0 + k)) != (k, n, n):
            raise ValueError(f"sampler returned shape {np.shape(c)} for steps "
                             f"{t0}..{t0 + k - 1}, expected {(k, n, n)}")
        cs[:k, 0] = c
        for c3, x_next in zip(cs[:k], xs[t0 + 1:t0 + k + 1]):
            x = np.matmul(c3, x, out=x_next)    # each slice's gemv is bitwise c @ x
            x += r
    if not np.isfinite(xs).all():
        t = int(np.argmin(np.isfinite(xs).all(axis=(1, 2, 3))))
        raise NonFiniteTrajectoryError(f"sampled trajectory is not finite from step {t}")
    sampled, lower, upper = xs[..., 0].transpose(1, 0, 2)
    win = sampled[-10:]
    return SandwichResult(sampled=sampled, lower=lower, upper=upper,
                          liminf_estimate=win.min(axis=0),
                          limsup_estimate=win.max(axis=0))


@dataclass
class RobustReport:
    """Extremal fixed points and the two nested invariant regions; with a start
    x0, also the sandwich from x0 and whether max(x0, 0) is in the last-hope region."""

    x_lower: np.ndarray
    x_upper: np.ndarray
    robust_region: Polyhedron
    last_hope: Polyhedron
    sandwich: SandwichResult | None = None
    last_hope_membership: bool | None = None


def robust_report(inet: IntervalNetwork, x0=None, T: int = 200, seed: int = 0) -> RobustReport:
    """The robust battery. ValueError when the extremal fixed points are not
    ordered or x0 lies outside the robust invariant set; NoPositiveEquilibriumError
    when an extreme system has no nonnegative fixed point."""
    x_lower, x_upper = extremal_fixed_points(inet)
    rep = RobustReport(x_lower=x_lower, x_upper=x_upper,
                       robust_region=robust_invariant_set(inet),
                       last_hope=last_hope_region(inet))
    if x0 is not None:
        rep.sandwich = sandwich_bounds(inet, x0, T, sampler=uniform_sampler(inet, seed=seed))
        rep.last_hope_membership = last_hope_membership(inet, np.maximum(x0, 0.0))
    return rep
