"""Invariant orthants and regions of attraction.

All regions live in shifted coordinates x = V - threshold and are stored
as raw stacked halfspaces {x : A x >= b}. Two facts drive the module:

* orthant k is invariant iff J_k C J_k >= 0 and J_k (r - B phi_k) >= 0, strictly on failed rows;
* inside orthant k the error dynamics are linear, so the set of states
  whose whole forward orbit stays in the orthant is the intersection of
  the rows J_k C^t x >= J_k (C^t - I) x_k over t = 0, 1, 2, ...

Every region here stacks blocks of those rows from one generator,
`_orthant_rows`, over the powers of C from `_powers`. For the two
monotone orthants (k = 0 and k = 2^n - 1) the intersection is finitely
determined: once C^tau maps the threshold gap past the equilibrium,
every later row is implied. The truncation index tau is the smallest
power at which that happens; its search reads the powers alone, up to a
bound proved from the data, and flags an index that rounding would decide.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .equilibria import INTERIOR_TOL, EquilibriumRecord, candidate_equilibrium
from .netmodel import ShiftedModel, orthant_phi
from .numerics import (LinearProgram, OPT_TOL, SolverError, UnboundedError, _anchored,
                       _FeasibleBasis, _frozen, _phase1, _vertex, lp_solve)

_TAU_CAP = 64   # horizons stable_region tries before NotDeterminedError


class NotDeterminedError(SolverError, RuntimeError):
    """No certified truncation index (see _truncation_index) or stable_region horizon."""


class NoPositiveEquilibriumError(SolverError, ValueError):
    """The candidate equilibrium of orthant 0 or 2^n - 1 lies outside that orthant."""


@dataclass(frozen=True)
class Polyhedron:
    """Halfspace intersection {x : A x >= b} with row provenance.

    row_power[i] records which matrix power generated row i (t = 0 rows
    are the orthant itself). certified marks regions whose rows beyond
    the stored horizon are provably redundant. The arrays are read-only.
    """

    A: np.ndarray
    b: np.ndarray
    row_power: np.ndarray
    certified: bool = False
    note: str = ""

    def __post_init__(self):
        for name, dtype in (("A", float), ("b", float), ("row_power", int)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def margins(self, x) -> np.ndarray:
        """A x - b; nonnegative entries mean the row is satisfied."""
        return self.A @ np.asarray(x, dtype=float) - self.b

    def contains(self, x) -> bool:
        """Every row holds to 1e-9; compare margins(x) for any other tolerance."""
        return bool(np.all(self.margins(x) >= -1e-9))

    @cached_property
    def _injection_lps(self) -> dict:
        """minimal_injection's _DualStart per nonnegative flag, built on first use from the
        read-only A; not a field."""
        return {}


def orthant0_invariant(model: ShiftedModel) -> bool:
    """Healthy orthant invariant iff the drift r is nonnegative."""
    return bool(np.all(model.r >= 0))


def last_orthant_invariant(model: ShiftedModel) -> bool:
    """All-failed orthant invariant iff r < beta. r_i = beta_i reads False, though with row i of
    C nonzero it is invariant exactly: the float step can round x'_i to 0 there."""
    return bool(np.all(model.r < model.beta))


@dataclass(frozen=True)
class IntermediateVerdict:
    """Orthant k by the criterion J C J >= 0 and J c >= 0, strictly on failed rows: 'invariant'
    ('criterion'), 'not_invariant' ('link' if J C J has a negative entry, else 'drift') or
    'unknown' ('boundary'). witness: a state of orthant k whose step leaves it, or None."""

    k: int
    status: str
    reason: str
    witness: np.ndarray | None = None


def intermediate_not_invariant(model: ShiftedModel, k: int) -> IntermediateVerdict:
    """Is orthant k invariant? x = J u (u >= 0, u_i > 0 failed) steps to J x' = (J C J) u + J c,
    so k is invariant iff J C J >= 0 and J c >= 0, strictly on failed rows (J = diag(1 - 2 phi_k),
    c = r - B phi_k). A failed row at c_i = 0 that is nonzero on a failed column keeps x'_i < 0,
    but the float step can round it to 0: 'unknown'. A witness starts from -1 failed, +0 healthy
    and moves the coordinate of a violated row's most negative J C J entry past the rest of the
    row, or, where the row has none and its failed in-neighbours outweigh the drift d_i < 0,
    shrinks the failed coordinates until they no longer do."""
    if k in (0, 2 ** model.n - 1):
        raise ValueError("intermediate orthant required, got k=%d" % k)
    phi = orthant_phi(k, model.n)
    sign, failed = 1.0 - 2.0 * phi, phi == 1.0          # J = diag(sign)
    M, d = sign[:, None] * model.C * sign, sign * (model.r - model.beta * phi)   # J C J, J c
    linked = ~(M >= 0).all(axis=1)
    bad = linked | ~(d >= 0) | failed & (d == 0) & ~(M @ phi > 0)   # M @ phi: failed columns
    if not bad.any():
        return IntermediateVerdict(k, *(("unknown", "boundary") if (failed & (d == 0)).any()
                                        else ("invariant", "criterion")))
    reason = "link" if linked.any() else "drift"
    with np.errstate(all="ignore"):
        for i in np.flatnonzero(bad):
            u, j = phi.copy(), int(M[i].argmin())
            if M[i, j] < 0:
                u[j] += 1.0 + max(0.0, 2.0 * (M[i] @ u + d[i]) / -M[i, j])
            elif d[i] < 0 <= M[i] @ u + d[i]:
                u *= -0.5 * d[i] / (M[i] @ u)           # the row then steps to d_i / 2 < 0
            y = model.step(x := sign * u)
            if (np.isfinite([x, y]).all() and ((x < 0) == failed).all()   # x in orthant k
                    and ((y < 0) != failed).any()):
                return IntermediateVerdict(k, "not_invariant", reason, x)
    return IntermediateVerdict(k, "not_invariant", reason)


def _powers(C: np.ndarray):
    """Yield C^t for t = 0, 1, 2, ..."""
    P = np.eye(C.shape[0])
    while True:
        yield P
        P = P @ C


def _orthant_rows(model: ShiftedModel, eq: EquilibriumRecord):
    """Generator of (J C^t, J (C^t - I) x_k) for t = 0, 1, 2, ..., J the sign matrix of eq.k."""
    J, eye = np.diag(1.0 - 2.0 * orthant_phi(eq.k, model.n)), np.eye(model.n)
    return ((J @ P, J @ ((P - eye) @ eq.x)) for P in _powers(model.C))


def region_of_attraction(model: ShiftedModel, eq: EquilibriumRecord, tau: int) -> Polyhedron:
    """Stack rows J_k C^t x >= J_k (C^t - I) x_k for t = 0..tau.

    States satisfying every row stay in orthant k forever and converge to
    the equilibrium. For intermediate orthants a finite tau is only an
    outer truncation, so the region is not certified.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    A, b = zip(*islice(_orthant_rows(model, eq), tau + 1))
    return Polyhedron(A=np.vstack(A), b=np.concatenate(b),
                      row_power=np.repeat(np.arange(tau + 1), model.n),
                      note=f"orthant {eq.k} truncated at tau={tau}")


def finite_determination_index(model: ShiftedModel, k: int) -> int:
    """Smallest tau >= 1 with C^tau (-x_k) + x_k signed like orthant k.

    Only the healthy (k=0) and all-failed (k=2^n-1) orthants admit this
    finite test. tau = 1 recovers the two closed-form invariance tests.
    The candidate x_k must lie in orthant k (NoPositiveEquilibriumError).
    """
    return _truncation_index(model, candidate_equilibrium(model, k))


def _truncation_index(model: ShiftedModel, eq: EquilibriumRecord) -> int:
    """finite_determination_index of orthant eq.k from its candidate equilibrium eq.

    With y = |x_k| the test reads C^t y <= y. Let rho be the largest column sum of |C|
    (below 1 for every validated network). Then |C^t y| <= |C|^t y <= rho^t |y|_1
    entrywise, at most min y once t >= log(min y / |y|_1) / log rho: tau is at most that
    bound (1 when C = 0). NotDeterminedError when eq is not interior (rounding would
    decide), when rho >= 1, when min y / |y|_1 is not finite and positive (y overflowed),
    or when the search reaches the bound, which only rounding can.
    """
    k, y = eq.k, np.abs(eq.x)
    if k not in (0, 2 ** model.n - 1):
        raise ValueError("finite determination applies to k=0 or k=2^n-1 only")
    if not eq.consistent:
        raise NoPositiveEquilibriumError(f"orthant {k} has no consistent equilibrium")
    if not eq.interior:
        raise NotDeterminedError(f"orthant {k} equilibrium lies on the boundary (min |x_i| = "
                                 f"{y.min():.3e} <= {INTERIOR_TOL:g}): rounding would decide")
    rho = float(np.abs(model.C).sum(axis=0).max())
    if rho >= 1.0:
        raise NotDeterminedError(f"largest column sum of |C| is {rho:.6g} >= 1: "
                                 f"no truncation bound for orthant {k}")
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = y.min() / y.sum()
    if not (np.isfinite(ratio) and ratio > 0):
        raise NotDeterminedError(f"orthant {k} equilibrium has min |x_i| / |x|_1 = {ratio:.6g}: "
                                 f"no truncation bound")
    bound = max(1, int(np.ceil(np.log(ratio) / np.log(rho)))) if rho > 0 else 1
    sign = 1.0 if k == 0 else -1.0
    for tau, P in zip(range(1, bound + 1), islice(_powers(model.C), 1, None)):
        if np.all(sign * (P @ -eq.x + eq.x) >= 0):
            return tau
    raise NotDeterminedError(f"no truncation index up to its proved bound {bound} "
                             f"for orthant {k}: rounding decided")


def maximal_invariant_region(model: ShiftedModel, k: int) -> Polyhedron:
    """Largest forward-invariant subset of orthant k (k = 0 or 2^n - 1).

    Raises NoPositiveEquilibriumError when orthant k's candidate lies outside orthant k,
    NotDeterminedError as _truncation_index does.
    """
    return _region_from(model, candidate_equilibrium(model, k))


def _region_from(model: ShiftedModel, eq: EquilibriumRecord) -> Polyhedron:
    """maximal_invariant_region of orthant eq.k from its candidate equilibrium eq."""
    return replace(region_of_attraction(model, eq, _truncation_index(model, eq)), certified=True)


# ---------------------------------------------------------------------------
# LP-backed redundancy checks, used by the prune, stable_region and
# polyhedra_equivalent.
# ---------------------------------------------------------------------------

def _implied(start: _FeasibleBasis, a: np.ndarray, rhs: float) -> _FeasibleBasis | None:
    """row_redundant over the polyhedron whose feasible basis is start: min a.x's optimal basis
    (a start for the next row's LP) if the row is implied, else None."""
    try:
        z, end = _vertex(start, a)
    except UnboundedError:
        return None
    return end if float(a @ z) >= rhs - OPT_TOL else None


def row_redundant(poly: Polyhedron, a, rhs: float) -> bool:
    """True if a.x >= rhs - OPT_TOL holds everywhere on poly; ValueError on non-finite data."""
    lp = LinearProgram(c=a, A=poly.A, b=poly.b)
    return _implied(_phase1(lp.A, lp.b), lp.c, rhs) is not None


def prune_redundant(poly: Polyhedron) -> Polyhedron:
    """Drop rows implied by the others to OPT_TOL, in one pass over the rows.

    Row i is tested against every row still kept. A row kept was not implied by a superset
    of the rows finally kept, and P(S') contains P(S) when S' is a subset of S, so a second
    pass could drop nothing. The LPs run on rows scaled to unit length, as the simplex's
    tolerances are absolute. One LP finds x0 in poly, the Chebyshev centre with radius t
    capped at 1 (finite on unbounded polys), and each row's LP starts from the slack basis
    at x0. Raises InfeasibleError on an empty poly, ValueError on non-finite A or b.

    Two certificates settle most rows without their LP; the others run it over the same
    kept rows, so the kept set is the LP's wherever the LP is exact to OPT_TOL.
    * Sign (drop): b_i <= 0, and each coordinate c with a_c != 0 has another kept signed
      unit row s x_c >= 0 (one nonzero, b = 0) with s a_c > 0. Then a.x >= 0 >= b_i on
      P(others), so the LP finds row i implied.
    * Ray (keep), when t > 0: the ray x0 - s a_i leaves row i at s = slack_i and row j at
      slack_j / (a_j.a_i) when a_j.a_i > 0. If every other kept row is left later by more
      than OPT_TOL, the point on the ray where the first of them is left lies in P(others)
      and violates row i by more than OPT_TOL, so the LP keeps row i.
    """
    m, n = poly.A.shape
    norm = np.linalg.norm(poly.A, axis=1)
    unit = np.where((norm > 0.0) & (norm < np.inf), norm, 1.0)
    A, b = poly.A / unit[:, None], poly.b / unit
    t = np.eye(1, n + 1, n)
    cheb = np.vstack([np.column_stack([A, -np.sign(norm)]), t, -t])
    z = lp_solve(LinearProgram(c=-t[0], A=cheb, b=np.append(b, [0.0, -1.0]))).z
    x0, slack = z[:n], A @ z[:n] - b
    signed = np.hstack([A > 0, A < 0])                 # row i's signed coordinates s x_c
    lone = (signed.sum(axis=1) == 1) & (b == 0)        # the signed unit rows s x_c >= 0
    cover = signed[lone].sum(axis=0)                   # kept signed unit rows per s x_c
    keep = list(range(m))
    for idx in range(m):
        others = [i for i in keep if i != idx]
        if not others:
            continue
        cos = A[others] @ A[idx]                       # the ray meets row j where cos_j > 0
        if z[n] > 0 and norm[idx] > 0 and np.min(slack[others][cos > 0] / cos[cos > 0],
                                                 initial=np.inf) - slack[idx] > OPT_TOL:
            continue
        cover_others = cover - (signed[idx] & lone[idx])
        if (b[idx] <= 0 and cover_others[signed[idx]].all()
                or _implied(_anchored(A[others], b[others], x0), A[idx], float(b[idx]))):
            keep.remove(idx)
            cover = cover_others
    return Polyhedron(A=poly.A[keep], b=poly.b[keep],
                      row_power=poly.row_power[keep],
                      certified=poly.certified, note=poly.note + " (pruned)")


def polyhedra_equivalent(p: Polyhedron, q: Polyhedron) -> bool:
    """Set equality via mutual row redundancy to OPT_TOL (one phase 1 per side)."""
    if not all(np.isfinite(v).all() for poly in (p, q) for v in (poly.A, poly.b)):
        raise ValueError("polyhedron data has non-finite entries")
    for src, dst in ((p, q), (q, p)):
        if dst.n_rows == 0:
            continue
        start = _phase1(src.A, src.b)
        if not all(_implied(start, dst.A[i], float(dst.b[i])) for i in range(dst.n_rows)):
            return False
    return True


def stable_region(model: ShiftedModel, eq: EquilibriumRecord) -> tuple[Polyhedron, int]:
    """Grow the truncation horizon until one extra block adds nothing.

    Intended for intermediate orthants, where no closed-form truncation
    index exists. Returns the region and the horizon at which membership
    stabilized. The stop is the finite-determination test of Gilbert and Tan (1991, IEEE
    TAC 36(9)) for a time-invariant constraint: once block tau + 1 is implied by blocks
    0..tau, so is every later block, hence certified=True. Raises NotDeterminedError if
    it has not stabilized within _TAU_CAP horizons. A horizon's first LP starts from the
    slack basis at eq.x, where each row has margin (J x_k)_i >= 0, and each later one from
    the optimal basis of the one before, a vertex of the same rows.
    """
    rows = _orthant_rows(model, eq)
    A, b = next(rows)
    for tau, (A_new, b_new) in zip(range(1, _TAU_CAP + 1), rows):
        start = _anchored(A, b, eq.x)
        for a, rhs in zip(A_new, b_new.tolist()):
            if (start := _implied(start, a, rhs)) is None:
                break
        else:
            return Polyhedron(A=A, b=b, row_power=np.repeat(np.arange(tau), model.n),
                              certified=True,
                              note=f"orthant {eq.k} stabilized at tau={tau - 1}"), tau - 1
        A, b = np.vstack([A, A_new]), np.concatenate([b, b_new])
    raise NotDeterminedError(f"membership did not stabilize within {_TAU_CAP} horizons")


@dataclass
class InvarianceReport:
    """Orthant-level invariance answers for one model.

    regions maps 'healthy' and 'failed' to the maximal invariant region of
    orthant 0 or 2^n - 1, or to the reason it could not be built.
    intermediates holds one verdict per intermediate orthant when n <= 4.
    """

    healthy_orthant_invariant: bool
    failed_orthant_invariant: bool
    regions: dict[str, Polyhedron | str]
    intermediates: list[IntermediateVerdict]


def invariance_report(model: ShiftedModel) -> InvarianceReport:
    """Run the standard battery: closed-form tests, regions, verdicts."""
    last = 2 ** model.n - 1
    regions: dict[str, Polyhedron | str] = {}
    for label, k in (("healthy", 0), ("failed", last)):
        try:
            regions[label] = maximal_invariant_region(model, k)
        except (ValueError, NotDeterminedError) as e:
            regions[label] = str(e)
    return InvarianceReport(
        healthy_orthant_invariant=orthant0_invariant(model),
        failed_orthant_invariant=last_orthant_invariant(model),
        regions=regions,
        intermediates=[intermediate_not_invariant(model, k)
                       for k in (range(1, last) if model.n <= 4 else ())])
