"""Equilibrium enumeration for the switched dynamics.

On orthant k the dynamics are affine, so the only equilibrium candidate is
x_k = (I - C)^-1 (r - B phi_k) = w - M phi_k, an actual equilibrium iff it
lies in the orthant that generated it (consistency). C is Schur by the
column-sum condition, so every consistent candidate is locally stable (the
error dynamics in the orthant are y(t+1) = C y(t)), and C >= 0 makes
M = sum_t C^t B >= 0: x(phi) falls monotonically as failure bits are set, the
structure behind Eisenberg and Noe's fictitious-default algorithm, and the
enumeration prunes on it, one array pass per block of sibling nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import OrthantIndex, ShiftedModel, orthant_codes, orthant_of
from .numerics import SingularMatrixError, solve_linear

ENUMERATION_LIMIT = 24      # 2**n candidates; refuse past this
INTERIOR_TOL = 1e-9         # entries closer to zero than this are boundary
_BLOCK_ROWS = 1024          # nodes per stack entry; bounds memory, census levels fit in one


class DimensionTooLargeError(ValueError):
    """Raised when 2**n enumeration would be astronomically large."""


@dataclass(frozen=True)
class EquilibriumRecord:
    """Candidate equilibrium of one orthant.

    consistent: candidate lies in its generating orthant (true equilibrium)
    interior:   no component within INTERIOR_TOL of zero; boundary cases
                are flagged rather than classified either way
    """

    k: int
    x: np.ndarray
    v: np.ndarray              # equity levels, x + threshold
    consistent: bool
    interior: bool

    @property
    def phi(self) -> np.ndarray:
        return OrthantIndex(self.k, self.x.shape[0]).phi


def _require_finite(model: ShiftedModel) -> None:
    if not all(np.all(np.isfinite(a)) for a in (model.C, model.r, model.beta)):
        raise ValueError("model data C, r or beta contains non-finite entries")


def candidate_equilibrium(model: ShiftedModel, k: int) -> EquilibriumRecord:
    """Solve the affine fixed-point equation of orthant k and classify it.
    Raises ValueError on non-finite data."""
    _require_finite(model)
    phi = OrthantIndex(k, model.n).phi
    x = solve_linear(np.eye(model.n) - model.C, model.r - model.beta * phi)
    return EquilibriumRecord(k=k, x=x, v=x + model.threshold, consistent=orthant_of(x) == k,
                             interior=bool(np.min(np.abs(x)) > INTERIOR_TOL))


def enumerate_equilibria(model: ShiftedModel) -> list[EquilibriumRecord]:
    """Every consistent orthant candidate, in increasing k, by branch and bound.

    Failure bits are fixed depth first, component 0 (the top bit of k)
    first. With bits 0..d-1 fixed and x = w - M phi, every completion lies
    in [x - tail_d, x] (tail_d sums the columns of M from d on), so a node
    is pruned when a fixed healthy bit has x_i < -tol or a fixed failed bit
    has (x - tail_d)_i >= tol; tol = INTERIOR_TOL * data scale >> rounding.
    A leaf is kept iff indicator(x) == phi. Raises ValueError on non-finite
    data or when M has an entry below -tol (the bounds would not hold)."""
    if (n := model.n) > ENUMERATION_LIMIT:
        raise DimensionTooLargeError(f"n={n} exceeds enumeration guard {ENUMERATION_LIMIT}")
    _require_finite(model)
    WM = solve_linear(np.eye(n) - model.C, np.column_stack([model.r, np.diag(model.beta)]))
    w, M = WM[:, 0], WM[:, 1:]
    tol = INTERIOR_TOL * max(1.0, float(np.max(np.abs(WM))))
    if np.min(M) < -tol:
        raise ValueError("(I - C)^-1 B has a negative entry; the enumeration needs it nonnegative")
    tail = np.hstack([np.cumsum(M[:, ::-1], axis=1)[:, ::-1], np.zeros((n, 1))])
    out, stack = [], [(0, w[None, :], np.zeros((1, n), dtype=bool))]    # (depth, x rows, bits)
    while stack:
        d, X, F = stack.pop()
        X, F = X.repeat(2, axis=0), F.repeat(2, axis=0)
        X[1::2] -= M[:, d]                  # healthy then failed child: k ascends
        F[1::2, d] = True
        t = tol if d + 1 < n else 0.0       # at a leaf tail is 0: t = 0 keeps indicator(x) == phi
        live = ~np.where(F, X - tail[:, d + 1] >= t, X < -t)[:, :d + 1].any(axis=1)
        X, F = X[live], F[live]
        if d + 1 < n:
            stack.extend((d + 1, X[i:i + _BLOCK_ROWS], F[i:i + _BLOCK_ROWS])
                         for i in reversed(range(0, len(X), _BLOCK_ROWS)))
            continue
        out += [EquilibriumRecord(k=k, x=x, v=x + model.threshold, consistent=True,
                                  interior=bool(np.min(np.abs(x)) > INTERIOR_TOL))
                for k, x in zip(orthant_codes(X).tolist(), X)]
    return out


@dataclass(frozen=True)
class ExistenceReport:
    """Sign tests on (I-C)^-1 r and (I-C)^-1 (r - beta).

    positive_exists:      healthy equilibrium x >= 0 exists (w_plus >= 0)
    positive_unique:      it is the only equilibrium (w_minus >= 0)
    negative_exists:      all-failed equilibrium x < 0 exists (w_minus < 0)
    negative_unique:      it is the only equilibrium (w_plus < 0)
    """

    positive_exists: bool
    positive_unique: bool
    negative_exists: bool
    negative_unique: bool
    w_plus: np.ndarray          # (I-C)^-1 r, healthy-orthant candidate
    w_minus: np.ndarray         # (I-C)^-1 (r - beta), failed-orthant candidate


def existence_conditions(model: ShiftedModel) -> ExistenceReport:
    """Evaluate the four existence/uniqueness sign conditions. Raises ValueError
    on non-finite data and SingularMatrixError when a uniqueness flag holds
    without its existence flag, which (I - C)^-1 >= 0 rules out."""
    _require_finite(model)
    w_plus, w_minus = solve_linear(np.eye(model.n) - model.C,
                                   np.column_stack([model.r, model.r - model.beta])).T
    rep = ExistenceReport(
        positive_exists=bool(np.all(w_plus >= 0)),
        positive_unique=bool(np.all(w_minus >= 0)),
        negative_exists=bool(np.all(w_minus < 0)),
        negative_unique=bool(np.all(w_plus < 0)),
        w_plus=w_plus, w_minus=w_minus,
    )
    if (rep.positive_unique and not rep.positive_exists) or \
            (rep.negative_unique and not rep.negative_exists):
        raise SingularMatrixError("existence sign tests contradict each other: "
                                  "(I - C)^-1 is not numerically nonnegative")
    return rep
