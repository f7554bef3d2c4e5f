"""Equilibrium enumeration for the switched dynamics.

On orthant k the dynamics are affine, so the only equilibrium candidate is
x_k = (I - C)^-1 (r - B phi_k) = w - M phi_k, an actual equilibrium iff it
lies in the orthant that generated it (consistency). C is Schur by the
column-sum condition, so every consistent candidate is locally stable (the
error dynamics in the orthant are y(t+1) = C y(t)), and C >= 0 makes
M = sum_t C^t B >= 0: x(phi) falls monotonically as failure bits are set, the
structure behind Eisenberg and Noe's fictitious-default algorithm, and the
enumeration prunes on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import OrthantIndex, ShiftedModel, indicator
from .numerics import SingularMatrixError, solve_linear

ENUMERATION_LIMIT = 24      # 2**n candidates; refuse past this
INTERIOR_TOL = 1e-9         # entries closer to zero than this are boundary


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


def _record(model: ShiftedModel, k: int, x: np.ndarray, phi: np.ndarray) -> EquilibriumRecord:
    return EquilibriumRecord(k=k, x=x, v=x + model.threshold,
                             consistent=bool(np.array_equal(indicator(x), phi)),
                             interior=bool(np.min(np.abs(x)) > INTERIOR_TOL))


def candidate_equilibrium(model: ShiftedModel, k: int) -> EquilibriumRecord:
    """Solve the affine fixed-point equation of orthant k and classify it.
    Raises ValueError on non-finite data."""
    _require_finite(model)
    phi = OrthantIndex(k, model.n).phi
    x = solve_linear(np.eye(model.n) - model.C, model.r - model.beta * phi)
    return _record(model, k, x, phi)


def enumerate_equilibria(model: ShiftedModel) -> list[EquilibriumRecord]:
    """Every consistent orthant candidate, in increasing k, by branch and bound.

    Failure bits are fixed depth first, component 0 (the top bit of k)
    first. With bits 0..d-1 fixed and x = w - M phi, every completion lies
    in [x - tail_d, x] (tail_d sums the columns of M from d on), so a node
    is pruned when a fixed healthy bit has x_i < -tol or a fixed failed bit
    has (x - tail_d)_i >= tol; tol = INTERIOR_TOL * data scale >> rounding.
    A leaf is kept iff indicator(x) == phi. Raises ValueError on non-finite
    data or when M has an entry below -tol (the bounds would not hold)."""
    n = model.n
    if n > ENUMERATION_LIMIT:
        raise DimensionTooLargeError(f"n={n} exceeds enumeration guard {ENUMERATION_LIMIT}")
    _require_finite(model)
    WM = solve_linear(np.eye(n) - model.C, np.column_stack([model.r, np.diag(model.beta)]))
    w, M = WM[:, 0], WM[:, 1:]
    tol = INTERIOR_TOL * max(1.0, float(np.max(np.abs(WM))))
    if np.min(M) < -tol:
        raise ValueError("(I - C)^-1 B has a negative entry; the enumeration needs it nonnegative")
    tail = np.hstack([np.cumsum(M[:, ::-1], axis=1)[:, ::-1], np.zeros((n, 1))])
    E, out = np.eye(n), []
    stack = [(0, 0, w, np.zeros(n))]        # (fixed bits d, prefix of k, x, phi)
    while stack:
        d, k, x, phi = stack.pop()
        if np.any(np.where(phi[:d] > 0, x[:d] - tail[:d, d] >= tol, x[:d] < -tol)):
            continue
        if d < n:
            stack.append((d + 1, 2 * k + 1, x - M[:, d], phi + E[d]))
            stack.append((d + 1, 2 * k, x, phi))    # healthy child pops first: k ascends
        elif (rec := _record(model, k, x, phi)).consistent:
            out.append(rec)
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
