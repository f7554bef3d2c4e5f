"""Network model and switched dynamics.

A network of n organizations holds cross-equity C, external assets D
priced at p, failure costs beta and failure thresholds underbar_v. Equity
evolves as

    V(t+1) = C V(t) + D p - B phi(V(t) - underbar_v),

where phi flags components strictly below threshold and B = diag(beta).
The shifted coordinates x = V - underbar_v turn this into

    x(t+1) = C x(t) + r - B phi(x(t)),     r = (C - I) underbar_v + D p,

which is the form every analysis module works in. Orthant k is named by
its failure pattern phi = orthant_phi(k, n), the binary expansion of k;
its sign matrix J = diag(1 - 2 phi) makes it {x : J x >= 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class FinancialNetwork:
    """Static network data.

    C : (n, n) cross-holding fractions, zero diagonal, column sums < 1
    D : (n, m) nonnegative holdings of external assets
    p : (m,) nonnegative asset prices, at least one positive
    beta : (n,) positive failure costs
    threshold : (n,) failure thresholds (equity below this means failed)
    """

    C: np.ndarray
    D: np.ndarray
    p: np.ndarray
    beta: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        for name in ("C", "D", "p", "beta", "threshold"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @property
    def n(self) -> int:
        return self.C.shape[0]

    @property
    def r(self) -> np.ndarray:
        """Constant drift of the shifted dynamics: (C - I) threshold + D p."""
        return (self.C - np.eye(self.n)) @ self.threshold + self.D @ self.p

    @cached_property
    def _regions(self) -> dict:
        """intervene.drive_to_invariant's M+ and reallocation rows, each with the arrays it
        was built from; not a field."""
        return {}


def validate(net: FinancialNetwork) -> list[str]:
    """Check the standing assumptions on the network data; returns the violations.

    Violations are conditions the analysis relies on. A singular C is not
    one: no computation inverts C.
    """
    violations: list[str] = []
    bad = violations.append
    C, D, p, beta, thr = net.C, net.D, net.p, net.beta, net.threshold
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        bad(f"C must be square, got {C.shape}")
        return violations
    n = C.shape[0]
    if D.ndim != 2 or D.shape[0] != n:
        bad(f"D must have {n} rows, got {D.shape}")
        return violations
    m = D.shape[1]
    if p.shape != (m,):
        bad(f"p must have shape ({m},), got {p.shape}")
        return violations
    for name, v in (("beta", beta), ("threshold", thr)):
        if v.shape != (n,):
            bad(f"{name} must have shape ({n},), got {v.shape}")
            return violations
    for name, v in (("C", C), ("D", D), ("p", p), ("beta", beta), ("threshold", thr)):
        if not np.all(np.isfinite(v)):
            bad(f"{name} contains non-finite entries")

    if np.any(C < 0):
        bad("C has negative entries")
    if np.any(np.abs(np.diag(C)) > 0):
        bad("C has nonzero diagonal entries")
    colsums = C.sum(axis=0)
    if np.any(colsums >= 1.0):
        bad(f"C column sums must be < 1, max is {colsums.max():.6g}")
    if np.any(D < 0):
        bad("D has negative entries")
    if np.any(p < 0):
        bad("p has negative entries")
    if not np.any(p > 0):
        bad("p has no positive entry")
    if np.any(beta <= 0):
        bad("beta must be strictly positive")
    return violations


def positivity_holds(net: FinancialNetwork) -> bool:
    """True iff D p - beta >= 0, which keeps V(t) >= 0 from V(0) >= 0."""
    return bool(np.all(net.D @ net.p - net.beta >= 0))


def indicator(x) -> np.ndarray:
    """Componentwise failure indicator: 1.0 where x_i < 0, else 0.0.

    The boundary x_i = 0 counts as healthy. ValueError on a NaN entry.
    """
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("indicator of a state with NaN entries")
    return (x < 0).astype(float)


def orthant_phi(k: int, n: int) -> np.ndarray:
    """Failure pattern phi of orthant k of R^n, the binary expansion of k.

    The first component carries the most significant bit, so for n=2 the
    point (1, -1) lies in orthant k=1 with phi = (0, 1). Orthant k is
    {x : J x >= 0} for the sign matrix J = diag(1 - 2 phi).
    """
    if not 0 <= k < 2 ** n:
        raise ValueError(f"orthant index {k} out of range for n={n}")
    return np.array([(k >> (n - 1 - i)) & 1 for i in range(n)], dtype=float)


def orthant_of(x) -> int:
    """Index of the orthant containing x (boundaries count as healthy)."""
    return int(orthant_codes(np.atleast_2d(x))[0])


def orthant_codes(states) -> np.ndarray:
    """orthant_of for every row of a (rows, n) array: int64 codes for
    n <= 62, exact Python ints in an object array past that (int64 wraps).
    """
    failed = np.asarray(states) < 0
    n = failed.shape[1]
    if n <= 62:
        return failed @ (2 ** np.arange(n - 1, -1, -1, dtype=np.int64))
    packed = np.packbits(failed, axis=1)       # rows padded to whole bytes
    return np.fromiter((int.from_bytes(row.tobytes(), "big") >> (-n % 8) for row in packed),
                       dtype=object, count=len(packed))


@dataclass(frozen=True)
class ShiftedModel:
    """Dynamics in shifted coordinates: x(t+1) = C x(t) + r - B phi(x(t)).

    Built from a FinancialNetwork (r derived) or directly from parts for
    synthetic models, whose threshold is zero. threshold is kept so reports
    can translate back to equity levels V = x + threshold.
    """

    C: np.ndarray
    r: np.ndarray
    beta: np.ndarray
    threshold: np.ndarray

    def __post_init__(self):
        for name in ("C", "r", "beta", "threshold"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def from_network(cls, net: FinancialNetwork) -> "ShiftedModel":
        return cls(C=net.C, r=net.r, beta=net.beta, threshold=net.threshold)

    @classmethod
    def from_parts(cls, C, r, beta) -> "ShiftedModel":
        C = np.asarray(C, dtype=float)
        return cls(C=C, r=r, beta=beta, threshold=np.zeros(C.shape[0]))

    @property
    def n(self) -> int:
        return self.C.shape[0]

    def step(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.C @ x + self.r - self.beta * indicator(x)

    def affine_piece(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(C, r - B phi_k): the affine map active on orthant k."""
        return self.C, self.r - self.beta * orthant_phi(k, self.n)


@dataclass
class Trajectory:
    """States of a simulation run, indexed t = 0..T.

    repeat = (t0, t1) when states[t1] equals states[t0] bit for bit (t0 < t1,
    the first such t1): every later row is a copy, with period t1 - t0.
    """

    states: np.ndarray          # (T+1, n)
    repeat: tuple[int, int] | None = None

    @property
    def T(self) -> int:
        return self.states.shape[0] - 1

    def orthant_sequence(self) -> np.ndarray:
        return orthant_codes(self.states)


@np.errstate(over="ignore", invalid="ignore")
def simulate(model: ShiftedModel, x0, T: int) -> Trajectory:
    """Iterate the dynamics T steps from x0 of shape (n,) or (n, batch).

    Each step is bitwise model.step; a batch is stepped as one (n, batch)
    block. A step depends on the float64 state alone, so at the first
    repeat of a state's bit pattern (-0.0 and 0.0 differ) the rest of the
    trajectory is tiled from the cycle instead of computed, in place: the
    filled span from the repeat's first row is copied after itself, doubling
    each time, so no row index or gather temporary is built. A step that
    overflows gives inf or nan states without a numpy warning; classify_trajectory
    rejects them. ValueError on a negative T, a wrong shape or a non-finite x0.
    """
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    x = np.asarray(x0, dtype=float)
    if x.shape[:1] != (model.n,) or x.ndim > 2:
        raise ValueError(f"x0 must have shape ({model.n},) or ({model.n}, batch), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 contains non-finite entries")
    col = (model.n,) + (1,) * (x.ndim - 1)
    C, r, beta = model.C, model.r.reshape(col), model.beta.reshape(col)
    states = np.empty((T + 1,) + x.shape)
    states[0] = x
    seen = {hash(x.tobytes()): 0}       # bit pattern hash -> step index
    for t in range(1, T + 1):
        x, failed = C @ x, x < 0.0      # C x + r - beta phi, in place: same rounding
        x += r
        x -= beta * failed
        states[t] = x
        t0 = seen.setdefault(hash(x.tobytes()), t)
        if t0 < t and states[t0].tobytes() == x.tobytes():
            done = t                    # rows t0..done-1 hold whole periods; double them
            while done <= T:
                states[done:2 * done - t0] = states[t0:min(done, T + 1 + t0 - done)]
                done += done - t0
            return Trajectory(states=states, repeat=(t0, t))
    return Trajectory(states=states)
