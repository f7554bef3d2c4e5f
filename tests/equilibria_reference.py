"""The node-at-a-time branch and bound over orthants, kept as a test reference.

`reference_enumerate` pops one node per iteration from a depth-first stack,
as `enumerate_equilibria` once did: the same prune on fixed bits, the same
child order (healthy before failed, so k ascends) and the same arithmetic
(each child computes x - M[:, d] from its parent). The library now expands a
block of sibling nodes per iteration; tests require its records to equal
this reference's bitwise.
"""

from __future__ import annotations

import numpy as np

from finnet.equilibria import INTERIOR_TOL, EquilibriumRecord
from finnet.netmodel import ShiftedModel, indicator
from finnet.numerics import solve_linear


def reference_enumerate(model: ShiftedModel) -> list[EquilibriumRecord]:
    """Every consistent orthant candidate, in increasing k, one node at a time."""
    n = model.n
    WM = solve_linear(np.eye(n) - model.C, np.column_stack([model.r, np.diag(model.beta)]))
    w, M = WM[:, 0], WM[:, 1:]
    tol = INTERIOR_TOL * max(1.0, float(np.max(np.abs(WM))))
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
        elif np.array_equal(indicator(x), phi):
            out.append(EquilibriumRecord(k=k, x=x, v=x + model.threshold, consistent=True,
                                         interior=bool(np.min(np.abs(x)) > INTERIOR_TOL)))
    return out
