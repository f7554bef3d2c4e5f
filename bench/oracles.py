"""Independent reference computations used by the output checks.

Nothing here calls into finnet: each oracle recomputes an answer from the
raw model data with numpy (or scipy's HiGHS solver for linear programs),
so a check compares finnet against code that shares none of its logic.
"""

from __future__ import annotations

import numpy as np

TAU_SEARCH_CAP = 10000


def scale_of(*arrays) -> float:
    """Magnitude used to turn absolute tolerances into relative ones."""
    return max([1.0] + [float(np.max(np.abs(a), initial=0.0)) for a in arrays])


def orthant_bits(k: int, n: int) -> np.ndarray:
    """phi of orthant k; the first component carries the most significant bit."""
    return np.array([(k >> (n - 1 - i)) & 1 for i in range(n)], dtype=float)


def step(C, r, beta, x) -> np.ndarray:
    return C @ x + r - beta * (x < 0)


def fixed_point_residual(C, r, beta, x) -> float:
    return float(np.max(np.abs(step(C, r, beta, x) - x)))


def equilibrium_census(C, r, beta) -> tuple[np.ndarray, np.ndarray]:
    """Brute force over all 2^n orthants with one dense solve.

    Returns the orthant indices of the consistent candidates and their
    states, in increasing k.
    """
    n = C.shape[0]
    ks = np.arange(2 ** n)
    phi = ((ks[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    X = np.linalg.solve(np.eye(n) - C, r[:, None] - beta[:, None] * phi.T).T
    consistent = np.all((X < 0) == (phi > 0), axis=1)
    return ks[consistent], X[consistent]


def truncation_index(C, x_eq, k_is_healthy: bool) -> int | None:
    """Smallest tau >= 1 with C^tau (-x_eq) + x_eq signed like the orthant."""
    P = C.copy()
    for tau in range(1, TAU_SEARCH_CAP + 1):
        test = P @ (-x_eq) + x_eq
        if (k_is_healthy and np.all(test >= 0)) or (not k_is_healthy and np.all(test <= 0)):
            return tau
        P = P @ C
    return None


def region_rows(C, x_eq, k: int, tau: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows J C^t x >= J (C^t - I) x_eq for t = 0..tau, stacked by power."""
    n = C.shape[0]
    J = np.diag(1.0 - 2.0 * orthant_bits(k, n))
    A, b = [], []
    P = np.eye(n)
    for _ in range(tau + 1):
        A.append(J @ P)
        b.append(J @ ((P - np.eye(n)) @ x_eq))
        P = P @ C
    return np.vstack(A), np.concatenate(b)


def simulate(C, r, beta, x0, T: int) -> np.ndarray:
    states = np.empty((T + 1, len(x0)))
    x = np.asarray(x0, dtype=float)
    states[0] = x
    for t in range(T):
        x = step(C, r, beta, x)
        states[t + 1] = x
    return states


def orthant_codes(states: np.ndarray) -> list[int]:
    """Orthant index per state as exact Python integers (any n)."""
    out = []
    for row in states < 0:
        k = 0
        for bit in row:
            k = (k << 1) | int(bit)
        out.append(k)
    return out


def lp_min(c, A, b) -> float:
    """min c.z subject to A z >= b, z free, by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(c, A_ub=-np.asarray(A), b_ub=-np.asarray(b),
                  bounds=[(None, None)] * len(c), method="highs")
    if res.status == 3:
        return -np.inf
    if res.status != 0:
        raise RuntimeError(f"oracle LP did not solve: {res.message}")
    return float(res.fun)


def rows_implied(A_keep, b_keep, A_rows, b_rows, tol: float) -> list[int]:
    """Indices of the rows (A_rows, b_rows) NOT implied by A_keep z >= b_keep."""
    bad = []
    for i, (a, rhs) in enumerate(zip(A_rows, b_rows)):
        if lp_min(a, A_keep, b_keep) < rhs - tol:
            bad.append(i)
    return bad
