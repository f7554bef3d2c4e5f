"""Bundled reference networks and regression targets.

Three small networks exercise every analysis path and anchor the
regression values used by the `fixtures` CLI command and the acceptance
tests: a symmetric two-bank pair, a four-organization directed ring with
a known period-8 orbit, and a ten-organization complete graph used for
intervention runs. Also hosts the random generators the test-suite sweeps
rely on.
"""

from __future__ import annotations

import numpy as np

from .netmodel import FinancialNetwork, ShiftedModel
from .numerics import solve_linear


def two_bank() -> FinancialNetwork:
    """Two banks holding half of each other, identical asset books."""
    return FinancialNetwork(
        C=[[0.0, 0.5], [0.5, 0.0]],
        D=[[0.5, 0.25], [0.25, 0.5]],
        p=[4.0, 4.0],
        beta=[1.0, 1.0],
        threshold=[5.0, 5.0],
    )


def ring4() -> FinancialNetwork:
    """Directed 4-ring: each organization holds 80 percent of its neighbor.

    In shifted coordinates the dynamics reduce to
    x(t+1) = C x(t) + 1 - 2 phi(x(t)); the system has eight equilibria and
    a period-8 orbit (see RING4_ORBIT).
    """
    C = np.zeros((4, 4))
    for i in range(4):
        C[i, (i - 1) % 4] = 0.8
    return FinancialNetwork(
        C=C,
        D=0.5 * np.eye(4),
        p=[5.0, 5.0, 5.0, 5.0],
        beta=[2.0, 2.0, 2.0, 2.0],
        threshold=[7.5, 7.5, 7.5, 7.5],
    )


# Equilibrium coordinates of the ring network, to 4 decimals:
# +-(RING4_ALPHA, RING4_GAMMA, -RING4_ALPHA, -RING4_GAMMA),
# +-RING4_DELTA * (1, -1, 1, -1), +-(RING4_GAMMA, -RING4_ALPHA,
# -RING4_GAMMA, RING4_ALPHA), and +-5 * ones.
RING4_ALPHA = 0.1220
RING4_GAMMA = 1.0976
RING4_DELTA = 0.5556

# One full period of the known period-8 orbit, rows are x(0)..x(7).
RING4_ORBIT = np.array([
    [0.6754, -1.3678, -0.6754, 1.3678],
    [2.0942, -0.4597, -2.0942, 0.4597],
    [1.3678, 0.6754, -1.3678, -0.6754],
    [0.4597, 2.0942, -0.4597, -2.0942],
    [-0.6754, 1.3678, 0.6754, -1.3678],
    [-2.0942, 0.4597, 2.0942, -0.4597],
    [-1.3678, -0.6754, 1.3678, 0.6754],
    [-0.4597, -2.0942, 0.4597, 2.0942],
])


def complete10() -> FinancialNetwork:
    """Ten organizations, uniform complete-graph cross-holdings 1/12.

    The asset book concentrates income on organizations 8 and 10
    (1-based); the other eight run a small structural deficit (drift
    -0.075), which carves a nontrivial maximal invariant region out of the
    healthy orthant. Organizations 8 and 10 are interchangeable, so the
    minimal injection is not unique: every v that leaves y = x + v with
    y_8 + y_10 = 0.9, y_8, y_10 >= 0 and zero elsewhere is optimal, and a
    vertex LP solver returns one end of that segment.
    """
    n = 10
    C = (np.ones((n, n)) - np.eye(n)) / (n + 2)
    income = np.full(n, 0.05)
    income[7] = income[9] = 1.0
    return FinancialNetwork(
        C=C,
        D=np.diag(income),
        p=np.ones(n),
        beta=np.full(n, 0.4),
        threshold=np.full(n, 0.5),
    )


# Reference distressed state and injection pattern for the ten-organization
# network: the injection flips the sign of eight components exactly and
# puts its surplus on components 8 and 10. The sample comes from a network
# that is not bundled: here x + SAMPLE_INJECTION10 lies in M+ but totals
# 9.78, while the minimal injection totals 0.9.
SAMPLE_STATE10 = np.array([
    -0.2943, -1.0177, -0.0024, 0.4985, -0.0982,
    0.0954, -0.0425, 0.4426, -0.7542, -1.3096,
])
SAMPLE_INJECTION10 = np.array([
    0.2943, 1.0177, 0.0024, -0.4985, 0.0982,
    -0.0954, 0.0425, 5.5322, 0.7542, 5.1135,
])
SAMPLE_SURPLUS_COMPONENTS = (7, 9)      # zero-based indices of the surplus


# -- random instances for property sweeps ------------------------------------

def random_network(rng: np.random.Generator, n: int, m: int | None = None,
                   density: float = 1.0) -> FinancialNetwork:
    """Random network satisfying all standing assumptions.

    Column sums of C are scaled into (0.2, 0.9); D, p, beta, threshold are
    positive with unit-order magnitudes.
    """
    if m is None:
        m = n
    C = rng.uniform(0.0, 1.0, size=(n, n))
    if density < 1.0:
        C *= rng.random(size=(n, n)) < density
    np.fill_diagonal(C, 0.0)
    target = rng.uniform(0.2, 0.9, size=n)
    sums = C.sum(axis=0)
    sums[sums == 0] = 1.0
    C *= target / sums
    np.fill_diagonal(C, 0.0)
    return FinancialNetwork(
        C=C,
        D=rng.uniform(0.1, 1.0, size=(n, m)),
        p=rng.uniform(0.1, 2.0, size=m),
        beta=rng.uniform(0.2, 1.5, size=n),
        threshold=rng.uniform(0.5, 2.0, size=n),
    )


def random_gap_network(rng: np.random.Generator, n: int,
                       max_tries: int = 200) -> FinancialNetwork:
    """Random network whose maximal healthy-invariant region is a strict
    subset of the orthant (drift negative somewhere, equilibrium positive).

    Built by drawing the drift r with a few mildly negative components and
    back-solving the asset income that produces it.
    """
    for _ in range(max_tries):
        C = rng.uniform(0.05, 1.0, size=(n, n))
        np.fill_diagonal(C, 0.0)
        C *= rng.uniform(0.4, 0.9, size=n) / C.sum(axis=0)
        threshold = rng.uniform(0.5, 2.0, size=n)
        r = rng.uniform(0.05, 0.4, size=n)
        weak = rng.choice(n, size=max(1, n // 4), replace=False)
        r[weak] = rng.uniform(-0.1, -0.01, size=weak.size)
        x_bar = solve_linear(np.eye(n) - C, r)
        if np.any(x_bar <= 1e-6):
            continue
        income = r + (np.eye(n) - C) @ threshold
        if np.any(income < 0):
            continue
        net = FinancialNetwork(C=C, D=np.diag(income), p=np.ones(n),
                               beta=rng.uniform(0.2, 1.0, size=n),
                               threshold=threshold)
        model = ShiftedModel.from_network(net)
        if np.any(model.r < 0):        # truncation index is then >= 2
            return net
    raise RuntimeError("could not draw a gap network; widen the search")
