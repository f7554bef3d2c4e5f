"""Machine-speed reference used to normalise every reported time.

On a small shared host the same work can take up to twice as long from one
minute to the next (a busy sibling hyperthread, clock changes), which
would swamp the differences the benchmark exists to show. So the worker
runs a fixed reference kernel before every task and after the last one,
and scales each task's time by REFERENCE_S / (median reference time around
that task): times are reported in seconds at a fixed reference speed. The
kernel does finnet-like work (small matrix-vector steps driven from
Python) but lives here, outside finnet, so no change to finnet moves it.
Raw seconds are reported next to the normalised ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 4.0e-4        # kernel time that defines one reference second

_C = np.random.default_rng(0).uniform(0.0, 0.1, size=(10, 10))
_R = np.linspace(-0.5, 1.0, 10)


def reference_time() -> float:
    """Seconds taken by one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    x = np.zeros(10)
    acc = 0.0
    for i in range(100):
        x = _C @ x + _R - 0.5 * (x < 0)
        acc += float(x[i % 10])
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """REFERENCE_S over the median of reference samples."""
    return REFERENCE_S / statistics.median(samples)


def normalise(latencies: list[float], refs: list[float]) -> list[float]:
    """Scale task i by the two reference runs that bracket it.

    refs[i] ran just before task i and refs[-1] after the last task, so
    len(refs) == len(latencies) + 1. The bracketing runs track the speed
    during a long task better than a wider window does.
    """
    return [t * factor(refs[i:i + 2]) for i, t in enumerate(latencies)]
