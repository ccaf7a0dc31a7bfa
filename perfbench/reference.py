"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared VM the same Python code runs up to twice as slow for stretches of
seconds to minutes.  `host_time()` times a fixed piece of work shaped like
peflow's own: a pure-Python loop and a small-array numpy RK4 integration.
The benchmark divides each operation's latency by the latest reading, which
turns seconds into reference units that stay put while the host's speed
drifts.  The kernel never calls peflow, so no change to peflow moves it.

Import this module only after the BLAS/OpenMP thread variables are set.
"""
from __future__ import annotations

import time

import numpy as np

_A = np.array([[0.0, 1.0], [-1.0, -0.1]])


def _python_loop() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _numpy_rk4() -> np.ndarray:
    x, h = np.array([1.0, 0.0]), 0.01
    for _ in range(150):
        k1 = _A @ x
        k2 = _A @ (x + h / 2 * k1)
        k3 = _A @ (x + h / 2 * k2)
        k4 = _A @ (x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def host_time(repeats: int = 3) -> float:
    """Best of `repeats` timings of both kernels together, in s (about 4 ms each)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _python_loop()
        _numpy_rk4()
        best = min(best, time.perf_counter() - start)
    return best
