"""Host-speed reference for the end-to-end times.

On a shared host the same pipeline runs up to a third faster or slower from
one minute, or even one second, to the next, and CPU time moves with wall
time: the noise is the host's speed, not scheduling.  ``kernel`` is a fixed
piece of work that does not use prandtlsep, in the mix the pipeline runs:
banded solves on a 2305-node tridiagonal system (the march's solver and
default size) and an interpreter-bound recursion (like the stencil-weight
loops).

``run.py`` scales each timed operation by ``REFERENCE_S`` over the mean of
the kernel times sampled just before and just after it, and reports the
median of those scaled times: the time the operation takes on a host where
the kernel takes ``REFERENCE_S``.  A slower program moves that number; a
slower host moves the operation and its kernel samples alike.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# kernel time on the 2-core box where baseline.json was measured
REFERENCE_S = 0.040

_N = 2305
_BANDS = np.zeros((3, _N))
_BANDS[0, 1:] = -1.0
_BANDS[1] = 2.0
_BANDS[2, :-1] = -1.0
_RHS = np.linspace(0.0, 1.0, _N) ** 5


def kernel() -> float:
    acc = 0.0
    for _ in range(150):
        w = solve_banded((1, 1), _BANDS, _RHS)
        acc += float(np.max(np.sqrt(np.abs(np.diff(w)))))
    c = [0.0] * 8
    for i in range(30000):
        x = i * 1e-3
        for k in range(8):
            c[k] = (c[k] * x + k) / (x + 1.0)
    return acc + sum(c)


def sample(reps: int = 3) -> float:
    """Median wall time of ``reps`` kernel runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
