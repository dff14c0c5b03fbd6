"""A fixed reference task that measures how fast the machine runs now.

The reference machine is a few cores of a shared host, and its speed drifts
by 10% to 40% over minutes, as neighbours come and go. That drift moves a
50 s run's wall-clock figures more than the benchmark's bounds allow. So
the worker times this task between instances, never while the program
runs, and scales the program's times by how much slower or faster the task
ran than ``REFERENCE_S``, its median time on the reference machine at rest.
A scaled time reads as the time the same work would take at that speed.

The task uses numpy and scipy only, never ballpoly, so no change to the
program moves it. It mixes what the program's hot paths do: a Nelder-Mead
polish and an L-BFGS-B solve on small vectors, which are Python loops over
small numpy arrays, then an inverse incomplete beta function over an array
and streaming arithmetic over a larger one, which are compiled loops. The
compiled half matters: contention slows interpreted code more than
compiled loops, and a task of the Python half alone slowed about 1.5 times
as much as the program did, so it over-corrected. The garbage collector is
off while the task runs, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from scipy import optimize, special

REFERENCE_S = 0.0145  # median of ``timed()`` on the reference machine at rest
_BETA_X = np.linspace(0.001, 0.999, 4096)
_STREAM = np.arange(1.0, 20001.0)


def _task() -> None:
    optimize.minimize(optimize.rosen, np.array([1.3, 0.7, 0.8, 1.1]), method="Nelder-Mead",
                      options={"maxiter": 120, "xatol": 1e-12, "fatol": 1e-12})
    optimize.minimize(optimize.rosen, np.array([-1.2, 1.0, 0.5]), jac=optimize.rosen_der,
                      method="L-BFGS-B")
    special.betaincinv(1.5, 0.5, _BETA_X)
    a = _STREAM
    for _ in range(80):
        a = np.sqrt(a * a + 1.0)


def timed() -> float:
    """Seconds of one run of the task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _task()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
