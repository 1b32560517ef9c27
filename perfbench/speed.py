"""Host speed, from a fixed piece of work that uses no part of the program.

The host this benchmark was built on runs the same code up to 1.4 times
slower in phases that last from seconds to tens of minutes. Timing the same
fixed work during a run tracks the phase, so the run's times are scaled to
a reference speed: t * PROBE_REF_S / (median probe time).
"""

import time

import numpy as np

# Probe time at the reference speed (the typical speed of a 2-core Xeon
# host); scaled times are seconds at that speed.
PROBE_REF_S = 0.020

_rng = np.random.default_rng(0)
_M = _rng.normal(size=(300, 300))
_H = _M @ _M.T + 300 * np.eye(300)
_V = np.ones(12)


def probe():
    """Time of interpreter work, small numpy calls and a LAPACK factor."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60000):
        s += i * i
    for _ in range(1000):
        _V @ _V
    for _ in range(12):
        np.linalg.cholesky(_H)
    return time.perf_counter() - t0


def sample(budget):
    """Probe times taken over about budget seconds (at least one)."""
    out = [probe()]
    t_end = time.perf_counter() + budget
    while time.perf_counter() < t_end:
        out.append(probe())
    return out
