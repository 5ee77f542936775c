"""Machine-speed probe for the timed region.

The benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds (other tenants on the same cores), so raw
wall times of identical solves taken a minute apart differ by more than
any regression worth catching.  `SpeedProbe` runs a fixed calibration
kernel every `INTERVAL_S` seconds from a SIGALRM handler while the solves
run, and rescales each solve's wall time to what it would have taken at
the reference speed, at which the kernel takes `REFERENCE_KERNEL_S`:

    rescaled = (wall - probe time inside the solve) * REFERENCE_KERNEL_S
               / median kernel time sampled around the solve

The kernel mixes the kinds of work the program does: an interpreted loop,
scalar numpy calls, small-array numpy calls, small-array steps that make
many different numpy calls (as a RATTLE or shooting step does) and a
320 x 320 LAPACK solve.  The many-call steps were added because they
track the slow-downs of `m3_bvp_n64`: in a 240-s recording they cut that
workload's rescaled per-solve spread from 0.046 to 0.027.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

REFERENCE_KERNEL_S = 7.5e-3
INTERVAL_S = 0.25   # time between two probes
WINDOW_S = 1.0      # a solve's speed is the median of the probes this close to it

_RNG = np.random.default_rng(12345)
_A = _RNG.random((320, 320)) + 320.0 * np.eye(320)
_B = _RNG.random((320, 8))
_V = _RNG.random(256)
_Q = _RNG.random((64, 3))
_M = _RNG.random((8, 8)) + 8.0 * np.eye(8)


def kernel() -> float:
    """Seconds taken by one fixed unit of mixed work."""
    t0 = time.perf_counter()
    np.linalg.solve(_A, _B)
    x = _V
    for _ in range(60):
        x = np.roll(x, 1) * 0.5 + np.sqrt(np.abs(x))
    y = 0.5
    for _ in range(600):
        y = float(np.sqrt(y + 1.0)) * 0.5
    z = 0
    for i in range(3000):
        z += i * i
    q = _Q
    for _ in range(30):
        d = np.roll(q, -1, axis=0) - q
        w = np.einsum("ki,ki->k", d, d)
        s = np.sqrt(np.abs(np.cumsum(w)))
        f = np.fft.rfft(q[:, 0])
        g = np.linalg.solve(_M, q[:8])
        q = (np.concatenate([q[1:], q[:1]]) * 0.999 + 1e-3 * s[:, None]
             + 1e-6 * (abs(f[1]) + g[0, 0]))
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.at: list[float] = []      # start of each probe
        self.took: list[float] = []    # its duration (kernel and bookkeeping)
        self.kernel: list[float] = []  # the kernel's own time
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        k = kernel()
        self.at.append(t0)
        self.kernel.append(k)
        self.took.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def rescale(self, t0: float, t1: float) -> float:
        """Wall time t1 - t0 of a solve, less the probes inside it, at the
        reference speed.  The speed is the median kernel time over the probes
        from WINDOW_S seconds before the solve to WINDOW_S seconds after: the
        median, because a probe that is preempted takes up to twice as long."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = max(bisect.bisect_right(self.at, t1 + WINDOW_S), lo + 1)
        a, b = bisect.bisect_left(self.at, t0), bisect.bisect_left(self.at, t1)
        busy = (t1 - t0) - sum(self.took[a:b])
        return busy * REFERENCE_KERNEL_S / float(np.median(self.kernel[lo:hi]))
