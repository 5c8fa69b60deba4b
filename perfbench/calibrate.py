"""Host speed, sampled while the program runs.

On a shared host the same code runs up to 1.75 times slower than its best
for stretches of seconds to minutes, set by load from outside the machine.
A :class:`Probe` samples that speed all through a timed phase: every
``INTERVAL_S`` a wall-clock timer interrupts the program and times two
fixed kernels of together about 3 ms.  A sample is the geometric mean of
their slowdowns against ``PY_REFERENCE_S`` and ``MEM_REFERENCE_S``.  The
phase's time, less the time spent in the probe, is divided by the median
sample: a phase that took 1.3 times its best while the host ran at 1/1.3
of its speed reads the same as it would on an idle host.

The first kernel mixes the kinds of work the program does in the
interpreter: scalar Python float arithmetic in small functions (the plant
model's RK4 steps and property polynomials), a growing list of small
records (the run's frames) and numpy operations on arrays of a few
elements (the QP kernel).  The second reads random elements of a 4 MB
array, twice the size of a core's L2 cache, so it always waits on the
shared L3 cache and slows when other tenants load it; the program slows
with it, and the first kernel alone misses that.  Both belong to the
benchmark, not the program, so no change to ``src/`` changes their speed.
What the program leaves in the caches moves them by a few per cent: the
median sample of each phase is printed beside the timings.
"""

import gc
import math
import signal
import statistics
import time

import numpy as np

# Nominal kernel times: scaled timings read in seconds of a host on which
# the kernels take this long.  The 2-core shared x86-64 VM the benchmark
# was written on took 1.9 to 3.3 ms and 0.2 to 0.4 ms.
PY_REFERENCE_S = 2.5e-3
MEM_REFERENCE_S = 0.28e-3
INTERVAL_S = 0.1
STEPS = 110

_RNG = np.random.default_rng(7)
_M = _RNG.standard_normal((6, 6))
_H = _M @ _M.T + 6.0 * np.eye(6)
_G = _RNG.standard_normal((4, 6))
_TABLE = _RNG.standard_normal(1 << 19)
_PICKS = _RNG.integers(0, _TABLE.size, 20000)
_COEF = (-0.0078125, 0.015625, -0.03125, 0.0625, -0.125, 0.25, -0.5, 1.0)


def _horner(u):
    s = 0.0
    for c in _COEF:
        s = s * u + c
    return s


def _rhs(x, v, u):
    return v, _horner(u) - 0.3 * v - x * x * 0.01


def _rk4(x, v, u, dt):
    k1x, k1v = _rhs(x, v, u)
    k2x, k2v = _rhs(x + 0.5 * dt * k1x, v + 0.5 * dt * k1v, u)
    k3x, k3v = _rhs(x + 0.5 * dt * k2x, v + 0.5 * dt * k2v, u)
    k4x, k4v = _rhs(x + dt * k3x, v + dt * k3v, u)
    return (x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x),
            v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v))


def _kernel():
    x, v, acc = 0.0, 0.0, 0.0
    frames, index = [], {}
    for i in range(STEPS):
        u = 1e-3 * (i % 97)
        for _ in range(4):
            x, v = _rk4(x, v, u, 0.05)
        frame = {"t": i * 0.05, "x": x, "v": v, "u": [u] * 5,
                 "tag": (i, i % 7)}
        frames.append(frame)
        index[i % 1009] = frame
        if i % 2 == 0:
            z = np.full(6, u)
            g = _H @ z + 1.0
            slack = _G @ z - 0.5
            acc += float(np.max(np.abs(slack), initial=0.0)) + float(g @ g)
    return acc + x + v + sum(f["x"] for f in frames) + len(index)


def _gather():
    return float(_TABLE[_PICKS].sum())


class Probe:
    """Samples host speed on a wall-clock timer while it is started.

    ``now()`` is a clock that stops while the probe runs, so phase times
    read from it leave the probe out.
    """

    def __init__(self):
        self.samples = []     # slowdowns against the nominal times
        self.spent = 0.0      # seconds spent in the probe so far
        self._previous = None

    def _sample(self, signum, frame):
        # A collection would walk the program's live objects and make the
        # kernels' time depend on them.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _gather()
        t2 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(math.sqrt((t1 - t0) / PY_REFERENCE_S
                                      * (t2 - t1) / MEM_REFERENCE_S))
        self.spent += t2 - t0

    def start(self):
        _kernel()
        _gather()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self):
        while True:
            # read again if a sample landed between the two reads
            spent = self.spent
            t = time.perf_counter()
            if self.spent == spent:
                return t - spent

    def median_since(self, first):
        """Median slowdown since sample ``first`` was taken."""
        taken = self.samples[first:]
        if not taken:
            raise RuntimeError("no host speed sample during a timed phase")
        return statistics.median(taken)
