"""Speed probe: the host's speed, sampled while a pass runs.

On a shared host the speed of a core drifts by tens of percent within
seconds and flips between two levels within milliseconds, so a time in
seconds says as much about the neighbours as about gpmaps. The probe runs
a fixed unit of work, ``chunk``, on a wall-clock timer (SIGALRM) in the
pass's own interpreter, on the pass's own core, every ``INTERVAL_S``, and
keeps how long each run took. A library call of ``elapsed`` seconds is
then converted to reference units, the number of chunks the host could
have run in that time:

    ref = elapsed * mean(1 / chunk_s over the ticks near the call)

Ticks fall at even steps of wall time, so that mean is the host's mean
speed over the call, and the conversion cancels a slow-down that the call
and the chunk both feel. The chunk mixes interpreted loops with numpy
calls, as the workloads do, and touches nothing of gpmaps, so no change to
the repository can move it. The time the probe itself takes is subtracted
from the call it interrupted.

Short read calls are converted against reference work run right around
them instead (``worker.Pass.read_phase``): ``chunk``, or ``quartic`` for
normal-form's reads. ``calibrate`` gives the speed right after an
interpreter's set-up.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

#: Wall time between two probe ticks; each tick costs about half a millisecond.
INTERVAL_S = 0.05
#: Ticks this far before a call's start or after its end still count for it.
WINDOW_S = 0.5
#: How long chunks are timed right after an interpreter's set-up, to convert
#: the set-up time: long enough to span the host's 10-100 ms speed flips.
CALIBRATION_S = 0.15

_X = np.random.default_rng(2410).standard_normal((100, 100))
_SPD = _X @ _X.T + 100.0 * np.eye(100)
_Y = np.array([0.5, -0.25])


def chunk():
    """The fixed unit of work: interpreted loops, numpy calls on tiny arrays
    (per-call overhead, as in ``rk4`` and the descent loops) and dense work
    on 100 x 100 matrices (as in the Gram blocks and their Cholesky factors)."""
    s = 0.0
    for i in range(600):
        s += i * 0.5 + 1.0 / (i + 1.0)
    y = _Y
    for _ in range(80):
        y = y + 0.01 * (y * y - 1.0)
    for _ in range(3):
        np.linalg.cholesky(_SPD)
        np.exp(-(_X * _X))
    return s + float(y[0])


_QUARTIC = np.array([0.3, -1.1, 0.7, 0.2, -0.5])


def quartic(points):
    """Reference work for normal-form's read calls: a fixed quartic at
    ``points``, evaluated as gpmaps evaluates its learned one (monomial
    features, then a dot product)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u, v = pts[:, 0], pts[:, 1]
    return np.stack([u ** (4 - k) * v ** k for k in range(5)], axis=1) @ _QUARTIC


def calibrate():
    """The host's speed now, in chunks per second: the mean of 1 / chunk time
    over CALIBRATION_S of chunks, after a warm-up one."""
    chunk()
    rates = []
    end = perf_counter() + CALIBRATION_S
    while (start := perf_counter()) < end:
        chunk()
        rates.append(1.0 / (perf_counter() - start))
    return sum(rates) / len(rates)


class Probe:
    """Runs ``chunk`` on every SIGALRM tick; ``spent_s`` is the total time it took."""

    def __init__(self):
        self.ticks = []  # (start, seconds) of every chunk
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        chunk()
        took = perf_counter() - start
        self.ticks.append((start, took))
        self.spent_s += took

    def start(self):
        chunk()  # warm-up: first-call costs stay out of the samples
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def to_ref(self, start, end, elapsed):
        """``elapsed`` seconds of a call that ran from ``start`` to ``end``, in chunks."""
        near = [took for t, took in self.ticks if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # the call ran before the first tick or after the probe stopped
            near = [min(self.ticks, key=lambda tick: abs(tick[0] - start))[1]]
        return elapsed * sum(1.0 / took for took in near) / len(near)
