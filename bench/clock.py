"""Times scaled to a reference machine speed.

The hosts this benchmark runs on are shared. Their speed switches, every few
seconds, between states up to half again as slow, and the mix drifts over
minutes as other tenants load them. So every time the end-to-end metrics
report is divided by how slow the host ran while it was measured:

    scaled = measured / mean(slowness sampled while it was measured)

A calibration runs five small fixed kernels like the ones expansionlab spends
its time in (interpreter arithmetic, Python calls, small numpy expressions,
small dense solves, scipy quadrature over a Python integrand); its slowness
is the mean over the kernels of the ratio of their time to their reference
time. A scaled time is thus the time on a host where the kernels take their
reference times.

Operation times are scaled by a Sampler: a timer interrupts the program
every quarter second to run the kernels once, and the time that takes is left
out of the operation's. Each operation is scaled by the samples taken during
it and a quarter second either side, so that a short operation is scaled by
the speed the host had when it ran. Set-up times are scaled by full
calibrations (each kernel REPEATS times, median) taken just before and after
each set-up. The kernels do not touch expansionlab, so a change to the
program moves only the measured time; run.py prints the raw times beside the
scaled ones.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import threading
import time

import numpy as np
from scipy import integrate

REPEATS = 5

_FREQS = np.arange(1, 17) * math.pi
_AMPS = np.full(16, 1.0 + 1.0j)
_RNG = np.random.default_rng(7)
_M = _RNG.standard_normal((32, 32)) + 1j * _RNG.standard_normal((32, 32))
_M = _M + _M.conj().T
_EYE = np.eye(32, dtype=complex)
_C = _RNG.standard_normal(32) + 0j


def _arithmetic():
    acc = 0
    for i in range(50_000):
        acc += i * i


def _calls():
    f = lambda x: math.sin(x) * x
    acc = 0.0
    for i in range(20_000):
        acc += f(i * 1e-3)


def _small_arrays():
    acc = 0j
    for i in range(1_000):
        acc += np.sin(_FREQS * (i * 1e-4)) @ _AMPS


def _small_solves():
    c = _C
    for i in range(100):
        m = _M * np.exp(1e-3j * i)
        c = np.linalg.solve(_EYE + 1e-3j * m, c - 1e-3j * (m @ c))


def _quadrature():
    for _ in range(2):
        integrate.quad(lambda x: float((np.sin(_FREQS * x) @ _AMPS).real) ** 2,
                       0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=200)


# each kernel with its typical time on a lightly loaded 2-vCPU Xeon under
# Python 3.11, numpy 2.4 and scipy 1.17
KERNELS = ((_arithmetic, 0.0029), (_calls, 0.0023), (_small_arrays, 0.0040),
           (_small_solves, 0.0030), (_quadrature, 0.0017))


def calibrate(repeats: int = REPEATS) -> float:
    """How many times slower than the reference the host runs now.

    The garbage collector is paused, so that the size of the heap the
    program left behind does not slow the kernels.
    """
    total = 0.0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for kernel, reference in KERNELS:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - start)
            total += statistics.median(times) / reference
    finally:
        if was_enabled:
            gc.enable()
    return total / len(KERNELS)


class Sampler:
    """Samples the host's slowness while the program runs.

    Inside ``with sampler:`` an interval timer interrupts the process every
    `period` seconds of wall time, and the SIGALRM handler runs one short
    calibration (each kernel once). The handler adds its own duration to
    `stolen`, which the caller subtracts from the times it measures. No
    sample is taken while other Python threads exist: the calibration would
    compete with them for the interpreter lock and read the program's own
    load as the host's.
    """

    def __init__(self, period: float = 0.25):
        self.period = period
        self.samples = []       # (perf_counter at start, slowness)
        self.stolen = 0.0
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy or threading.active_count() > 1:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append((start, calibrate(repeats=1)))
        finally:
            self.stolen += time.perf_counter() - start
            self._busy = False

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append((time.perf_counter(), calibrate()))

    def slowness(self, start: float, end: float) -> float:
        """Mean slowness from `start` to `end`, give or take one period.

        The host switches speed within seconds, so even a short operation
        is scaled by the samples taken just before and after it; with none
        there, by all of the last ``with`` block.
        """
        near = [s for t, s in self.samples
                if start - self.period <= t <= end + self.period]
        return statistics.fmean(near or [s for _, s in self.samples])
