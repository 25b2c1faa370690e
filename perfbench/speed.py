"""Machine speed, measured alongside the timed operations.

The benchmark runs on two vCPUs of a shared host.  Its neighbours slow the
same code by up to about 1.8 times, in spells of seconds to minutes, and the
guest sees almost none of it: steal time stays within a few per cent and CPU
time is close to wall time.  A median of raw wall times therefore follows the neighbours as much
as modcool.

So while a worker runs, a timer interrupts it every ``INTERVAL_S`` and times
a fixed reference kernel: a pure-Python loop plus a chain of 4x4 numpy
products, the interpreter and small-array work that modcool's ODE and sweep
loops do.  The kernel takes ``NOMINAL_S`` on the quiet host.  The slowdown
over an interval is the mean kernel time in it divided by ``NOMINAL_S``, and
a normalised time is the time taken, less the time spent in the kernel,
divided by that slowdown: the seconds the work would take on the quiet host.
The kernel is part of the benchmark, so a change to modcool cannot move it.
The worker normalises an operation's CPU time, which another process sharing
its CPU does not inflate; ``cpu_per_wall`` shows where CPU and wall time part.

The neighbours of the two vCPUs come and go independently, so that one is
often quiet while the other is slowed.  Every ``HOP_EVERY`` samples the
handler moves the process to the next CPU it may run on and times the kernel
there; it stays if the kernel runs faster by ``HOP_GAIN``, else it moves
back.  The process stays a single one with one thread.

The handler runs between bytecodes.  A C call that holds the GIL, such as a
sparse LU factorisation, delays it, and the interval's slowdown then comes
from the samples before and after that call.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.005
# About the kernel's time on an uncontended vCPU of the benchmark host
# (Xeon, model 207, Python 3.11, numpy 2.4).  It only sets the scale of the
# normalised times.
NOMINAL_S = 1.4e-4
# Samples taken just before an interval that also enter its slowdown, so
# that an operation shorter than INTERVAL_S still has some.
LOOKBACK = 3
HOP_EVERY = 20
HOP_GAIN = 0.9
_LOOPS = 2000
_PRODUCTS = 40
_MATRIX = np.full((4, 4), 0.1)
_VECTOR = np.ones(4)


def reference_kernel() -> float:
    total = 0
    for i in range(_LOOPS):
        total += i * i
    x = _VECTOR
    for _ in range(_PRODUCTS):
        x = _MATRIX @ x + _VECTOR
    return float(x[0]) + total


def _timed_kernel() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def slowdown(samples) -> float:
    """Mean kernel time over ``NOMINAL_S``: 1 on the quiet host."""
    return statistics.fmean(samples) / NOMINAL_S


def normalised(seconds: float, spent: float, factor: float) -> float:
    """Seconds without the kernel's share, at the quiet host's speed."""
    return (seconds - spent) / factor


class SpeedSampler:
    """Times the reference kernel from a ``SIGALRM`` handler."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.hops = 0
        self._cpus = sorted(os.sched_getaffinity(0))
        self._cpu = 0

    def start(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, {self._cpus[self._cpu]})
        reference_kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        sample = _timed_kernel()
        if len(self._cpus) > 1 and len(self.samples) % HOP_EVERY == 0:
            sample = self._try_next_cpu(sample)
        self.samples.append(sample)
        self.spent += time.perf_counter() - start

    def _try_next_cpu(self, sample: float) -> float:
        """Move to the next CPU if the kernel runs faster there."""
        here = statistics.median(self.samples[-4:] + [sample])
        other = (self._cpu + 1) % len(self._cpus)
        os.sched_setaffinity(0, {self._cpus[other]})
        reference_kernel()  # warms the new CPU's caches
        there = _timed_kernel()
        if there < HOP_GAIN * here:
            self._cpu = other
            self.hops += 1
            return there
        os.sched_setaffinity(0, {self._cpus[self._cpu]})
        return sample

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark) -> tuple[float, float]:
        """Kernel seconds spent and the slowdown since ``mark``.

        ``mark`` comes from :meth:`mark`.  The slowdown covers the samples
        taken since then and the ``LOOKBACK`` before.
        """
        index, spent = mark
        window = self.samples[max(0, index - LOOKBACK):]
        if not window:
            raise RuntimeError("no speed sample yet")
        return self.spent - spent, slowdown(window)
