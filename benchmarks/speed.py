"""Timing that corrects for how fast the shared core runs at the moment.

On a host whose cores are shared with other tenants, the same deterministic
op takes from 1x to about 2x its quiet time, in spells lasting seconds to
minutes, so raw wall times of two runs of the same code differ by more than
any useful regression bound.  A ``SpeedProbe`` therefore times a fixed
reference kernel next to the work and scales the work's wall time by the
kernel's quiet-core time over its time at the moment: the work's seconds on
a quiet core of this host.  The kernels never call ``qcog``, so a change to
``qcog`` moves only the work's own time.

``SpeedProbe.time`` runs the kernel twice before an op, every
``INTERVAL_S`` during it (from a ``SIGALRM`` handler, which Python runs
between bytecodes) and twice after it, and takes the kernel's own time out
of the op's wall time.  Set-up, which runs once per interpreter, is
corrected by kernel runs right after it (see ``run.setup_probe``).

Why these kernels: in 5 to 10 minute traces on the 2-vCPU host the bounds
were set on, the op slowdowns of all three workloads tracked interpreter-
and call-bound work (formatting numbers into CSV text, a chain of 3x3
numpy calls) with a log-log slope of 0.7 to 1.1, while a tight
pure-Python loop, a small eigen-decomposition or memory streaming missed
much of the survey-fit slowdown; corrected, the spread of 30-second means
fell from 0.11-0.24 of the median to 0.02-0.04.  Set-up (imports, mostly)
is the other way round: it tracked the tight loop (slope 0.8; per-probe
spread 0.15 -> 0.07) and moved only half as much as the call-bound kernel.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
_clock = time.perf_counter


def loop_kernel() -> float:
    s = 0.0
    for i in range(4000):
        s += i * 0.5
    return s


_SMALL = np.random.default_rng(0).standard_normal((3, 3))


def call_kernel() -> float:
    rows = [f"{i * 0.001!r},{i * 0.002!r},{i * 0.5:.6f}" for i in range(150)]
    x = _SMALL
    for _ in range(40):
        x = np.tanh(x @ _SMALL)
    return len("\n".join(rows).encode()) + float(x[0, 0])


# Each kernel's fastest time on a quiet core of the host the bounds were
# set on (Intel Xeon, Sapphire Rapids, 2 vCPUs): a scale, not a measurement.
QUIET_S = {call_kernel: 0.00023, loop_kernel: 0.00019}


class SpeedProbe:
    def __init__(self, kernel=call_kernel):
        self._kernel = kernel
        self._samples: list[tuple[float, float]] = []
        self.wall = self.quiet = 0.0
        for _ in range(20):  # warm the kernel's code paths
            self.sample()

    def sample(self) -> None:
        start = _clock()
        self._kernel()
        self._samples.append((start, _clock()))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def scale(self) -> float:
        """Quiet-core seconds per wall second over the samples since the
        last ``reset``."""
        return QUIET_S[self._kernel] / statistics.fmean(
            b - a for a, b in self._samples)

    def reset(self) -> None:
        self._samples = []

    def time(self, fn, *args):
        """Return ``fn(*args)``.  The op's wall seconds, the kernel's time
        taken out, are left in ``wall`` and its quiet-core seconds in
        ``quiet``, also when ``fn`` raises."""
        self.reset()
        self.sample()
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = _clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            end = _clock()
            signal.signal(signal.SIGALRM, previous)
            self.sample()
            self.sample()
            inside = sum(b - a for a, b in self._samples
                         if a >= start and b <= end)
            self.wall = end - start - inside
            self.quiet = self.wall * self.scale()
