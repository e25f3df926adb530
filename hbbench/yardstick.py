"""A fixed computation that tracks how fast the host runs right now.

Hosts shared with other tenants change speed by themselves. On the 2-vCPU
KVM guest the benchmark was written on (Intel Xeon, Python 3.11, numpy 2.4),
``trial_metrics`` took about 4.2 ms per call in the host's fast state and
7-8 ms in its slow one, switching over fractions of a second to minutes,
with CPU time tracking wall time. A fixed piece of work of the same kind
(interpreted Python around small complex numpy operations) slows down by
about the same factor at the same time.

While a run measures, a ``SIGALRM`` timer times ``work()`` every
``EVERY_S`` seconds, in the middle of whatever the program is doing; Python
runs the handler between two bytecodes of the main thread. Each operation
is then reported as ``t * REF_S / y``: ``t`` is its wall time less the
yardstick samples taken inside it, ``y`` the mean of the samples taken from
``WINDOW_S`` before it starts to ``WINDOW_S`` after it ends. A CLI run of
about 2 s so is scaled by the yardstick samples taken while it ran. Over
one run of repeated ``size_sweep`` CLI runs, this cut the coefficient of
variation of their times from 0.11 to 0.04, where yardstick samples taken
only between the CLI runs cut it to 0.08-0.15. ``REF_S`` only fixes the
scale. The samples take about 2% of the run.

The yardstick is benchmark code and none of the program's, but it runs in
the same interpreter as the program and shares its garbage collector,
numpy's allocator and the CPU caches, so a change to the program could
move it a little. A run therefore reports the yardstick's own mean time and
the ratio of each unscaled metric to its scaled value beside the scaled
metrics.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

REF_S = 0.5e-3  # about the mean of work() on the host above; sets the scale only
EVERY_S = 0.025  # seconds between yardstick samples
WINDOW_S = 0.1  # samples this close to an operation scale it

_IDX = np.arange(32)
_F = np.exp(-1j * math.pi * np.outer(_IDX, np.linspace(-0.8, 0.8, 8))) / math.sqrt(32)


def work() -> float:
    """Seconds taken by one fixed piece of work."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(30):
        phi = 0.01 * k - 0.5
        a = np.exp(-1j * math.pi * phi * _IDX) / math.sqrt(32)
        g = _F.conj().T @ _F
        acc += abs(np.vdot(a, _F[:, k % 8])) + float(g[k % 8, k % 8].real)
        acc += math.sin(phi) ** 2 + sum(i * i for i in range(20))
    if not math.isfinite(acc):
        raise ArithmeticError("yardstick produced a non-finite value")
    return time.perf_counter() - start


class Speed:
    """Yardstick samples taken during one stretch of a run, with their start times.

    As a context manager it samples on a timer; ``maybe_sample`` samples
    between operations instead, where a timer would land inside traced code.
    """

    def __init__(self):
        self.times: list[float] = []  # perf_counter at the start of each sample
        self.samples: list[float] = []
        self._next = -math.inf
        self._sampling = False
        self._old_handler = None

    def _sample(self) -> None:
        start = time.perf_counter()
        took = work()
        self.times.append(start)
        self.samples.append(took)
        self._next = start + took + EVERY_S

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # a late alarm does not nest inside a sample
            self._sampling = True
            try:
                self._sample()
            finally:
                self._sampling = False

    def __enter__(self) -> Speed:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def maybe_sample(self) -> None:
        """Take a sample if EVERY_S has passed since the last one."""
        if time.perf_counter() >= self._next:
            self._sample()

    def net(self, start: float, end: float) -> float:
        """Seconds from start to end less the yardstick samples taken in between."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return end - start - math.fsum(self.samples[lo:hi])

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """REF_S over the mean sample near [start, end] (or over all samples).

        Multiply a time by it, divide a rate by it. `end` defaults to `start`.
        """
        if not self.samples:
            return REF_S / work()
        if start is None:
            near = self.samples
        else:
            end = start if end is None else end
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            if lo == hi:  # no sample in the window: the closest one
                at = (start + end) / 2.0
                candidates = (max(lo - 1, 0), min(lo, len(self.times) - 1))
                lo = min(candidates, key=lambda i: abs(self.times[i] - at))
                hi = lo + 1
            near = self.samples[lo:hi]
        return REF_S / statistics.fmean(near)
