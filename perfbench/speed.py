"""Rescaling of measured times to a fixed reference interpreter speed.

The benchmark shares its machine with others, and the speed of pure
Python code drifts on it by up to 1.7x over periods of seconds: one fixed
`count_homs` call measured 76-136 ms within a single minute on a 2-vCPU
Xeon VM, on either CPU, with process time tracking wall time.  Such drift
swamps any bound a benchmark can hold, so every time the benchmark
reports is rescaled.

While a `Sampler` is active, a SIGALRM handler times `kernel`, a fixed
pure-Python recursion, every `PERIOD` seconds of wall time.  An interval
[t0, t1] is reported as

    (t1 - t0 - time spent in the handler) * mean(NOMINAL / kernel time)

over the samples taken from `WINDOW` seconds before t0 to `WINDOW` seconds
after t1; the window smooths the kernel's own jitter on short intervals
while following drifts that last seconds.  The result is the interval's
length in seconds at the speed at which the kernel takes `NOMINAL`; on a
quiet machine of that speed it equals the wall time.  The rescaling cannot hide a
slower program: the kernel is part of the benchmark, not of retlab.
"""

import bisect
import signal
from time import perf_counter

PERIOD = 0.05
WINDOW = 0.25
NOMINAL = 1.0e-3


def kernel():
    """Recursion, small-int arithmetic, frozensets and a dict: the
    operations retlab's own loops are made of."""

    def rec(depth, prev):
        if depth == 15:
            return 1
        total = rec(depth + 1, 0)
        if not prev:
            total += rec(depth + 1, 1)
        return total

    table = {}
    shared = 0
    for i in range(1000):
        table[i & 255] = table.get(i & 255, 0) + i
        shared += len(frozenset((i, i + 1)) & frozenset((i + 1, i + 2)))
    return rec(0, 0) + shared + len(table)


class Sampler:
    def __init__(self):
        self.starts = []  # perf_counter() at each sample's start
        self.spent = []  # seconds spent in the handler for each sample
        self.factors = []  # NOMINAL / kernel seconds
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel()
            end = perf_counter()
            self.starts.append(start)
            self.factors.append(NOMINAL / (end - start))
            self.spent.append(perf_counter() - start)
        finally:
            self._busy = False

    def rescale(self, t0, t1):
        """The interval's length at the reference speed."""
        inside = slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))
        around = slice(bisect.bisect_left(self.starts, t0 - WINDOW), bisect.bisect_left(self.starts, t1 + WINDOW))
        factors = self.factors[around] or [self.factors[-1]]
        return (t1 - t0 - sum(self.spent[inside])) * sum(factors) / len(factors)
