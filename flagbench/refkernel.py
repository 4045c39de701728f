"""Host-speed reference kernel and the normalisation built on it.

The host this benchmark was written on changes speed by up to a factor of
two within a second, and it offers no instruction counter.  So every timed
call is bracketed by runs of this fixed kernel, the kernel also runs every
SAMPLE_INTERVAL seconds inside the call (from a SIGALRM handler, whose own
time is taken out of the call's time), and each time is reported as

    normalised = (measured - sampling time) * R0 / mean(kernel times)

over the kernel runs of the two brackets and of the call.  The result is in
seconds at a nominal host speed on which one kernel run takes R0 seconds.

The kernel is stdlib only and does the kind of work flagheight does:
`Fraction` and `int` arithmetic over small tuples and dicts.  The garbage
collector is paused while it runs and it keeps nothing after it returns, so
its time depends on the host's speed and not on the caller's heap.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Recorded once: the median time of one kernel run on a 2-core x86-64
# virtual machine (Python 3.11.7), rounded.  Changing it rescales every
# normalised metric.
R0 = 0.001

ROUNDS = 100
# Result of one kernel run, checked on every run so that the timed work
# never silently changes.
CHECKSUM = (760785, 528550, 328350)
BRACKET_RUNS = 10
SAMPLE_INTERVAL = 0.02


def _work(rounds: int) -> tuple:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, rounds):
        key = (i % 7, i % 5, i % 3)
        x = Fraction(i, 1 + key[0] + key[1])
        acc += x * x - Fraction(key[2], i)
        table[key] = table.get(key, 0) + i * i
        if i % 8 == 0:
            acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000 + 1)
    return (acc.numerator % 1000003, acc.denominator % 1000003,
            sum(table.values()) % 1000003)


def reference_time() -> float:
    """Seconds taken by one kernel run, with the collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = _work(ROUNDS)
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError(f"reference kernel returned {result}, "
                           f"expected {CHECKSUM}")
    return elapsed


def bracket() -> list:
    """Kernel times taken between two timed calls."""
    return [reference_time() for _ in range(BRACKET_RUNS)]


def normalise(measured: float, kernel_times) -> float:
    """A measured time in seconds at the nominal host speed."""
    return measured * R0 / statistics.fmean(kernel_times)


class Sampler:
    """While active, runs the kernel every SAMPLE_INTERVAL seconds of wall
    time.  `samples` holds the kernel times and `excluded` the time the
    sampling took; `on_pause(seconds)` is told of each sample's cost, so a
    tracer can take it out of the span it interrupted.  Main thread only.

    The handler stays installed after the timer stops, so that a signal
    already on its way is taken as one more sample instead of meeting the
    default action, which ends the process."""

    def __init__(self, on_pause=None):
        self.on_pause = on_pause
        self.samples: list = []
        self.excluded = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_time())
        spent = time.perf_counter() - start
        self.excluded += spent
        if self.on_pause:
            self.on_pause(spent)

    def __enter__(self):
        self.samples, self.excluded = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False
