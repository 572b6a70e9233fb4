"""Track the speed of the core the benchmark runs on, and scale times to it.

On a shared host the core's speed moves with the neighbours' load. On
the 2-core KVM guest this benchmark was written on, CPU time equalled
wall time (no steal), yet a fixed 40 ms loop took anywhere from 21 to
47 ms from one second to the next on either core, and one identical
``sweep`` pass took 3.1 s in one run and 6.0 s in a run minutes later.
No run length averages that away.

So while the benchmark's calls run, a timer interrupts them every
``INTERVAL_S`` of wall time and times ``reference_loop``: a fixed mix of
small numpy calls driven from Python, the kind of work the package's
hot paths do, that never touches ``alohagame``. ``work_clock`` excludes
those pauses. A pass's time is multiplied by the mean of
``NOMINAL_S / sample`` over the samples taken during it, and a call's
time by the mean over the samples taken during the call and the one on
either side, so they are in seconds of a core on which the loop takes
``NOMINAL_S``. The raw wall times are kept in the result file.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
# About the loop's time on the machine above.
NOMINAL_S = 0.002

_ROUNDS = 200
_Q = np.linspace(0.0, 0.5, 20)
_MASK = np.arange(400).reshape(20, 20) % 3 == 0


def reference_loop() -> float:
    total = 0.0
    for _ in range(_ROUNDS):
        prod = np.where(_MASK, 1.0 - _Q[np.newaxis, :], 1.0).prod(axis=-1)
        total += float(np.abs(prod - _Q).max())
    return total


class SpeedMeter:
    """Reference-loop samples and the wall time spent taking them."""

    def __init__(self):
        self.samples: list = []
        self.paused = 0.0

    def sample(self) -> None:
        start = perf_counter()
        reference_loop()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.paused += elapsed

    def work_clock(self) -> float:
        """Wall clock that stands still while a sample is taken."""
        return perf_counter() - self.paused

    @contextmanager
    def sampling(self):
        """Take a sample every ``INTERVAL_S`` of wall time inside the block.

        Uses SIGALRM, so only the main thread may use it, and nothing
        inside the block may use SIGALRM itself.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, since: int, until: int | None = None) -> float:
        """Scale for work done while samples ``since`` up to ``until`` were taken."""
        return statistics.fmean(NOMINAL_S / s for s in self.samples[since:until])
