"""Machine-speed calibration of the end-to-end times.

The benchmark runs on a host shared with other tenants.  There, the
speed a single-threaded Python program gets swings by up to a factor
of two within seconds (turbo headroom and shared caches come and go),
so one fixed analysis measured raw moves by a third between runs of
the same code.  Medians over a run do not remove that: a whole run can
sit in a slow or a fast stretch.

So an untraced run times a fixed calibration :func:`kernel` every
tenth of a second, and reports every time scaled to a reference
machine on which the kernel takes :data:`REFERENCE_SECONDS`: an op
that took ``t`` seconds while the kernel around it took ``k`` seconds
is reported as ``t * REFERENCE_SECONDS / k``.  The kernel is the benchmark's own code
and never calls the program, so a change to the program moves the
scaled times exactly as it moves the raw ones; only the host's speed
cancels out.  ``run.py`` keeps the benchmark and every process it
starts on one CPU, so the kernel times the CPU the program runs on
(the two CPUs of a shared host need not be equally loaded).

The kernel does the kind of work the program does (interpreted float
loops, dict and tuple churn, small numpy solves), because a plain
arithmetic loop tracks the program's slowdowns less well than that
mix.  One kernel sample is a few milliseconds, so an op is scaled by
the median of the samples in and around it, not by one.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy

#: Kernel seconds on the reference machine the reported times refer to.
REFERENCE_SECONDS = 0.005
#: Seconds between kernel samples.
EVERY = 0.1
#: An op is scaled by the kernel samples within this many seconds of it.
WINDOW = 0.5

_DEMANDS = [0.01 * (1 + i % 5) for i in range(12)]
_MATRIX = numpy.arange(64.0).reshape(8, 8) + numpy.eye(8) * 50.0
_ONES = numpy.ones(8)


def kernel() -> float:
    """A fixed amount of program-like work; returns a checksum."""
    # Exact mean-value analysis of a small closed queueing network.
    queues = [0.0] * len(_DEMANDS)
    throughput = 0.0
    for customers in range(1, 481):
        residence = [d * (1.0 + q) for d, q in zip(_DEMANDS, queues)]
        throughput = customers / (sum(residence) + 0.5)
        queues = [throughput * r for r in residence]
    # Keyed accumulation and a sort, as model building and scans do.
    table: dict[tuple[str, int], float] = {}
    for i in range(3000):
        key = (f"n{i % 120}", i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    ordered = sorted(table.items(), key=lambda item: item[1])
    for _ in range(60):
        solution = numpy.linalg.solve(_MATRIX, _ONES)
    return throughput + ordered[-1][1] + float(solution[0])


@contextmanager
def held():
    """Hold the clock's timer samples back until the block ends.

    For work another process does on this CPU while this one waits (a
    request to the daemon, a set-up's fresh interpreter): a sample taken
    meanwhile would share the CPU with that process and read the host
    as slow.  A sample due in the block is taken right after it.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class Clock:
    """Samples the kernel every :data:`EVERY` seconds and scales op
    times by it.

    Use it as a context manager around the timed part of a run: it
    samples on entry, on exit and from a ``SIGALRM`` interval timer in
    between, so long ops get samples from inside them, not only from
    their ends.  A sample pauses the op it lands in, so :meth:`scaled`
    takes the kernel time spent inside an op out of the op's time.
    Work done by another process is timed under :func:`held`.  Record
    each op's raw ``(start, end)`` with ``time.perf_counter()``.
    """

    def __init__(self, every: float = EVERY) -> None:
        self.every = every
        #: Kernel samples as parallel lists: start, end and duration.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_seconds: list[float] = []
        self._sampling = False
        self._previous = None

    def __enter__(self) -> Clock:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self.sample()
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._sampling:
            self.sample()

    def sample(self) -> None:
        """Time one kernel run."""
        self._sampling = True
        # The kernel's allocations would otherwise trigger collections
        # of the garbage the program left, and time those.
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            # Recorded before the flag drops, so that a sample the timer
            # starts next cannot land in the lists ahead of this one.
            self.starts.append(start)
            self.ends.append(end)
            self.kernel_seconds.append(end - start)
        finally:
            if collecting:
                gc.enable()
            self._sampling = False

    def factor(self, start: float, end: float) -> float:
        """Reference over measured kernel time around ``[start, end]``:
        the median of the samples that began within :data:`WINDOW`
        seconds of it, always including the last sample before
        ``start`` and the first after ``end`` (either alone at the ends
        of the run)."""
        if not self.starts:
            raise ValueError("no calibration sample taken")
        before = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        low = min(bisect.bisect_left(self.starts, start - WINDOW), before)
        high = max(bisect.bisect_right(self.starts, end + WINDOW), after + 1)
        around = self.kernel_seconds[max(low, 0):min(high, len(self.starts))]
        return REFERENCE_SECONDS / statistics.median(around)

    def own_seconds(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` not spent in kernel samples."""
        first = bisect.bisect_right(self.ends, start)
        last = bisect.bisect_left(self.starts, end)
        sampled = sum(
            max(0.0, min(self.ends[i], end) - max(self.starts[i], start))
            for i in range(first, last)
        )
        return end - start - sampled

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at reference speed."""
        return self.own_seconds(start, end) * self.factor(start, end)
