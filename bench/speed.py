"""How fast the machine runs right now, and timings scaled to a fixed speed.

The 2-core VM the benchmark was written on changes speed with load from
other tenants of its host: the same code runs up to 1.8x slower for
seconds to minutes at a time, and `/proc/stat` counts almost none of it
as steal, so CPU time drifts with wall time.  The two vCPUs change speed
independently, and the other vCPU sat idle while this one was slow, so
the cause lies outside the VM.  No statistic within one run removes a
slow stretch that lasts the whole run.

So while a run measures, a timer interrupts it every SAMPLE_PERIOD_S
and times a reference kernel: a fixed piece of pure-Python string
splitting and dict building, the kind of work neuralfp's parsers and
per-row loops do.  In a 90-second probe that alternated the kernel with
neuralfp work, 60 ms of `best_fit` calls and 30 to 60 ms of host
classification kept their ratio to the kernel within 8% of its median,
across kernel times from 93 to 184 us.  A timing is reported as its wall
time, less the time spent sampling, times NOMINAL_S over the mean kernel
time of the samples taken during it and the nearest one on either side:
seconds at the speed at which the kernel takes NOMINAL_S.  The kernel
does not touch neuralfp, so a change to the program cannot move it.

Starting a process does not follow the kernel: in a 120-second probe,
the ratio of a cold `import neuralfp.cli` process to the kernel fell by
28% from the fastest to the slowest stretches, because exec, page
faults and file reads slow down less than Python code does.  Its ratio
to a bare interpreter start (`python -c pass`) stayed within 7%.  So
whole-process timings are scaled by bare interpreter starts run just
before and just after them instead (scale_process).
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import subprocess
import sys
import time

KERNEL_WORDS = [f"k{i}=v{i * 7 % 13}" for i in range(400)]
KERNEL_REPEATS = 5
SAMPLE_PERIOD_S = 0.05
# the kernel's time in a quiet stretch on the machine the benchmark was written on
NOMINAL_S = 150e-6
# a bare interpreter start's time at the same speed, on the same machine
NOMINAL_PROCESS_S = 0.075


def kernel() -> str:
    table = {}
    for word in KERNEL_WORDS:
        key, _, value = word.partition("=")
        table[key] = value.upper()
    return ",".join(sorted(table))


def scale_process(raw_s: float, before_s: float, after_s: float) -> float:
    """A process's wall time at nominal speed, given the times of the
    bare interpreter starts (reference_process) just before and after it."""
    return raw_s * NOMINAL_PROCESS_S * 2.0 / (before_s + after_s)


class Speed:
    """Kernel samples over time, and a clock that leaves them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list[float] = []        # when each sample was taken, on now()'s clock
        self.kernel_s: list[float] = []  # each sample's median kernel time
        self.sampling_s = 0.0            # wall time spent sampling so far
        self._busy = False

    def now(self) -> float:
        """Wall-clock seconds, less the time spent sampling."""
        return self.clock() - self.sampling_s

    def sample(self, *_signal_args) -> None:
        """Record the kernel's median time over KERNEL_REPEATS runs, right now."""
        if self._busy:
            return
        self._busy = True
        clock = self.clock
        start = clock()
        times = []
        for _ in range(KERNEL_REPEATS):
            t = clock()
            kernel()
            times.append(clock() - t)
        self.at.append(start - self.sampling_s)
        self.kernel_s.append(statistics.median(times))
        self.sampling_s += clock() - start
        self._busy = False

    @contextlib.contextmanager
    def sampling(self, period: float = SAMPLE_PERIOD_S):
        """Sample every `period` seconds (SIGALRM) until the block ends, and once more then."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start, two readings of now(), in seconds at nominal speed.

        Uses the samples taken between them and the nearest one on
        either side, so call it once a sample after `end` exists.
        """
        lo = max(bisect.bisect_left(self.at, start) - 1, 0)
        hi = bisect.bisect_right(self.at, end) + 1
        return (end - start) * NOMINAL_S / statistics.fmean(self.kernel_s[lo:hi])

    def reference_process(self, env: dict) -> float:
        """Wall time, on now()'s clock, of a bare interpreter start."""
        start = self.now()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=120)
        return self.now() - start

    def slowdown(self) -> float:
        """Median kernel time over NOMINAL_S: 1.0 is the nominal speed."""
        return statistics.median(self.kernel_s) / NOMINAL_S if self.kernel_s else float("nan")
