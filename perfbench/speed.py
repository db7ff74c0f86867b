"""The machine-speed reference that the benchmark's times are scaled by.

The benchmark runs on a few cores of a shared host.  When the host is
busy, every instruction of the benchmark's process runs slower for tens of
seconds at a time (1.5x and more, with no steal time reported), so two
runs of the same job differ by more than the regressions the benchmark is
meant to catch.  To take that out, a fixed pure-Python reference loop is
timed in short slices: before each set-up load, before each job, and from
a timer signal every `INTERVAL_S` while the job runs (the slices' time is
taken out of the job's).  A job's wall time is multiplied by

    REF_SLICE_S / mean(slice times of that job, slowest tenth left out)

and each load's by the same ratio over the slices of its set-up, which
gives the time on the reference machine while its host was quiet.  The
reference loop never calls polex, so a change to polex moves the scaled
times and leaves the scale alone.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from contextlib import contextmanager

# A slice has three parts, because the host slows different code by
# different amounts: work on a few hot objects (dict lookups and branches
# over a small CNF), loads scattered over a few MB of objects, and a scan
# of a larger clause set in scattered order, as unit propagation does.
# Their sum followed the jobs' slow-downs better across quiet and busy
# spells than any one part: when the host is busiest, the first part slows
# as much as the jobs do and the others less.
_rng = random.Random(0)
_SMALL_CNF = [tuple(_rng.choice((1, -1)) * _rng.randint(1, 60) for _ in range(3)) for _ in range(250)]
_SCATTER = [1000 + i for i in range(1 << 16)]  # ints, so each load is an object of its own
_SCATTER_STRIDE = 40503  # odd, so the walk visits every element
_BIG_VARS = 3000
_BIG_CNF = [[_rng.choice((1, -1)) * _rng.randint(1, _BIG_VARS) for _ in range(_rng.randint(2, 6))]
            for _ in range(12000)]
_rng.shuffle(_BIG_CNF)
# Sized so that each part takes about a third of a slice.
SMALL_PASSES, SCATTER_LOADS, BIG_CLAUSES = 35, 7000, 4700
# Mean slice time during a job on the reference machine (2-CPU Intel
# Xeon VM, Python 3.11.7) while the host was quiet; a slice there is
# slower than one run on its own, because the job has cooled the caches.
# It only sets the scale: a scaled time reads as seconds on that machine
# at that speed.
REF_SLICE_S = 0.0045
INTERVAL_S = 0.1


class _Cursor:
    scatter = 0
    big = 0


def _slice() -> int:
    sat = 0
    for p in range(SMALL_PASSES):
        value = {v: (v * 7 + p) % 3 == 0 for v in range(1, 61)}
        for clause in _SMALL_CNF:
            for lit in clause:
                if (lit > 0) == value[abs(lit)]:
                    sat += 1
                    break
    k, n = _Cursor.scatter, len(_SCATTER)
    for _ in range(SCATTER_LOADS):
        sat += _SCATTER[k] & 1
        k = (k + _SCATTER_STRIDE) % n
    _Cursor.scatter = k
    value = [False] + [v % 3 == 0 for v in range(1, _BIG_VARS + 1)]
    first = _Cursor.big
    for clause in _BIG_CNF[first:first + BIG_CLAUSES]:
        for lit in clause:
            if (lit > 0) == value[lit if lit > 0 else -lit]:
                sat += 1
                break
    _Cursor.big = (first + BIG_CLAUSES) % len(_BIG_CNF)
    return sat


class Probe:
    """Reference slices taken around and during one job, or one set-up."""

    def __init__(self):
        self.slices: list[float] = []
        self.paused = 0.0  # seconds spent in slices inside `sampling()`

    def sample(self) -> float:
        # With the collector off, a collection of the job's objects cannot
        # fall inside the slice; the slice allocates little.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _slice()
        elapsed = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.slices.append(elapsed)
        return elapsed

    @contextmanager
    def sampling(self):
        """Take a slice every INTERVAL_S of wall time while the block runs."""

        def on_alarm(signum, frame):
            self.paused += self.sample()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from this job's wall seconds to reference seconds.

        The slices sample the job's time evenly, so their mean follows its
        slow-down (the median missed a third of it when the host was
        busiest); the slowest tenth is left out, so that one slice that
        took the whole of a rare long pause does not count for many.
        """
        fastest = sorted(self.slices)[: max(1, len(self.slices) * 9 // 10)]
        return REF_SLICE_S / statistics.fmean(fastest)
