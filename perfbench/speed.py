"""Job times at a reference machine speed.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts: a fixed pure-Python loop runs up to about 1.5
times slower for tens of seconds at a time, in process CPU time as much
as in wall time.  Between two runs of the same job that drift is
larger than any bound a later change could be held to.

While a round runs, a SIGALRM timer runs a fixed pure-Python loop, the
probe, every INTERVAL_S seconds: once to bring its data back into the
cache, then once timed.  The signal handler runs between the job's
bytecodes, so the probes sample the machine's speed throughout each
job, even a single call that takes twenty seconds.  A job's time at
reference speed is its measured time, less the time its handler calls
took, times REFERENCE_S over the median timed probe from WINDOW_S
before the job to WINDOW_S after it.  The probe touches nothing of
brauerkit, and its timed pass runs on a warm cache, so what brauerkit
does to the cache does not reach its time either: a change to
brauerkit moves a job's time and not the probe's.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from bisect import bisect_left, bisect_right
from statistics import median

INTERVAL_S = 0.025     # the handler takes 2 to 4% of a round
WINDOW_S = 0.5
NEAREST = 5            # probes used at least, for a job with none in its window
REFERENCE_S = 300e-6   # a fixed unit: about the timed probe on an idle host (README)

_TABLE = {k: k & 7 for k in range(4096)}
_KEYS = random.Random("probe").sample(range(4096), 2500)


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def plus(self, x):
        return self.value + x


_CELLS = [_Cell(i) for i in range(64)]


def probe_loop():
    """Dict lookups, method calls and small frozensets, the kinds of work
    brauerkit does, on a working set small enough to stay in cache."""
    s = 0
    for k in _KEYS:
        s += _TABLE[k]
    for i in range(1000):
        s += _CELLS[i & 63].plus(i)
    seen = set()
    for i in range(250):
        seen |= frozenset((i, i + 1, i + 2))
    return s + len(seen)


class SpeedProbe:
    """Use as a context manager around a round; then reference() gives
    the reference-speed time of an interval timed with perf_counter."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")     # the timed pass
        self.spent = array("d")     # the whole handler call

    def _probe(self, *_):
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        probe_loop()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t2 - t1)
        self.spent.append(t2 - t0)

    def __enter__(self):
        for _ in range(NEAREST):    # so that the first job has probes before it
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference(self, t0, t1):
        """Seconds the interval [t0, t1] would take at reference speed."""
        first, last = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        lo = min(bisect_left(self.starts, t0 - WINDOW_S), max(0, first - NEAREST))
        hi = max(bisect_right(self.starts, t1 + WINDOW_S), min(len(self.starts), last + NEAREST))
        own = sum(self.spent[first:last])
        return (t1 - t0 - own) * REFERENCE_S / median(self.times[lo:hi])

    def median_s(self):
        return median(self.times)
