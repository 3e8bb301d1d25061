"""Host speed, sampled while a run measures, so that times can be given at
one fixed speed.

The benchmark's host is a few cores of a shared machine whose speed
switches between regimes about 1.45x apart (sometimes more) that last from
a few to tens of seconds, longer than a ``many-small`` round.  Raw times of
runs of the same code therefore spread by up to a third, and no run length
the benchmark can afford averages that out.  So, while a run measures, a
``SIGALRM`` timer interrupts it every ``INTERVAL_S`` and times a short fixed
probe in the main thread: storing tuple keys in a dict and reading them
back, the kind of work ltsim does.  The keys are made once, so a probe
allocates nothing but the dict.  Of the probes tried (integer
arithmetic, integer-keyed dicts, random reads of a large list, objects
with slots, calls, sets of tuples), tuple-keyed dicts tracked ltsim best:
regressed on the probe's time across regimes, the log of a short ltsim
job's time had slope about 1.08 and correlation 0.94 (integer arithmetic: 1.60
and 0.96, a large list: 2.75 and 0.95).

``HostSpeed.adjusted(start, end)`` then gives the seconds the interval
would have taken at the reference speed: each stretch of the interval is
weighted by ``REF_PROBE_S`` over the (smoothed) probe time
measured at its end, and the probes' own time is left out.  A change to
ltsim moves adjusted times as it moves wall times; a change of host regime
moves wall times and probe times alike, and so cancels.

The handler adds one frame to whatever ltsim is doing when it fires.  It
turns the garbage collector off while it runs and frees its dict before it
turns it back on, so it neither collects ltsim's objects nor brings
ltsim's collections forward; and as it makes no small objects, it does not
grow the process's peak memory by a fresh pymalloc arena.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
PROBE_KEYS = 1000
# the probe's duration at the reference speed: its fast-regime time on the
# 2-vCPU x86-64 VM (Python 3.11) the benchmark was written on
REF_PROBE_S = 0.00012
SMOOTH = 5  # probes in the rolling median that stands for the speed at a time
_KEYS = [(i, i & 7) for i in range(PROBE_KEYS)]


class HostSpeed:
    """Context manager: samples the probe while open; ``adjusted`` after."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.factors: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        d = {}
        for i, k in enumerate(_KEYS):
            d[k] = i
        t = 0
        for k, v in d.items():
            t += v
        del d
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        half = SMOOTH // 2
        d = self.durations
        self.factors = [REF_PROBE_S / statistics.median(d[max(0, i - half):i + half + 1]) for i in range(len(d))]

    def adjusted(self, start: float, end: float) -> float:
        """Seconds that [start, end] would have taken at the reference
        speed, leaving out the probes that ran inside it."""
        total, lo = 0.0, start
        i = bisect.bisect_left(self.ends, start)
        while lo < end:
            if i == len(self.ends):
                return total + (end - lo) * self.factors[-1]
            probe_start = self.ends[i] - self.durations[i]
            total += max(0.0, min(end, probe_start) - lo) * self.factors[i]
            lo = max(lo, self.ends[i])
            i += 1
        return total

    def probe_share(self) -> float:
        """Share of the sampled time the probes took."""
        span = self.ends[-1] - (self.ends[0] - self.durations[0])
        return sum(self.durations) / span if span > 0 else 0.0
