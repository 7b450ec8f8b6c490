"""Host-speed clock: keeps the host's own speed changes out of the timings.

On a small shared box the same code runs up to ~1.6x slower for stretches of
seconds to minutes (a fixed pure-Python loop flips between ~38 and ~60 ms), and
a probe in *another* process does not track it: it sees another core.  So the
probe runs in the process doing the work, in the same thread: a SIGALRM timer
runs a fixed ~0.3 ms loop every ``TICK_S`` (~1% of the time; a 0.3 ms loop
finishes inside one 5 ms GIL switch interval, so other threads do not stretch
it).  A timed interval is then rescaled to the reference host speed:

    host_s = elapsed * mean(REFERENCE_S / probe_s over the interval's ticks)

i.e. the seconds the interval would have taken on a host where the probe loop
takes ``REFERENCE_S``.  On the 2-core box the benchmark was built on, five
report-cold runs read 12.3-16.1 s raw and 10.7-11.3 s rescaled; over ten runs
per workload the rescaled ``wall_s`` spread (IQR / median) is 3-4% where the
raw one was 25-33%.  Raw times stay in each run's ``meta`` line.
"""

from __future__ import annotations

import json
import signal
from time import perf_counter

#: Iterations of the probe loop, and its duration on the reference host
#: (a fast stretch of a 2-core x86-64 box, Python 3.11).
PROBE_LOOPS = 10_000
REFERENCE_S = 0.0003
#: Seconds between probes.
TICK_S = 0.05
#: Half-width of the window of ticks that rescales one short sample.
WINDOW_S = 0.15


def _probe() -> float:
    begin = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i
    return perf_counter() - begin


class HostClock:
    """Probe ticks ``(time, probe seconds)`` of one process, and rescaling by them."""

    def __init__(self, ticks=()):
        self.ticks: list[tuple[float, float]] = [tuple(tick) for tick in ticks]

    def _tick(self, *_signal_args) -> None:
        now = perf_counter()
        self.ticks.append((now, _probe()))

    def start(self) -> "HostClock":
        """Probe now and every ``TICK_S`` from here on (main thread only)."""
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, begin: float, end: float) -> float:
        """Mean host speed over ``[begin, end]``, relative to the reference."""
        inside = [probe for at, probe in self.ticks if begin <= at <= end]
        if not inside:  # shorter than a tick: the nearest one
            middle = (begin + end) / 2
            inside = [min(self.ticks, key=lambda tick: abs(tick[0] - middle))[1]]
        return sum(REFERENCE_S / probe for probe in inside) / len(inside)

    def host_s(self, begin: float, end: float, window: float = 0.0) -> float:
        """``end - begin`` rescaled to the reference host speed, judged from the
        ticks within ``window`` seconds of the interval."""
        return (end - begin) * self.speed(begin - window, end + window)

    def save(self, path) -> None:
        with open(path, "w") as stream:
            json.dump(self.ticks, stream)

    @classmethod
    def load(cls, path) -> "HostClock":
        with open(path) as stream:
            return cls(json.load(stream))
