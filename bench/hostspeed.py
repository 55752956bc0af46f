"""Host-speed reference: a fixed pure-Python probe timed between items.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a third over seconds to minutes, with CPU time equal to wall time
(other tenants slow the cores down; they do not take them away).  Item times
taken minutes apart are therefore not comparable as they stand.  The
probe below does the same fixed work every time and calls nothing in
abelcheck, so its time tracks only the host.  Every item time is scaled
by ``REFERENCE_PROBE_S`` over the mean time of the probes taken around
it, which gives the time the item would have taken on a host that runs
the probe in ``REFERENCE_PROBE_S``: reference-speed seconds.  A change
to the program moves item times and leaves the probe alone, so it shows
in full; a change of host speed moves both, and cancels.

The probe mixes integer arithmetic with dict and str work, the two kinds
of work that dominate the library, and creates one container object per
call, so it barely advances the garbage collector's counters.

Set-up times do not follow that probe: a fresh interpreter that imports
and compiles modules is slowed by other tenants in another way than a
hot loop is (over 30 set-ups on one host their correlation with the
probe was -0.04).  They follow the start-up time of an interpreter that
runs nothing (correlation 0.92), so each set-up is scaled by the
``REFERENCE_START_S`` over the start-up time taken next to it.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time

# Nominal probe time: the median on one core of an Intel Xeon (Sapphire
# Rapids, KVM guest) with Python 3.11.7.  It only fixes the unit.
REFERENCE_PROBE_S = 0.0004
PROBE_INTERVAL_S = 0.005  # at most one probe per this much wall time
WINDOW = 5  # probes taken on each side of an item
# Nominal start-up time of ``python3 -c pass`` on the same host and
# Python; like the probe time, it only fixes the unit.
REFERENCE_START_S = 0.055


def probe() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    table = {}
    for i in range(300):
        table[i] = str(i)
    for key, text in table.items():
        total += key + len(text)
    return total


def time_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class SpeedLog:
    """Probe times tagged with the number of items timed before them."""

    def __init__(self):
        self.positions: list[int] = []
        self.times: list[float] = []
        self._last = -float("inf")

    def maybe_probe(self, position: int) -> None:
        """Probe unless one was taken within ``PROBE_INTERVAL_S``."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.positions.append(position)
            self.times.append(time_probe())
            self._last = time.perf_counter()

    def scale(self, index: int) -> float:
        """Factor that turns the time of item ``index`` into
        reference-speed seconds: the reference over the mean of the
        ``WINDOW`` probes on each side of the item."""
        i = bisect.bisect_right(self.positions, index)
        window = self.times[max(0, i - WINDOW):i + WINDOW]
        return REFERENCE_PROBE_S / statistics.fmean(window)

    def host_factor(self) -> float:
        """Median probe time over the reference: above 1 on a slower host."""
        return statistics.median(self.times) / REFERENCE_PROBE_S


def time_start() -> float:
    """Wall time to start an interpreter that runs nothing, and wait for it."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - start
