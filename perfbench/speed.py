"""Scale measured times to a reference machine speed.

On a machine shared with other work the speed of one thread drifts: on the
2.1 GHz Xeon vCPU this benchmark was tuned on, one fixed pure-Python loop
took from 43 ms to 94 ms within a minute, in phases that last seconds.  So a
fixed probe of exact arithmetic, like the library's own work, runs between
queries at least every PROBE_EVERY_S, and each measured time is scaled by
REFERENCE_NS / (probe time around it).  The probe does not touch tropica,
so a slower library still reads slower; only the machine's drift is taken
out.  Scaling cut the spread of 30-query block means of one hypersurface
query from 7.4 % to 1.3 % there.
"""

from __future__ import annotations

import statistics
from array import array
from fractions import Fraction
from time import perf_counter, perf_counter_ns

# probe time at the reference speed: about its typical time on that vCPU
REFERENCE_NS = 500_000
PROBE_EVERY_S = 0.02


def probe_ns() -> int:
    start = perf_counter_ns()
    total = Fraction(0)
    seen = {}
    for i in range(1, 250):
        total += Fraction(i % 7 - 3, i % 5 + 1)
        seen[(i % 13, i % 11)] = total
    return perf_counter_ns() - start


class Speed:
    """Probes between measurements, and the measurements they bracket."""

    def __init__(self):
        self.probes = [probe_ns()]
        self.last = perf_counter()
        # each sample's time and the index of the probe before it, kept in
        # arrays so that the benchmark's own memory barely grows with a run
        self.samples = array("q")
        self.before = array("q")

    def tick(self) -> None:
        """Probe if PROBE_EVERY_S have passed since the last probe."""
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probes.append(probe_ns())
            self.last = perf_counter()

    def record(self, ns: int) -> None:
        self.samples.append(ns)
        self.before.append(len(self.probes) - 1)

    def scaled(self) -> list[float]:
        """The recorded times in reference nanoseconds, in recording order.

        Each probe is smoothed with its neighbours (median of three), and a
        sample is scaled by the mean of the two probes that bracket it.
        """
        self.probes.append(probe_ns())
        p = self.probes
        smooth = [statistics.median(p[max(0, i - 1) : i + 2]) for i in range(len(p))]
        return [
            ns * 2 * REFERENCE_NS / (smooth[i] + smooth[i + 1])
            for ns, i in zip(self.samples, self.before)
        ]
