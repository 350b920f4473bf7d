"""A fixed pure-Python probe of how fast the machine runs right now.

On a shared host the speed one process gets drifts: on a 2-vCPU cloud VM
the same request took anywhere from 0.75x to 1.3x its typical time, in
stretches lasting minutes, so two runs of identical code could differ by
a third.  The benchmark therefore interleaves short probes with the
requests and reports times in reference seconds: a stretch of wall time t,
bracketed by probes that took p1 and p2, counts as
t * REFERENCE_S / mean(p1, p2).  The probe shares no code with equicode,
so a change to the library moves the requests and never the probe.
"""

from __future__ import annotations

import statistics
import time

# Seconds one probe takes on the nominal reference machine, about a
# typical reading on the 2-vCPU VM the baseline was measured on.
REFERENCE_S = 0.02
# Request time between two probes; a longer stretch is followed by one
# probe per PROBE_EVERY_S, averaged, so that probing costs the same share
# of a run whatever the request length and the reading after a long
# request is as steady as after a short one.
PROBE_EVERY_S = 0.5

_P = 12289
_N = 1024
_ROOTS = [pow(11, i, _P) for i in range(_N)]


def _work():
    """Radix-2 butterflies over F_12289, the workloads' commonest inner loop.

    It allocates no container objects, so garbage collection, whose cost
    grows with the heap the library keeps, never runs inside a probe.
    """
    a = list(range(1, _N + 1))
    for _ in range(9):
        length = 2
        while length <= _N:
            half = length >> 1
            step = _N // length
            for start in range(0, _N, length):
                widx = 0
                for k in range(start, start + half):
                    u = a[k]
                    v = a[k + half] * _ROOTS[widx] % _P
                    a[k] = (u + v) % _P
                    a[k + half] = (u - v) % _P
                    widx += step
            length <<= 1
    return a


def probe():
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class ScaledClock:
    """Accumulates wall times per key and converts them to reference seconds.

    Times recorded between two probe readings are scaled by the mean of
    those two readings.  A reading is taken once PROBE_EVERY_S of time has
    been recorded since the last one, on `flush`, and at creation.
    """

    def __init__(self):
        self.probes = [probe()]
        self._pending = []
        self.totals = {}

    def record(self, key, seconds):
        self._pending.append((key, seconds))
        if sum(s for _, s in self._pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self):
        pending = sum(s for _, s in self._pending)
        units = max(1, round(pending / PROBE_EVERY_S))
        self.probes.append(statistics.mean(probe() for _ in range(units)))
        scale = 2 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
        for key, seconds in self._pending:
            self.totals[key] = self.totals.get(key, 0.0) + seconds * scale
        self._pending = []

    def scale(self):
        """Reference seconds per wall second over the whole clock."""
        return REFERENCE_S / statistics.median(self.probes)
