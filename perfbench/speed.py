"""CPU-speed sampling, so that timed spans can be rescaled to a reference speed.

On a shared host the speed at which this process runs drifts by up to 1.7x
within a minute (a fixed pure-Python loop takes 16.5 ms in one state and 28
ms in the next), far more than any bound on a run's wall time can absorb.
`Sampler` runs a fixed pure-Python probe, independent of mrex, from a
SIGALRM handler every `INTERVAL` seconds of wall time while the workload
runs in the same thread.  A span's *scaled* time is its wall time minus the
samples taken inside it, weighted sample by sample by
`REFERENCE_PROBE_S / probe time`: the time the span would have taken at the
speed at which the probe takes `REFERENCE_PROBE_S`.  A faster program
shortens the span and leaves the probes alone, so the scaling keeps its
speed-up; a slower machine lengthens both, and the scaling cancels it.

No thread or process is started: the probe runs between two bytecodes of
the workload, in its own thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.02
# The probe's time on a 2-vCPU Intel Xeon virtual machine at its faster
# speed; a scaled time is a wall time at that speed.
REFERENCE_PROBE_S = 110e-6
# Samples used for a span that holds fewer than this many: about half a
# second around it.  The speed drifts over seconds, and one probe is noisy.
NEAREST = 25


# The probe's table: 30 000 pairs of ints, about 3 MiB, so that its lookups
# reach past the core's own caches the way mrex's do.
_TABLE = [(i, -i) for i in range(30_000)]
_LOOKUPS = [i * 7919 % 30_000 for i in range(600)]


def probe() -> float:
    """One fixed pure-Python probe, independent of mrex: arithmetic and a
    small dict, then scattered lookups in a table of a few MiB; returns its
    wall time."""
    clock = time.perf_counter
    started = clock()
    total, counts = 0, {}
    for i in range(600):
        total += i * i % 7
        counts[i & 63] = counts.get(i & 63, 0) + 1
    table = _TABLE
    for i in _LOOKUPS:
        total += table[i][1]
    return clock() - started


def probe_median(count: int = 15) -> float:
    return statistics.median(probe() for _ in range(count))


class Sampler:
    """Probe samples taken from a SIGALRM handler while it is started.
    A sample runs the probe twice and keeps the second time: the first run
    brings the probe's code and table back into the caches, so that the
    sample follows the machine's speed rather than what mrex left in the
    caches.  `starts` (sorted), `costs` (the handler's whole time) and
    `probes` (the kept time) hold one entry per sample."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.probes: list[float] = []
        self._busy = False

    def _handler(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        probe()
        self.probes.append(probe())
        self.starts.append(started)
        self.costs.append(time.perf_counter() - started)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def overall(self) -> tuple[float, float]:
        """(total sampling time, mean REFERENCE_PROBE_S / probe) over every
        sample; one probe taken now stands in if the sampler never ran."""
        probes = self.probes or [probe_median()]
        return (sum(self.costs),
                statistics.fmean(REFERENCE_PROBE_S / p for p in probes))

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without the samples inside it, rescaled to
        the reference speed by the mean of REFERENCE_PROBE_S / probe over
        the samples inside it, or over the NEAREST samples around it if it
        holds fewer."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        own = (t1 - t0) - sum(self.costs[lo:hi])
        inside = self.probes[lo:hi]
        if hi - lo < NEAREST:
            mid = max(0, min(len(self.probes) - NEAREST, (lo + hi - NEAREST) // 2))
            inside = self.probes[mid:mid + NEAREST]
        if not inside:
            raise RuntimeError("no speed sample: the sampler never ran")
        return own * statistics.fmean(REFERENCE_PROBE_S / p for p in inside)
