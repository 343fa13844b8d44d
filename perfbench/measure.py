"""Small statistics helpers shared by the workloads and the self-tests,
and the host-pace probe that turns CPU seconds into reference seconds."""

from __future__ import annotations

import resource
import signal
import statistics
import sys
import time
from typing import Callable, NamedTuple, Sequence

#: Percentiles a latency sample may support, lowest first.
PERCENTILES = (0.50, 0.90, 0.99, 0.999)

#: Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def highest_supported(count: int) -> float | None:
    """The highest of :data:`PERCENTILES` with at least
    :data:`TAIL_SAMPLES` samples beyond it, or ``None`` if even the
    median is unsupported."""
    best = None
    for q in PERCENTILES:
        if count * (1.0 - q) >= TAIL_SAMPLES - 1e-9:
            best = q
    return best


def peak_rss_mb() -> float:
    """Lifetime peak resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes there
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


# ----------------------------------------------------------------------
# Host pace
# ----------------------------------------------------------------------

#: The benchmark shares a 2-core VM with other tenants.  How many
#: instructions a CPU second buys moves with what they run: one input's
#: stream read 1.47 to 2.16 CPU s a few seconds apart, and set medians
#: of identical code drifted by 40% within an hour.  A fixed probe,
#: interleaved with the measured work so that it meets the same
#: contention, tracks that pace: stream CPU time over probe CPU time
#: varied by 2.3% where the stream alone varied by 10%.

_PROBE_KEYS = tuple((i % 7, i) for i in range(64))
_PROBE_TABLE = {key: i for i, key in enumerate(_PROBE_KEYS)}
_PROBE_ROUNDS = 8

#: CPU seconds one timed probe slice took on the reference host (a
#: shared 2-core x86-64 VM; the mean there is 23-27 us).  One
#: *reference second* is the work of ``1 / PROBE_REFERENCE_S`` slices,
#: about one CPU second of that host.
PROBE_REFERENCE_S = 2.5e-5

#: Seconds between probe slices.
PROBE_INTERVAL_S = 0.005


def probe_slice() -> int:
    """A fixed piece of interpreter work: dict lookups on tuple keys
    over a table small enough to stay in cache, allocating nothing the
    collector tracks."""
    total = 0
    table = _PROBE_TABLE
    for _ in range(_PROBE_ROUNDS):
        for key in _PROBE_KEYS:
            total += table[key]
    return total


#: Slices slower than this many times the region's median are left out
#: of its pace: one an interrupt or a page fault lands in reads up to 20
#: times the typical one, while contention moves slices by less than 3.
PROBE_OUTLIER = 5.0


class Mark(NamedTuple):
    """A point in a run: CPU clock, probe CPU seconds and slices so far."""

    cpu: float
    probe_s: float
    slices: int


class Pace:
    """Runs :func:`probe_slice` every :data:`PROBE_INTERVAL_S` (a
    ``SIGALRM`` timer), between the bytecodes of whatever the program is
    doing, and converts CPU time between two :class:`Mark` s into
    reference seconds: the CPU seconds minus the probe's own, scaled by
    how fast the probe ran in that interval against
    :data:`PROBE_REFERENCE_S`.

    Each tick runs the probe twice and times the second run, so the
    probe meets the core's pace with its own data in cache, whatever the
    program's working set evicted in between.

    The timer counts wall time: a CPU-time timer (``ITIMER_PROF``) makes
    the kernel serve the process CPU clock from its coarse timer
    accounting, and a 50-microsecond slice then reads as 0 s.

    ``clock`` and ``probe`` are injectable for the self-tests.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.process_time,
        probe: Callable[[], object] = probe_slice,
    ):
        self.clock = clock
        self.probe = probe
        self.probe_s = 0.0
        #: CPU seconds of each timed slice.
        self.timed: list[float] = []
        self._previous = None

    @property
    def slices(self) -> int:
        return len(self.timed)

    def tick(self, *_signal) -> None:
        clock = self.clock
        start = clock()
        self.probe()
        warm = clock()
        self.probe()
        end = clock()
        self.probe_s += end - start
        self.timed.append(end - warm)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(self.clock(), self.probe_s, self.slices)

    def seconds(self, start: Mark, end: Mark) -> float:
        """Reference seconds of the work between two marks."""
        timed = self.timed[start.slices : end.slices]
        limit = PROBE_OUTLIER * statistics.median(timed) if timed else 0.0
        kept = [t for t in timed if t <= limit]
        pace = sum(kept) / len(kept) if kept else 0.0
        if pace <= 0.0:
            raise ValueError("no probe slice ran between the marks; the interval is too short")
        work_s = end.cpu - start.cpu - (end.probe_s - start.probe_s)
        return work_s * PROBE_REFERENCE_S / pace
