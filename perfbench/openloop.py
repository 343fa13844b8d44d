"""Open-loop tuple publishing for the live cluster.

Tuples are published on a fixed schedule -- tuple ``i`` of a rung is
*due* at ``start + i / rate`` -- and the generator never waits for the
cluster: no in-flight credit gate, no per-event drain.  A stalled
cluster therefore builds a queue instead of slowing the offered load,
as independent publishers would.

Each notification is timed from the *due* time of the publish that
completed the answer (the later of its two tuples), so a stall that
delays the generator itself is charged to every answer it delays.  How
late the generator actually sent is recorded separately.

Clock and sleep are injectable so the timing arithmetic can be tested
under a fake clock.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

from measure import percentile

#: The first due time lies this far after the rung starts, so tuple 0
#: is not late by the cost of setting the rung up.
LEAD_S = 0.002

#: A rung whose last answers land more than this long after the last
#: due time did not keep up with its rate.
OVERRUN_LIMIT_S = 0.25

#: In-flight depth (posted, unhandled deliveries) growing from the first
#: to the last quarter of a rung by more than this factor (plus
#: :data:`DEPTH_SLACK` frames of noise) is a growing backlog.
DEPTH_GROWTH = 2.0
DEPTH_SLACK = 32


@dataclass(frozen=True)
class Rung:
    """One step of the rate ladder."""

    rate: float  # tuples per second offered
    tuples: int


@dataclass
class RungResult:
    rate: float
    sent: int = 0
    #: Seconds from due time to delivery, one per notification.
    latencies: list = field(default_factory=list)
    #: Seconds each publish left after its due time.
    lags: list = field(default_factory=list)
    #: In-flight depth right after each publish.
    depths: list = field(default_factory=list)
    #: Seconds from the last due time until the cluster drained.
    overrun_s: float = 0.0
    #: Seconds from the first due time until the cluster drained.
    wall_s: float = 0.0

    @property
    def backlog(self) -> bool:
        """True when the rung's queue grew instead of staying level."""
        if self.overrun_s > OVERRUN_LIMIT_S:
            return True
        quarter = max(1, len(self.depths) // 4)
        first = percentile(self.depths[:quarter], 0.5)
        last = percentile(self.depths[-quarter:], 0.5)
        return last > DEPTH_GROWTH * first + DEPTH_SLACK

    @property
    def delivered_eps(self) -> float:
        """Tuples completed per second of rung wall (drain included)."""
        return self.sent / self.wall_s


class OpenLoop:
    """Publishes rungs on schedule and times the answers they complete.

    ``publish(event)`` must insert one tuple synchronously (the cluster
    posts its frames and returns); ``depth()`` reads the in-flight
    count; ``drain()`` waits until every posted delivery was handled.
    Register :meth:`on_notification` as the listener of every query.
    """

    def __init__(
        self,
        publish: Callable[[object], None],
        depth: Callable[[], int],
        drain: Callable[[], Awaitable[None]],
        *,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ):
        self.publish = publish
        self.depth = depth
        self.drain = drain
        self.clock = clock
        self.sleep = sleep
        self.results: list[RungResult] = []
        #: pub_time -> (due time, rung index)
        self._due: dict[float, tuple[float, int]] = {}

    def on_notification(self, notification) -> None:
        completed_by = max(notification.trigger_pub_time, notification.match_pub_time)
        entry = self._due.get(completed_by)
        if entry is not None:
            due, rung = entry
            self.results[rung].latencies.append(self.clock() - due)

    async def run_rung(self, rung: Rung, events: Sequence) -> RungResult:
        """Publish ``events`` (tuple events) at ``rung.rate``; drain."""
        index = len(self.results)
        result = RungResult(rate=rung.rate)
        self.results.append(result)
        clock = self.clock
        start = clock() + LEAD_S
        interval = 1.0 / rung.rate
        due = start
        for position, event in enumerate(events):
            due = start + position * interval
            wait = due - clock()
            if wait > 0:
                await self.sleep(wait)
            result.lags.append(clock() - due)
            self._due[event.time] = (due, index)
            self.publish(event)
            result.depths.append(self.depth())
        result.sent = len(events)
        await self.drain()
        end = clock()
        result.overrun_s = end - due
        result.wall_s = end - start
        return result
