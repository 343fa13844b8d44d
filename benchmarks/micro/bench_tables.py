"""Hot path 2: value-level table maintenance (add + window eviction).

The VLQT absorbs one ``add`` per delivered rewritten query and one
``evict_older_than`` sweep every eviction round.  The lazy bucket heap
keeps eviction proportional to the number of expiring buckets; this
bench drives a sliding window over a continuous add stream, the same
access pattern the windowed experiments (E8/E9) produce.
``tables.vlqt_add_evict`` inserts one rewritten query per trigger;
``tables.vlqt_message_add_evict`` inserts 16 per trigger into one
bucket, as a ``join()`` message of a 16-query group does (only the
first insert arms the bucket), timed per insert.
"""

from __future__ import annotations

import random
import time

from repro.core.tables import ValueLevelQueryTable
from repro.sql.query import RewrittenQuery, Subscriber

from _common import report

SUB = Subscriber("bench", 1, "10.0.0.1")


def _rewritten(i: int, value: int, trigger_time: float) -> RewrittenQuery:
    return RewrittenQuery(
        key=f"q{i}+{value}",
        original_key=f"q{i}",
        group_signature="sig",
        subscriber=SUB,
        insertion_time=0.0,
        relation="R",
        expr=None,
        required_value=value,
        dis_attribute="A",
        dis_value=value,
        filters=(),
        select=(),
        trigger_pub_time=trigger_time,
    )


def _stream(n_events: int, window: float, per_message: int) -> tuple[float, int, int]:
    """Seconds per insert, evictions and residents of one add stream
    with ``per_message`` rewritten queries per trigger."""
    rng = random.Random(11)
    table = ValueLevelQueryTable()
    start = time.perf_counter()
    evicted = 0
    for event in range(n_events):
        now = float(event)
        keys = [rng.randrange(2_000) for _ in range(per_message)]
        value = rng.randrange(64)
        for key in keys:
            table.add(_rewritten(key, value, now), 0)
        if event % 64 == 0:
            evicted += table.evict_older_than(now - window)
    elapsed = time.perf_counter() - start
    return elapsed / (n_events * per_message), evicted, len(table)


def run(n_events: int = 30_000, window: float = 500.0) -> list[dict]:
    rows = []
    for name, per_message, events in (
        ("tables.vlqt_add_evict", 1, n_events),
        ("tables.vlqt_message_add_evict", 16, n_events // 16),
    ):
        seconds, evicted, resident = _stream(events, window, per_message)
        rows.append(
            report(name, seconds * 1e9, per_message=per_message, evicted=evicted, resident=resident)
        )
    return rows


if __name__ == "__main__":
    for row in run():
        print(row)
