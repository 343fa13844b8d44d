"""Hot path 5: query rewriting and its allocation churn.

``rewrite()`` runs once per (stored query, trigger tuple) pair — the
hottest application-level call of the simulator — and allocates one
``RewrittenQuery`` each time.  ``sql.rewrite`` times one query on its
own; ``sql.rewrite_group16`` times one trigger over a 16-query group
sharing one :class:`~repro.sql.query.TriggerBinding` (four select
lists), per query, the way ``Algorithm._rewrite_group`` runs it.  The
last figures isolate simulator event/message construction, the per-hop
allocation the ``__slots__`` pass trimmed.
"""

from __future__ import annotations

import random

from repro.sim.events import Event
from repro.sim.messages import ALIndexMessage
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, Subscriber, TriggerBinding, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

from _common import best_of, report

R = Relation("R", ("A", "B", "C"))
SUB = Subscriber("bench", 1, "10.0.0.1")


def run(loops: int = 30_000) -> list[dict]:
    rng = random.Random(19)
    query = parse_query("SELECT R.A, S.D FROM R, S WHERE R.B = S.E").with_subscription(
        "bench#0", 0.0, SUB
    )
    tuples = [
        DataTuple(R, (rng.randrange(900), rng.randrange(900), rng.randrange(900)), float(i))
        for i in range(512)
    ]
    n_tuples = len(tuples)
    state = {"i": 0}

    def one_rewrite():
        i = state["i"]
        state["i"] = (i + 1) % n_tuples
        rewrite(query, LEFT, tuples[i])

    selects = ("R.A, S.D", "S.D, R.C", "R.A, R.C, S.F", "S.D")
    group = [
        parse_query(
            f"SELECT {selects[i % len(selects)]} FROM R, S WHERE R.B = S.E"
        ).with_subscription(f"bench#{i}", 0.0, SUB)
        for i in range(16)
    ]

    def one_group_trigger():
        i = state["i"]
        state["i"] = (i + 1) % n_tuples
        tup = tuples[i]
        binding = TriggerBinding(group[0], LEFT, tup)
        for member in group:
            rewrite(member, LEFT, tup, binding)

    def nothing():
        pass

    def one_event():
        Event(5.0, 1, nothing, "tuple")

    def one_message():
        ALIndexMessage(tuple=tuples[0], index_attribute="B")

    return [
        report("sql.rewrite", best_of(one_rewrite, loops=loops)),
        report(
            "sql.rewrite_group16",
            best_of(one_group_trigger, loops=loops // 16) / len(group),
            group_size=len(group),
        ),
        report("sim.event_alloc", best_of(one_event, loops=loops)),
        report("sim.message_alloc", best_of(one_message, loops=loops)),
    ]


if __name__ == "__main__":
    for row in run():
        print(row)
