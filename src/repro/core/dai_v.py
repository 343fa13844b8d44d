"""DAI-V — value-based double-attribute indexing (Section 4.5).

Designed for type-T2 queries (arbitrary expressions in the join
condition), and covering T1 as well.  The evaluator identifier is the
hash of the *value* the triggered side of the join condition takes:
``VIndex(q'_L) = Hash(str(valJC(q_L, t)))`` — no relation or attribute
prefix.  Tuples are indexed at the attribute level **only**; the
rewriter ships a projection of the trigger tuple together with the
rewritten query (``join(q'_L, t'_1)``), the evaluator matches the
rewritten query against stored projections of the opposite relation,
stores the new projection, and discards the rewritten query.

Because identifiers carry no attribute names, rewritten queries group
very well (less traffic) but all queries sharing a join value land on
the same node (worse load distribution) — the tradeoff Chapter 5
measures.

The ``keyed`` extension prefixes ``Key(q)`` to the value
(``VIndex = Hash(Key(q) + valJC)``): load spreads per query, but
grouping disappears and traffic explodes ("approximately by a factor of
250" in the paper's 10^4-node / 10^5-query setup) — experiment E17.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chord.node import ChordNode
from ..errors import QueryError
from ..sim.messages import JoinMessage, VLIndexMessage
from ..sql.query import RewrittenQuery
from .dai_base import DoubleAttributeIndex
from .tables import StoredProjection

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DAIValue(DoubleAttributeIndex):
    """The DAI-V algorithm."""

    name = "dai-v"
    supports_t2 = True
    indexes_tuples_at_value_level = False
    wants_projection = True

    def evaluator_ident(
        self, engine: "ContinuousQueryEngine", rewritten: RewrittenQuery
    ) -> int:
        """``Hash(str(value))`` — or ``Hash(Key(q) + value)`` when keyed."""
        if engine.config.daiv_keyed:
            return engine.network.hash.hash_parts(
                rewritten.original_key, rewritten.required_value
            )
        # ``make_key(v) == str(v)`` for a single part, so the memoized
        # parts lookup computes the same identifier.
        return engine.network.hash.hash_parts(rewritten.required_value)

    def ident_per_query(self, engine: "ContinuousQueryEngine") -> bool:
        """The keyed variant spreads a group over one evaluator per query."""
        return engine.config.daiv_keyed

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Match each rewritten query against stored opposite-relation
        projections, then store this trigger's projection.

        The join value is re-checked on every candidate, so identifier
        collisions between different values are harmless.
        """
        state = engine.state(node)
        state.load.messages_processed += 1
        if len(msg.projections) != len(msg.rewritten):
            raise QueryError("DAI-V join message lost its projections")
        notifications = []
        # Batches are grouped per evaluator identifier (§4.3.5), so every
        # rewritten query in the message shares the same ident.
        ident = None
        for rewritten, projection in zip(msg.rewritten, msg.projections):
            candidates = state.projections.candidates(
                rewritten.group_signature, rewritten.relation, rewritten.required_value
            )
            state.load.add_value_level(len(candidates))
            for stored in candidates:
                if not self._within_window(
                    engine, stored.projection.pub_time, rewritten.trigger_pub_time
                ):
                    continue
                if not rewritten.matches(stored.projection, check_value=True):
                    continue
                notification = self._emit(
                    engine,
                    state,
                    rewritten,
                    stored.projection,
                    rewritten.trigger_pub_time,
                )
                if notification is not None:
                    notifications.append(notification)
            if ident is None:
                ident = self.evaluator_ident(engine, rewritten)
            state.projections.add(
                StoredProjection(
                    projection=projection,
                    group_signature=rewritten.group_signature,
                    value=rewritten.required_value,
                    routing_ident=ident,
                )
            )
        engine.deliver_notifications(node, notifications)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:  # pragma: no cover - defensive
        raise QueryError("DAI-V does not index tuples at the value level")
