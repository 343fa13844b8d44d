"""DAI-Q — notifications are created when rewritten *queries* arrive
(Section 4.4.2).

An evaluator receiving a rewritten query evaluates it against the
locally stored tuples and creates the notifications, but does **not**
store the rewritten query; an arriving tuple is stored but triggers
nothing.  This breaks the duplicate-notification symmetry of
double-attribute indexing: for any tuple pair, exactly the *later*
tuple's attribute-level trigger produces the notification, because only
then is the earlier tuple already stored at the evaluator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sql.expr import canonical_value
from ..chord.node import ChordNode
from ..sim.messages import JoinMessage, VLIndexMessage
from .dai_base import DoubleAttributeIndex
from .tables import StoredTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


class DAIQuery(DoubleAttributeIndex):
    """The DAI-Q algorithm."""

    name = "dai-q"
    supports_t2 = False
    indexes_tuples_at_value_level = True

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        """Evaluate against stored tuples; do not store the queries."""
        state = engine.state(node)
        state.load.messages_processed += 1
        notifications = self._match_rewritten_against_tuples(engine, state, msg.rewritten)
        engine.deliver_notifications(node, notifications)

    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        """Store the tuple so it is available when rewritten queries
        arrive; create no notifications (that would duplicate the ones
        the other rewriter produces).  Republished tuples
        (``msg.refresh``) are stored only when missing."""
        state = engine.state(node)
        state.load.messages_processed += 1
        if msg.refresh and state.vltt.contains(msg.tuple, msg.index_attribute):
            return
        ident = engine.network.hash.hash_parts(
            msg.tuple.relation.name,
            msg.index_attribute,
            canonical_value(msg.tuple.value(msg.index_attribute)),
        )
        state.vltt.add(StoredTuple(msg.tuple, msg.index_attribute, ident))
