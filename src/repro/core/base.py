"""Shared machinery of the four query-processing algorithms (Chapter 4).

All algorithms follow the same two-level template:

1. a query is indexed at the **attribute level** (one side for SAI,
   both sides for the DAI family) and waits at rewriter nodes;
2. every incoming tuple is indexed at the attribute level (and, except
   under DAI-V, at the value level too);
3. a rewriter receiving a tuple triggers, rewrites and reindexes the
   stored queries toward **value-level** evaluators;
4. evaluators combine rewritten queries with tuples to create
   notifications — *when* they do so is exactly what distinguishes
   SAI / DAI-Q / DAI-T / DAI-V.

This module implements the template; the algorithm classes override the
evaluator placement and the value-level behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..chord.node import ChordNode
from ..errors import QueryError
from ..sim.messages import (
    ALIndexMessage,
    JoinMessage,
    QueryIndexMessage,
    VLIndexMessage,
)
from ..sim.stats import NodeLoad
from ..sql.query import JoinQuery, RewrittenQuery, TriggerBinding, rewrite
from ..sql.tuples import DataTuple, ProjectedTuple
from ..sql.expr import canonical_value
from .index_choice import ArrivalStats
from .jfrt import JoinFingersRoutingTable
from .notifications import Notification
from .tables import (
    AttributeLevelQueryTable,
    ProjectionStore,
    QueryGroup,
    StoredQuery,
    ValueLevelQueryTable,
    ValueLevelTupleTable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ContinuousQueryEngine


@dataclass
class StorageBreakdown:
    """Per-node storage-load split by role (rewriter vs evaluator)."""

    attribute_level: int
    value_level: int
    parked_notifications: int

    @property
    def total(self) -> int:
        return self.attribute_level + self.value_level + self.parked_notifications


class NodeState:
    """Per-node application state attached to ``ChordNode.app``.

    ``windowed`` says whether the engine runs a sliding window: only
    then do the value-level tables keep eviction heaps.

    The VLTT (SAI, DAI-Q) and the projection store (DAI-V) are created
    on first access of :attr:`vltt` / :attr:`projections`: DAI-T never
    stores either, and a table that was never created counts as empty
    for :meth:`storage_breakdown`, :meth:`evict_expired` and
    :meth:`transfer_to`, which do not create it.
    """

    def __init__(self, node: ChordNode, jfrt_capacity: int = 0, windowed: bool = True):
        self.node = node
        self.windowed = windowed
        self.alqt = AttributeLevelQueryTable()
        self.vlqt = ValueLevelQueryTable(windowed)
        self._vltt: Optional[ValueLevelTupleTable] = None
        self._projections: Optional[ProjectionStore] = None
        #: Notifications parked for offline subscribers, keyed by
        #: subscriber identifier (routing identifier for handoff).
        self.parked: dict[int, list[Notification]] = {}
        #: Notifications delivered to this node as a subscriber.
        self.inbox: list[Notification] = []
        self.load = NodeLoad()
        #: Tuple-arrival statistics per (relation, attribute) — kept by
        #: rewriters for the index-attribute-choice probes (§4.3.6).
        self.arrivals: dict[tuple[str, str], ArrivalStats] = {}
        self.jfrt: Optional[JoinFingersRoutingTable] = (
            JoinFingersRoutingTable(jfrt_capacity) if jfrt_capacity > 0 else None
        )
        #: Identities of notifications already emitted by this node (the
        #: set semantics of answers; bookkeeping, not storage load).
        self.emitted: set[tuple[str, str, tuple]] = set()

    @property
    def vltt(self) -> ValueLevelTupleTable:
        """The value-level tuple table, created on first access."""
        table = self._vltt
        if table is None:
            table = self._vltt = ValueLevelTupleTable(self.windowed)
        return table

    @property
    def projections(self) -> ProjectionStore:
        """DAI-V's projection store, created on first access."""
        table = self._projections
        if table is None:
            table = self._projections = ProjectionStore(self.windowed)
        return table

    def storage_breakdown(self) -> StorageBreakdown:
        """Storage load of this node, split by indexing level."""
        parked = sum(len(batch) for batch in self.parked.values())
        value_level = len(self.vlqt)
        if self._vltt is not None:
            value_level += len(self._vltt)
        if self._projections is not None:
            value_level += len(self._projections)
        return StorageBreakdown(
            attribute_level=len(self.alqt),
            value_level=value_level,
            parked_notifications=parked,
        )

    def evict_expired(self, cutoff: float) -> int:
        """Sliding-window eviction of value-level state.

        Guarded by :meth:`~repro.core.tables.ValueLevelQueryTable.pending_before`
        peeks: eviction rounds sweep every adopted node, and on large
        rings almost all of them hold nothing old enough to evict.
        """
        total = 0
        for table in (self.vlqt, self._vltt, self._projections):
            if table is not None and table.pending_before(cutoff):
                total += table.evict_older_than(cutoff)
        return total

    def transfer_to(self, other: "NodeState", should_move) -> int:
        """Move items whose routing identifier satisfies ``should_move``.

        Implements the application side of Chord key handoff on node
        join (partial transfer) and voluntary leave (full transfer).
        """
        moved = 0
        for stored_query in self.alqt.pop_matching(should_move):
            other.alqt.add(stored_query)
            moved += 1
        for stored_rewritten in self.vlqt.pop_matching(should_move):
            other.vlqt.insert_entry(stored_rewritten)
            moved += 1
        if self._vltt is not None:
            for stored_tuple in self._vltt.pop_matching(should_move):
                other.vltt.add(stored_tuple)
                moved += 1
        if self._projections is not None:
            for stored_projection in self._projections.pop_matching(should_move):
                other.projections.add(stored_projection)
                moved += 1
        for subscriber_ident in list(self.parked):
            if should_move(subscriber_ident):
                batch = self.parked.pop(subscriber_ident)
                other.parked.setdefault(subscriber_ident, []).extend(batch)
                moved += len(batch)
        return moved


def index_side_needed_attributes(query: JoinQuery, label: str) -> tuple[str, ...]:
    """Attributes of side ``label`` a DAI-V projection must carry.

    The projection of a trigger tuple must later satisfy rewritten
    queries of the *opposite* side, which need this side's select
    attributes, join-expression attributes and filter attributes.
    """
    return query.side_needed_attributes[label]


class Algorithm:
    """Template base class for SAI, DAI-Q, DAI-T and DAI-V."""

    #: Short name used in configuration and reports.
    name = "base"
    #: Whether the algorithm can evaluate type-T2 queries (only DAI-V).
    supports_t2 = False
    #: Whether tuples are indexed at the value level (all but DAI-V).
    indexes_tuples_at_value_level = True

    # ------------------------------------------------------------------
    # Query indexing
    # ------------------------------------------------------------------
    def validate_query(self, query: JoinQuery) -> None:
        """Reject queries the algorithm cannot evaluate."""
        if query.query_type == "T2" and not self.supports_t2:
            raise QueryError(
                f"{self.name} only supports type-T1 queries (both join "
                f"sides must be single attributes); use DAI-V for "
                f"{query.key or query!s}"
            )

    def index_labels(
        self, engine: "ContinuousQueryEngine", origin: ChordNode, query: JoinQuery
    ) -> list[str]:
        """Which side(s) the query is indexed under."""
        raise NotImplementedError

    def index_query(
        self,
        engine: "ContinuousQueryEngine",
        origin: ChordNode,
        query: JoinQuery,
        *,
        labels: Optional[list[str]] = None,
        refresh: bool = False,
    ) -> list[str]:
        """Route ``query(q, Id(n), IP(n))`` messages to the rewriter(s).

        With attribute-level replication the query is stored at every
        replica so that no replica misses a triggering tuple.  Returns
        the index side(s) used; lease renewals pass them back in via
        ``labels`` (with ``refresh=True``) so the soft-state refresh
        reaches exactly the rewriters chosen at subscription time.
        """
        self.validate_query(query)
        if labels is None:
            labels = self.index_labels(engine, origin, query)
        idents: list[int] = []
        messages: list[QueryIndexMessage] = []
        for label in labels:
            side = query.side(label)
            attribute = query.index_attribute(label)
            for ident in engine.replication.rewriter_identifiers(
                engine.network.hash, side.relation, attribute
            ):
                idents.append(ident)
                messages.append(
                    QueryIndexMessage(
                        query=query,
                        index_side=label,
                        routing_ident=ident,
                        refresh=refresh,
                    )
                )
        transport = engine.transport
        if len(idents) == 1:
            transport.send(origin, messages[0], idents[0])
        else:
            transport.multisend(
                origin, messages, idents, recursive=engine.config.recursive_multisend
            )
        return labels

    def on_query(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: QueryIndexMessage
    ) -> None:
        """Rewriter stores the query in its ALQT (Section 4.3.1).

        Re-installation is idempotent (the ALQT deduplicates); a lease
        renewal that actually restores a missing copy is counted as a
        crash-recovery re-install.
        """
        state = engine.state(node)
        state.load.messages_processed += 1
        _, is_new = state.alqt.add(
            StoredQuery(msg.query, msg.index_side, msg.routing_ident)
        )
        if msg.refresh and is_new:
            state.load.lease_reinstalls += 1

    # ------------------------------------------------------------------
    # Tuple indexing (Section 4.2)
    # ------------------------------------------------------------------
    def index_tuple(
        self,
        engine: "ContinuousQueryEngine",
        origin: ChordNode,
        tup: DataTuple,
        *,
        refresh: bool = False,
    ) -> None:
        """Send the ``al-index``/``vl-index`` messages for every attribute.

        One ``multisend`` ships the full set (``2h`` identifiers, or
        ``h`` under DAI-V which skips the value level).  Crash-recovery
        republication sets ``refresh`` so receivers deduplicate instead
        of double-counting.
        """
        relation = tup.relation
        idents: list[int] = []
        messages: list[Any] = []
        for attribute in relation.attributes:
            a_ident = engine.replication.pick_identifier(
                engine.network.hash, relation.name, attribute, engine.rng
            )
            idents.append(a_ident)
            messages.append(
                ALIndexMessage(tuple=tup, index_attribute=attribute, refresh=refresh)
            )
            if self.indexes_tuples_at_value_level:
                v_ident = engine.network.hash.hash_parts(
                    relation.name, attribute, canonical_value(tup.value(attribute))
                )
                idents.append(v_ident)
                messages.append(
                    VLIndexMessage(tuple=tup, index_attribute=attribute, refresh=refresh)
                )
        engine.transport.multisend(
            origin, messages, idents, recursive=engine.config.recursive_multisend
        )

    # ------------------------------------------------------------------
    # Attribute level: trigger, rewrite, reindex (Section 4.3.2)
    # ------------------------------------------------------------------
    def on_al_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: ALIndexMessage
    ) -> None:
        state = engine.state(node)
        state.load.messages_processed += 1
        tup = msg.tuple
        relation = tup.relation.name
        attribute = msg.index_attribute
        if not msg.refresh:
            stats = state.arrivals.setdefault((relation, attribute), ArrivalStats())
            stats.record(tup.value(attribute))

        groups = state.alqt.groups_for(relation, attribute)
        if not groups:
            return
        state.load.add_attribute_level(sum(len(group) for group in groups))

        batches: dict[int, tuple[list[RewrittenQuery], list[Any]]] = {}
        sent_by_group: list[tuple[QueryGroup, list[str]]] = []
        for group in groups:
            sent_keys = self._rewrite_group(
                engine, state, group, tup, batches, force_resend=msg.refresh
            )
            if sent_keys:
                sent_by_group.append((group, sent_keys))
        if batches:
            self._dispatch_join_batches(engine, node, batches)
            for group, keys in sent_by_group:
                group.sent_rewritten_keys.update(keys)

    def _rewrite_group(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        group: QueryGroup,
        tup: DataTuple,
        batches: dict[int, tuple[list[RewrittenQuery], list[Any]]],
        *,
        force_resend: bool = False,
    ) -> list[str]:
        """Trigger one query group with ``tup``; fill evaluator batches.

        The group shares its join condition, so the trigger-derived
        values, the shared select tuples and — unless the algorithm
        places each query on its own (:meth:`ident_per_query`) — the
        evaluator identifier are computed once per index side, in a
        :class:`~repro.sql.query.TriggerBinding`; per query remain the
        time and filter checks, the key and the rewritten query itself.

        Returns the rewritten keys to remember as "sent" (DAI-T only).
        ``force_resend`` bypasses the never-resend memory so republished
        tuples can rebuild evaluator state lost to a crash.
        """
        sent_keys: list[str] = []
        seen_keys: set[str] = set()
        projection: Optional[ProjectedTuple] = None
        pub_time = tup.pub_time
        remembers = self.remembers_sent_keys(engine)
        already_sent = group.sent_rewritten_keys if remembers and not force_resend else ()
        wants_projection = self.wants_projection
        per_query_ident = self.ident_per_query(engine)
        evaluator_ident = self.evaluator_ident
        # index label -> [binding, its batch once the ident is known]
        bound: dict[str, list] = {}
        for entry in group.entries:
            query = entry.query
            label = entry.index_label
            if pub_time < query.insertion_time:
                continue
            if not query.side(label).accepts(tup):
                continue
            side_state = bound.get(label)
            if side_state is None:
                side_state = bound[label] = [TriggerBinding(query, label, tup), None]
            rewritten = rewrite(query, label, tup, side_state[0])
            key = rewritten.key
            if key in seen_keys:
                continue
            seen_keys.add(key)
            if key in already_sent:
                continue
            batch = side_state[1]
            if batch is None:
                ident = evaluator_ident(engine, rewritten)
                batch = batches.get(ident)
                if batch is None:
                    batch = batches[ident] = ([], [])
                if not per_query_ident:
                    side_state[1] = batch
            batch[0].append(rewritten)
            if wants_projection:
                if projection is None:
                    projection = self._group_projection(group, tup)
                batch[1].append(projection)
            sent_keys.append(key)
        return sent_keys if remembers else []

    @staticmethod
    def _group_projection(group: QueryGroup, tup: DataTuple) -> ProjectedTuple:
        """Project the trigger tuple for a whole query group (DAI-V).

        The stored projection must later satisfy the opposite-side
        rewritten queries of *every* query in the group, whose select
        lists can differ, so it carries the union of their needs.
        (Queries subscribed later never match: a pair involving this
        tuple and a younger query fails the ``pubT >= insT`` rule.)
        """
        needed: set[str] = set()
        for entry in group.entries:
            needed.update(
                index_side_needed_attributes(entry.query, entry.index_label)
            )
        return tup.project(tuple(sorted(needed)))

    # Hooks specialized by the algorithms -------------------------------
    #: DAI-V ships a projected trigger tuple with every rewritten query.
    wants_projection = False

    def remembers_sent_keys(self, engine: "ContinuousQueryEngine") -> bool:
        """DAI-T's never-resend optimization (see its docstring)."""
        return False

    def evaluator_ident(
        self, engine: "ContinuousQueryEngine", rewritten: RewrittenQuery
    ) -> int:
        """The value-level identifier a rewritten query is sent to."""
        raise NotImplementedError

    def ident_per_query(self, engine: "ContinuousQueryEngine") -> bool:
        """Whether :meth:`evaluator_ident` can differ between the queries
        of one group for one trigger.  Only keyed DAI-V hashes the query
        key; every other placement is a function of the join condition
        and the trigger alone (the paper's grouping, Section 4.3.5)."""
        return False

    def _dispatch_join_batches(
        self,
        engine: "ContinuousQueryEngine",
        node: ChordNode,
        batches: dict[int, tuple[list[RewrittenQuery], list[Any]]],
    ) -> None:
        """Ship one ``join()`` message per evaluator (grouping, §4.3.5).

        Identifiers with a valid JFRT entry are served in one hop; the
        rest travel in a single recursive ``multisend`` whose answers
        refresh the JFRT.
        """
        state = engine.state(node)
        transport = engine.transport
        routed_idents: list[int] = []
        routed_messages: list[JoinMessage] = []
        for ident, (rewritten_list, projection_list) in batches.items():
            message = JoinMessage(
                rewritten=tuple(rewritten_list), projections=tuple(projection_list)
            )
            cached = state.jfrt.lookup(ident) if state.jfrt is not None else None
            if cached is not None:
                transport.send_direct(node, message, cached)
            else:
                routed_idents.append(ident)
                routed_messages.append(message)
        if routed_idents:
            targets = transport.multisend(
                node,
                routed_messages,
                routed_idents,
                recursive=engine.config.recursive_multisend,
            )
            if state.jfrt is not None:
                for ident, target in zip(routed_idents, targets):
                    state.jfrt.learn(ident, target)

    # ------------------------------------------------------------------
    # Value level (specialized per algorithm)
    # ------------------------------------------------------------------
    def on_vl_index(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: VLIndexMessage
    ) -> None:
        raise NotImplementedError

    def on_join(
        self, engine: "ContinuousQueryEngine", node: ChordNode, msg: JoinMessage
    ) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared value-level helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _within_window(
        engine: "ContinuousQueryEngine", time_a: float, time_b: float
    ) -> bool:
        """Sliding-window check between the two contributing times.

        A pair joins only when its publication times are at most one
        window apart; the check is symmetric because either side may
        have been stored first.
        """
        window = engine.config.window
        if window is None:
            return True
        return abs(time_b - time_a) <= window

    def _emit(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        rewritten: RewrittenQuery,
        match,
        trigger_time: float,
    ) -> Optional[Notification]:
        """Create one notification unless its identity was already emitted."""
        row = rewritten.result_row(match)
        identity = (rewritten.original_key, repr(rewritten.required_value), row)
        if identity in state.emitted:
            return None
        state.emitted.add(identity)
        state.load.notifications_created += 1
        return Notification(
            query_key=rewritten.original_key,
            subscriber_ident=rewritten.subscriber.ident,
            row=row,
            join_value_repr=repr(rewritten.required_value),
            trigger_pub_time=trigger_time,
            match_pub_time=match.pub_time,
            created_at=engine.clock.now,
        )

    def _match_rewritten_against_tuples(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        rewritten_queries,
    ) -> list[Notification]:
        """Evaluate rewritten queries against the local VLTT.

        The queries of one ``join()`` message mostly share one
        ``(relation, dis attribute, dis value)`` bucket, so each
        distinct bucket is fetched once; the filtering load still counts
        the candidates examined per rewritten query.
        """
        vltt_candidates = state.vltt.candidates
        add_value_level = state.load.add_value_level
        window = engine.config.window
        fetched: dict[tuple, list] = {}
        notifications = []
        for rewritten in rewritten_queries:
            where = (rewritten.relation, rewritten.dis_attribute or "", rewritten.dis_value)
            candidates = fetched.get(where)
            if candidates is None:
                candidates = fetched[where] = vltt_candidates(*where)
            add_value_level(len(candidates))
            trigger_time = rewritten.trigger_pub_time
            for stored in candidates:
                tup = stored.tuple
                # _within_window, inlined: this runs per (query, tuple) pair.
                if window is not None and abs(trigger_time - tup.pub_time) > window:
                    continue
                if not rewritten.matches(tup, check_value=False):
                    continue
                notification = self._emit(engine, state, rewritten, tup, trigger_time)
                if notification is not None:
                    notifications.append(notification)
        return notifications

    def _match_tuple_against_rewritten(
        self,
        engine: "ContinuousQueryEngine",
        state: NodeState,
        tup: DataTuple,
        attribute: str,
    ) -> list[Notification]:
        """Evaluate an arriving tuple against the local VLQT."""
        candidates = state.vlqt.candidates(
            tup.relation.name, attribute, tup.value(attribute)
        )
        state.load.add_value_level(len(candidates))
        notifications = []
        for entry in candidates:
            if not self._within_window(
                engine, entry.latest_trigger_time, tup.pub_time
            ):
                continue
            if not entry.rewritten.matches(tup, check_value=False):
                continue
            notification = self._emit(
                engine, state, entry.rewritten, tup, entry.latest_trigger_time
            )
            if notification is not None:
                notifications.append(notification)
        return notifications
