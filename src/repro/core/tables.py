"""Local two-level hash tables: ALQT, VLQT, VLTT (Section 4.3.5).

Rewriter nodes keep queries in the **attribute-level query table**
(ALQT); evaluator nodes keep rewritten queries in the **value-level
query table** (VLQT) and tuples in the **value-level tuple table**
(VLTT).  All three are two-level hash tables, so every incoming message
reaches its match candidates in two dictionary steps — the number of
candidates actually examined is what the filtering-load metric counts.

Every stored item remembers the routing identifier it was addressed to,
so responsibility handoff on node join/leave is a filter over the
tables (Chord transfers "all data related to Id(n)").

Sliding-window eviction (``evict_older_than``) is driven by per-table
lazy min-heaps instead of rescanning every bucket each window round.
The heaps exist only on *windowed* tables (``windowed=True``, the
engine's choice whenever ``EngineConfig.window`` is set); an unwindowed
table keeps no heap list at all (``_evict_heap is None``) and answers
``pending_before`` / ``evict_older_than`` by a full scan, which no
engine run ever asks for.

* The VLTT and the DAI-V projection store keep one ``(time, seq,
  locator...)`` record per stored item.  Eviction pops only records
  older than the cutoff and validates each against the live item
  (records go stale when an item was handed off or replaced).
* The VLQT keeps at most one live record per *bucket* (one
  ``(relation, dis attribute, dis value)`` key), at a time no later
  than the bucket's oldest entry.  The rewritten queries of one
  ``join()`` message share their trigger time and, for SAI and the
  DAI family, their bucket, so the first insert of a message arms the
  bucket and the rest find it armed.  Popping a record sweeps its
  bucket — evicts every entry older than the cutoff — and re-arms it at
  the oldest survivor.  Entries carry no record of their own, so a
  refresh or a handoff re-insert needs no heap work.

Either way the set of entries evicted for a given cutoff is exactly the
full-scan set — every live entry older than the cutoff is covered by a
record at or below its current time — while the work is proportional
to the number of expirations (VLTT, projections) or of expiring
buckets (VLQT), not to the table size.  ``pop_matching``
(responsibility handoff) stays a scan: it filters by routing
identifier, which no time-ordered structure helps with, and runs only
on churn events.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..perf import PERF
from ..sql.query import JoinQuery, RewrittenQuery
from ..sql.tuples import DataTuple, ProjectedTuple


# ----------------------------------------------------------------------
# Attribute level: queries waiting at rewriters
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StoredQuery:
    """A query resident at a rewriter, with its indexing side."""

    query: JoinQuery
    index_label: str
    routing_ident: int


@dataclass
class QueryGroup:
    """Queries sharing an equivalent join condition (Section 4.3.5).

    "Similar queries are triggered in a single step.  In addition,
    reindexing can also be done with only one message for multiple
    queries since for the same incoming tuple all similar queries will
    require the same evaluator."

    ``sent_rewritten_keys`` is the DAI-T rewriter-side memory: "a
    rewriter does not need to reindex the same rewritten query more
    than once at the value level" (Section 4.4.3).
    """

    signature: str
    entries: list[StoredQuery] = field(default_factory=list)
    sent_rewritten_keys: set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.entries)


class AttributeLevelQueryTable:
    """ALQT: level 1 = index attribute, level 2 = join condition."""

    def __init__(self):
        self._buckets: dict[tuple[str, str], dict[str, QueryGroup]] = {}
        self._count = 0

    def add(self, stored: StoredQuery) -> tuple[QueryGroup, bool]:
        """Index a query under its (relation, index attribute) bucket.

        Returns ``(group, is_new)``.  A copy with the same
        ``(query key, index side, routing identifier)`` is already
        present exactly when a soft-state lease renewal reaches a
        rewriter that never lost the query — the renewal is then a
        no-op, which is what makes periodic re-installation idempotent.
        """
        query = stored.query
        side = query.side(stored.index_label)
        level1 = (side.relation, query.index_attribute(stored.index_label))
        groups = self._buckets.setdefault(level1, {})
        signature = query.join_signature()
        group = groups.get(signature)
        if group is None:
            group = QueryGroup(signature)
            groups[signature] = group
        for entry in group.entries:
            if (
                entry.query.key == query.key
                and entry.index_label == stored.index_label
                and entry.routing_ident == stored.routing_ident
            ):
                return group, False
        group.entries.append(stored)
        self._count += 1
        return group, True

    def groups_for(self, relation: str, attribute: str) -> list[QueryGroup]:
        """All groups a tuple indexed by ``(relation, attribute)`` can hit."""
        return list(self._buckets.get((relation, attribute), {}).values())

    def remove(self, query_key: str) -> int:
        """Unsubscribe: drop every copy of the query; returns removals."""
        removed = 0
        for groups in self._buckets.values():
            for signature in list(groups):
                group = groups[signature]
                before = len(group.entries)
                group.entries = [
                    entry for entry in group.entries if entry.query.key != query_key
                ]
                removed += before - len(group.entries)
                if not group.entries:
                    del groups[signature]
        self._count -= removed
        return removed

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredQuery]:
        """Remove and return entries whose routing ident satisfies the
        predicate (responsibility handoff)."""
        moved: list[StoredQuery] = []
        for level1 in list(self._buckets):
            groups = self._buckets[level1]
            for signature in list(groups):
                group = groups[signature]
                keep = []
                for entry in group.entries:
                    if should_move(entry.routing_ident):
                        moved.append(entry)
                    else:
                        keep.append(entry)
                group.entries = keep
                if not keep:
                    del groups[signature]
            if not groups:
                del self._buckets[level1]
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredQuery]:
        for groups in self._buckets.values():
            for group in groups.values():
                yield from group.entries


# ----------------------------------------------------------------------
# Value level: rewritten queries at evaluators
# ----------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class StoredRewritten(RewrittenQuery):
    """A rewritten query at an evaluator, with its trigger-time memory.

    When a rewritten query with a key that is already present arrives,
    "only pubT(t) is stored along with q'" (Section 4.3.3) — hence the
    ``latest_trigger_time`` update instead of a second copy.

    The entry is a copy of the arriving query extended by the two
    evaluator-side fields, not a wrapper around it: a windowed evaluator
    holds tens of thousands of entries, and every extra object per entry
    is one more for each full garbage collection to rescan.
    """

    routing_ident: int
    latest_trigger_time: float

    @classmethod
    def of(
        cls, rewritten: RewrittenQuery, routing_ident: int, latest_trigger_time: float
    ) -> "StoredRewritten":
        """Store ``rewritten``; positional, in field order, for speed."""
        return cls(
            rewritten.key,
            rewritten.original_key,
            rewritten.group_signature,
            rewritten.subscriber,
            rewritten.insertion_time,
            rewritten.relation,
            rewritten.expr,
            rewritten.required_value,
            rewritten.dis_attribute,
            rewritten.dis_value,
            rewritten.filters,
            rewritten.select,
            rewritten.trigger_pub_time,
            routing_ident,
            latest_trigger_time,
        )

    @property
    def rewritten(self) -> RewrittenQuery:
        """The stored rewritten query: the entry itself."""
        return self

    def refresh(self, trigger_time: float) -> None:
        if trigger_time > self.latest_trigger_time:
            self.latest_trigger_time = trigger_time


class _QueryBucket(dict):
    """The VLQT entries under one ``(level 1, value)`` key, by rewritten
    key, plus the time of the bucket's live eviction record (``None``
    while unarmed)."""

    __slots__ = ("armed",)

    def __init__(self):
        super().__init__()
        self.armed: Optional[float] = None


class ValueLevelQueryTable:
    """VLQT: level 1 = load-distributing attribute, level 2 = value."""

    def __init__(self, windowed: bool = True):
        self._buckets: dict[tuple[str, str], dict[Any, _QueryBucket]] = {}
        self._count = 0
        #: Lazy eviction queue of ``(time, seq, level1, value)`` bucket
        #: records (see the module docstring); ``None`` when unwindowed.
        self._evict_heap: Optional[list[tuple[float, int, tuple[str, str], Any]]] = (
            [] if windowed else None
        )
        self._evict_seq = 0

    def _arm(self, bucket: _QueryBucket, time: float, level1, value) -> None:
        bucket.armed = time
        self._evict_seq += 1
        heapq.heappush(self._evict_heap, (time, self._evict_seq, level1, value))

    def pending_before(self, cutoff: float) -> bool:
        """True when :meth:`evict_older_than` could evict anything.

        One heap peek on a windowed table — the barrier-aligned eviction
        replay calls this on every adopted node per round, so it must
        cost O(1) on the (overwhelmingly common) idle nodes.
        """
        heap = self._evict_heap
        if heap is None:
            return any(entry.latest_trigger_time < cutoff for entry in self)
        return bool(heap) and heap[0][0] < cutoff

    def add(
        self, rewritten: RewrittenQuery, routing_ident: int
    ) -> tuple[StoredRewritten, bool, Optional[float]]:
        """Store (or refresh) a rewritten query.

        Returns ``(entry, is_new, previous)``: ``previous`` is the
        entry's trigger time before this refresh (``None`` when new), so
        SAI's "had the stored copy slid out of the window" test needs no
        second lookup.

        The level-2 key is ``dis_value`` — the attribute value a
        matching tuple carries — so arriving ``vl-index`` tuples find
        their candidates by their own attribute values even when the
        dis side is a linear expression.
        """
        level1 = (rewritten.relation, rewritten.dis_attribute or "")
        level2 = self._buckets.get(level1)
        if level2 is None:
            level2 = self._buckets[level1] = {}
        value = rewritten.dis_value
        bucket = level2.get(value)
        if bucket is None:
            bucket = level2[value] = _QueryBucket()
        time = rewritten.trigger_pub_time
        existing = bucket.get(rewritten.key)
        if existing is not None:
            previous = existing.latest_trigger_time
            if time > previous:
                existing.latest_trigger_time = time
            return existing, False, previous
        entry = StoredRewritten.of(rewritten, routing_ident, time)
        bucket[rewritten.key] = entry
        self._count += 1
        if self._evict_heap is not None:
            armed = bucket.armed
            if armed is None or time < armed:
                self._arm(bucket, time, level1, value)
        return entry, True, None

    def insert_entry(self, entry: StoredRewritten) -> None:
        """Re-insert a previously stored entry (responsibility handoff)."""
        stored, is_new, _ = self.add(entry.rewritten, entry.routing_ident)
        stored.refresh(entry.latest_trigger_time)
        if not is_new:
            stored.routing_ident = entry.routing_ident

    def candidates(
        self, relation: str, attribute: str, value: Any
    ) -> list[StoredRewritten]:
        """Rewritten queries a ``vl-index`` tuple can possibly trigger."""
        level2 = self._buckets.get((relation, attribute))
        if not level2:
            return []
        bucket = level2.get(value)
        return list(bucket.values()) if bucket else []

    def evict_older_than(self, cutoff: float) -> int:
        """Drop entries whose latest trigger is before ``cutoff``
        (sliding-window semantics); returns evictions.

        A windowed table pops its bucket records instead of scanning
        every bucket: a record that is not its bucket's live one (the
        bucket is gone, or was re-armed earlier) is discarded; a live
        one sweeps its bucket and re-arms it at the oldest survivor.
        """
        buckets = self._buckets
        evicted = 0
        heap = self._evict_heap
        if heap is None:
            for level1 in list(buckets):
                for value in list(buckets[level1]):
                    evicted += self._sweep(level1, value, cutoff)
        else:
            while heap and heap[0][0] < cutoff:
                time, _, level1, value = heapq.heappop(heap)
                level2 = buckets.get(level1)
                bucket = level2.get(value) if level2 is not None else None
                if bucket is not None and bucket.armed == time:
                    evicted += self._sweep(level1, value, cutoff)
        self._count -= evicted
        if PERF.enabled:
            PERF.count("vlqt.evicted", evicted)
        return evicted

    def _sweep(self, level1, value, cutoff: float) -> int:
        """Evict one bucket's entries older than ``cutoff``; re-arm the
        bucket at its oldest survivor or drop it when none is left."""
        level2 = self._buckets[level1]
        bucket = level2[value]
        before = len(bucket)
        oldest = None
        for key, entry in list(bucket.items()):
            time = entry.latest_trigger_time
            if time < cutoff:
                del bucket[key]
            elif oldest is None or time < oldest:
                oldest = time
        if oldest is None:
            del level2[value]
            if not level2:
                del self._buckets[level1]
        elif self._evict_heap is not None:
            self._arm(bucket, oldest, level1, value)
        return before - len(bucket)

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredRewritten]:
        moved: list[StoredRewritten] = []
        for level1 in list(self._buckets):
            level2 = self._buckets[level1]
            for value in list(level2):
                bucket = level2[value]
                for key in list(bucket):
                    if should_move(bucket[key].routing_ident):
                        moved.append(bucket.pop(key))
                if not bucket:
                    del level2[value]
            if not level2:
                del self._buckets[level1]
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredRewritten]:
        for level2 in self._buckets.values():
            for bucket in level2.values():
                yield from bucket.values()


# ----------------------------------------------------------------------
# Value level: tuples at evaluators
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StoredTuple:
    """A tuple at an evaluator, remembered under its index attribute."""

    tuple: DataTuple
    index_attribute: str
    routing_ident: int


def _scan_evict(buckets: dict, cutoff: float, time_of: Callable[[Any], float]) -> int:
    """Full-scan eviction of list-valued buckets (unwindowed tables)."""
    evicted = 0
    for level1 in list(buckets):
        level2 = buckets[level1]
        for value in list(level2):
            bucket = level2[value]
            keep = [item for item in bucket if time_of(item) >= cutoff]
            evicted += len(bucket) - len(keep)
            if keep:
                level2[value] = keep
            else:
                del level2[value]
        if not level2:
            del buckets[level1]
    return evicted


def _pop_matching(buckets: dict, should_move: Callable[[int], bool]) -> list:
    """Remove and return the items of list-valued buckets whose routing
    identifier satisfies ``should_move`` (responsibility handoff)."""
    moved = []
    for level1 in list(buckets):
        level2 = buckets[level1]
        for value in list(level2):
            keep = []
            for stored in level2[value]:
                if should_move(stored.routing_ident):
                    moved.append(stored)
                else:
                    keep.append(stored)
            if keep:
                level2[value] = keep
            else:
                del level2[value]
        if not level2:
            del buckets[level1]
    return moved


def _tuple_time(stored: StoredTuple) -> float:
    return stored.tuple.pub_time


class ValueLevelTupleTable:
    """VLTT: level 1 = tuple's index attribute, level 2 = its value."""

    def __init__(self, windowed: bool = True):
        self._buckets: dict[tuple[str, str], dict[Any, list[StoredTuple]]] = {}
        self._count = 0
        #: Lazy eviction queue (``None`` when unwindowed); tuple
        #: publication times never change, so records only go stale when
        #: an entry is handed off on churn.
        self._evict_heap: Optional[
            list[tuple[float, int, tuple[str, str], Any, StoredTuple]]
        ] = ([] if windowed else None)
        self._evict_seq = 0

    def add(self, stored: StoredTuple) -> None:
        level1 = (stored.tuple.relation.name, stored.index_attribute)
        value = stored.tuple.value(stored.index_attribute)
        self._buckets.setdefault(level1, {}).setdefault(value, []).append(stored)
        self._count += 1
        heap = self._evict_heap
        if heap is not None:
            self._evict_seq += 1
            heapq.heappush(
                heap, (stored.tuple.pub_time, self._evict_seq, level1, value, stored)
            )

    def candidates(self, relation: str, attribute: str, value: Any) -> list[StoredTuple]:
        """Tuples a rewritten query over ``relation.attribute = value``
        can possibly match."""
        level2 = self._buckets.get((relation, attribute))
        if not level2:
            return []
        return list(level2.get(value, ()))

    def contains(self, tup: DataTuple, attribute: str) -> bool:
        """True when this exact tuple is already stored under
        ``attribute`` (used to deduplicate crash-recovery republication)."""
        level2 = self._buckets.get((tup.relation.name, attribute))
        if not level2:
            return False
        return any(
            stored.tuple == tup for stored in level2.get(tup.value(attribute), ())
        )

    def pending_before(self, cutoff: float) -> bool:
        """True when :meth:`evict_older_than` could evict anything."""
        heap = self._evict_heap
        if heap is None:
            return any(_tuple_time(stored) < cutoff for stored in self)
        return bool(heap) and heap[0][0] < cutoff

    def evict_older_than(self, cutoff: float) -> int:
        buckets = self._buckets
        heap = self._evict_heap
        if heap is None:
            evicted = _scan_evict(buckets, cutoff, _tuple_time)
        else:
            evicted = 0
            while heap and heap[0][0] < cutoff:
                _, _, level1, value, stored = heapq.heappop(heap)
                level2 = buckets.get(level1)
                bucket = level2.get(value) if level2 is not None else None
                if not bucket:
                    continue  # stale record: bucket drained by handoff
                for index, candidate in enumerate(bucket):
                    if candidate is stored:
                        del bucket[index]
                        evicted += 1
                        if not bucket:
                            del level2[value]
                            if not level2:
                                del buckets[level1]
                        break
        self._count -= evicted
        if PERF.enabled:
            PERF.count("vltt.evicted", evicted)
        return evicted

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredTuple]:
        moved = _pop_matching(self._buckets, should_move)
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredTuple]:
        for level2 in self._buckets.values():
            for stored_list in level2.values():
                yield from stored_list


# ----------------------------------------------------------------------
# DAI-V: projected tuples at value-indexed evaluators (Section 4.5)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StoredProjection:
    """A projected trigger tuple stored by a DAI-V evaluator."""

    projection: ProjectedTuple
    group_signature: str
    value: Any
    routing_ident: int


def _projection_time(stored: StoredProjection) -> float:
    return stored.projection.pub_time


class ProjectionStore:
    """DAI-V storage: level 1 = (group, relation), level 2 = join value.

    The join value is re-checked on match, so identifier collisions
    between different values (``Hash(str(value))`` shares one ring) can
    never create false notifications.
    """

    def __init__(self, windowed: bool = True):
        self._buckets: dict[tuple[str, str], dict[Any, list[StoredProjection]]] = {}
        self._count = 0
        #: Lazy eviction queue (``None`` when unwindowed).  A duplicate
        #: ``add`` can replace an entry's projection with a *newer*
        #: publication time, so eviction re-arms records whose entry has
        #: outlived them.
        self._evict_heap: Optional[
            list[tuple[float, int, tuple[str, str], Any, StoredProjection]]
        ] = ([] if windowed else None)
        self._evict_seq = 0

    def _arm(self, time: float, level1, value, stored: StoredProjection) -> None:
        self._evict_seq += 1
        heapq.heappush(self._evict_heap, (time, self._evict_seq, level1, value, stored))

    def add(self, stored: StoredProjection) -> bool:
        """Store a projection; duplicates (same content) are collapsed."""
        level1 = (stored.group_signature, stored.projection.relation_name)
        bucket = self._buckets.setdefault(level1, {}).setdefault(stored.value, [])
        for existing in bucket:
            if existing.projection.items == stored.projection.items:
                if stored.projection.pub_time > existing.projection.pub_time:
                    existing.projection = stored.projection
                return False
        bucket.append(stored)
        self._count += 1
        if self._evict_heap is not None:
            self._arm(stored.projection.pub_time, level1, stored.value, stored)
        return True

    def candidates(
        self, group_signature: str, relation: str, value: Any
    ) -> list[StoredProjection]:
        level2 = self._buckets.get((group_signature, relation))
        if not level2:
            return []
        return list(level2.get(value, ()))

    def pending_before(self, cutoff: float) -> bool:
        """True when :meth:`evict_older_than` could evict anything."""
        heap = self._evict_heap
        if heap is None:
            return any(_projection_time(stored) < cutoff for stored in self)
        return bool(heap) and heap[0][0] < cutoff

    def evict_older_than(self, cutoff: float) -> int:
        buckets = self._buckets
        heap = self._evict_heap
        if heap is None:
            evicted = _scan_evict(buckets, cutoff, _projection_time)
        else:
            evicted = 0
            while heap and heap[0][0] < cutoff:
                _, _, level1, value, stored = heapq.heappop(heap)
                level2 = buckets.get(level1)
                bucket = level2.get(value) if level2 is not None else None
                if not bucket:
                    continue
                for index, candidate in enumerate(bucket):
                    if candidate is stored:
                        current_time = stored.projection.pub_time
                        if current_time >= cutoff:
                            # Replaced by a newer duplicate since this
                            # record was armed: keep it, re-arm.
                            self._arm(current_time, level1, value, stored)
                            break
                        del bucket[index]
                        evicted += 1
                        if not bucket:
                            del level2[value]
                            if not level2:
                                del buckets[level1]
                        break
        self._count -= evicted
        if PERF.enabled:
            PERF.count("projections.evicted", evicted)
        return evicted

    def pop_matching(self, should_move: Callable[[int], bool]) -> list[StoredProjection]:
        moved = _pop_matching(self._buckets, should_move)
        self._count -= len(moved)
        return moved

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[StoredProjection]:
        for level2 in self._buckets.values():
            for stored_list in level2.values():
                yield from stored_list
