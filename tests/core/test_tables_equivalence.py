"""Property-based equivalence: heap-evicting tables vs. naive scans.

The optimized tables in :mod:`repro.core.tables` replace full-bucket
eviction scans with lazy min-heaps (one record per stored item in the
VLTT and the projection store, one per bucket in the VLQT) and keep no
heap at all when built unwindowed.  Each test here drives the real
table — windowed and unwindowed — and a deliberately naive reference
model (a flat store whose eviction rescans everything — the seed
implementation's semantics) through the same random
add/evict/pop/candidates sequences and asserts the observable state
never diverges: same resident entries, same trigger times, same
eviction counts, same candidate sets, same handoff results, and a
``pending_before`` that never misses an expired item.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import (
    ProjectionStore,
    StoredProjection,
    StoredRewritten,
    StoredTuple,
    ValueLevelQueryTable,
    ValueLevelTupleTable,
)
from repro.sql.query import RewrittenQuery, Subscriber
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple, ProjectedTuple

SUB = Subscriber("prop", 1, "10.0.0.1")
R = Relation("R", ("A", "B"))

# Small pools keep collisions (duplicate keys, shared values) frequent.
times = st.integers(min_value=0, max_value=50).map(float)
keys = st.integers(min_value=0, max_value=9)
values = st.integers(min_value=0, max_value=4)
idents = st.integers(min_value=0, max_value=3)


def _rewritten(key_index: int, value: int, trigger_time: float) -> RewrittenQuery:
    return RewrittenQuery(
        key=f"q{key_index}+{value}",
        original_key=f"q{key_index}",
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


# ----------------------------------------------------------------------
# VLQT
# ----------------------------------------------------------------------

vlqt_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), keys, values, times, idents),
        # One join() message: several rewritten queries of one trigger
        # (shared time) into one bucket, inserted back to back.
        st.tuples(st.just("message"), st.lists(keys, min_size=1, max_size=5), values, times, idents),
        # A handoff re-insert carrying a later refreshed time.
        st.tuples(st.just("handoff"), keys, values, times, times, idents),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("pending"), times),
        st.tuples(st.just("pop"), idents),
        st.tuples(st.just("candidates"), values),
    ),
    max_size=60,
)


class NaiveVLQT:
    """Reference model: one flat dict, eviction rescans every entry."""

    def __init__(self):
        self.entries: dict[str, list] = {}  # key -> [ident, latest_time, value]

    def add(self, rewritten: RewrittenQuery, ident: int) -> tuple:
        """``(is_new, previous trigger time)``, as the table reports."""
        entry = self.entries.get(rewritten.key)
        if entry is not None:
            previous = entry[1]
            if rewritten.trigger_pub_time > entry[1]:
                entry[1] = rewritten.trigger_pub_time
            return False, previous
        self.entries[rewritten.key] = [ident, rewritten.trigger_pub_time, rewritten.dis_value]
        return True, None

    def insert_entry(self, rewritten: RewrittenQuery, ident: int, latest: float) -> None:
        entry = self.entries.get(rewritten.key)
        if entry is None:
            self.entries[rewritten.key] = [ident, max(latest, rewritten.trigger_pub_time), rewritten.dis_value]
        else:
            entry[0] = ident
            entry[1] = max(entry[1], latest, rewritten.trigger_pub_time)

    def pending_before(self, cutoff: float) -> bool:
        return any(entry[1] < cutoff for entry in self.entries.values())

    def evict_older_than(self, cutoff: float) -> int:
        dead = [key for key, entry in self.entries.items() if entry[1] < cutoff]
        for key in dead:
            del self.entries[key]
        return len(dead)

    def pop_matching(self, should_move) -> list[str]:
        moved = [key for key, entry in self.entries.items() if should_move(entry[0])]
        for key in moved:
            del self.entries[key]
        return sorted(moved)

    def candidates(self, value: int) -> list[str]:
        return sorted(key for key, entry in self.entries.items() if entry[2] == value)

    def state(self) -> dict:
        return {key: (entry[0], entry[1]) for key, entry in self.entries.items()}


def _check_pending(table, naive, cutoff: float, windowed: bool) -> None:
    """A windowed table may report stale records (never a miss); an
    unwindowed one scans, so it is exact."""
    expected = naive.pending_before(cutoff)
    if windowed:
        assert table.pending_before(cutoff) or not expected
    else:
        assert table.pending_before(cutoff) == expected


def _check_drained(table, naive) -> None:
    """Every resident item is still reachable by eviction: a final sweep
    past every time empties the table exactly as it empties the model."""
    assert table.evict_older_than(float("inf")) == naive.evict_older_than(float("inf"))
    assert len(table) == 0


def _drive_vlqt(windowed: bool, ops) -> None:
    table = ValueLevelQueryTable(windowed)
    naive = NaiveVLQT()
    for op in ops:
        if op[0] == "add":
            _, key_index, value, time, ident = op
            rewritten = _rewritten(key_index, value, time)
            _, is_new, previous = table.add(rewritten, ident)
            assert (is_new, previous) == naive.add(rewritten, ident)
        elif op[0] == "message":
            _, key_indexes, value, time, ident = op
            for key_index in key_indexes:
                rewritten = _rewritten(key_index, value, time)
                _, is_new, previous = table.add(rewritten, ident)
                assert (is_new, previous) == naive.add(rewritten, ident)
        elif op[0] == "handoff":
            _, key_index, value, time, later, ident = op
            rewritten = _rewritten(key_index, value, time)
            table.insert_entry(StoredRewritten.of(rewritten, ident, max(time, later)))
            naive.insert_entry(rewritten, ident, max(time, later))
        elif op[0] == "evict":
            assert table.evict_older_than(op[1]) == naive.evict_older_than(op[1])
        elif op[0] == "pending":
            _check_pending(table, naive, op[1], windowed)
        elif op[0] == "pop":
            threshold = op[1]
            moved = table.pop_matching(lambda ident: ident <= threshold)
            assert sorted(e.rewritten.key for e in moved) == naive.pop_matching(
                lambda ident: ident <= threshold
            )
        else:
            got = table.candidates("R", "A", op[1])
            assert sorted(e.rewritten.key for e in got) == naive.candidates(op[1])
        assert len(table) == len(naive.entries)
        assert {
            e.rewritten.key: (e.routing_ident, e.latest_trigger_time) for e in table
        } == naive.state()
    _check_drained(table, naive)


@settings(max_examples=200, deadline=None)
@given(vlqt_ops)
def test_vlqt_matches_naive_reference(ops):
    _drive_vlqt(True, ops)


@settings(max_examples=200, deadline=None)
@given(vlqt_ops)
def test_unwindowed_vlqt_matches_naive_reference(ops):
    _drive_vlqt(False, ops)


# ----------------------------------------------------------------------
# VLTT
# ----------------------------------------------------------------------

vltt_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), values, values, times, idents),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("pending"), times),
        st.tuples(st.just("pop"), idents),
        st.tuples(st.just("candidates"), values),
    ),
    max_size=60,
)


class _Flat:
    """``pending_before`` of a flat reference list."""

    def __init__(self, items, time_of):
        self.items = items
        self.time_of = time_of

    def pending_before(self, cutoff: float) -> bool:
        return any(self.time_of(item) < cutoff for item in self.items)


def _drive_vltt(windowed: bool, ops) -> None:
    table = ValueLevelTupleTable(windowed)
    naive: list[StoredTuple] = []  # reference: flat list, full-scan evict
    moved_out: list[StoredTuple] = []  # handed off, re-added by later ops
    for op in ops:
        if op[0] == "add":
            _, a, b, time, ident = op
            stored = StoredTuple(DataTuple(R, (a, b), time), "A", ident)
            table.add(stored)
            naive.append(stored)
            if moved_out:
                # Handoff re-insert of an item popped earlier.
                returning = moved_out.pop()
                table.add(returning)
                naive.append(returning)
        elif op[0] == "evict":
            cutoff = op[1]
            expected = sum(1 for s in naive if s.tuple.pub_time < cutoff)
            naive = [s for s in naive if s.tuple.pub_time >= cutoff]
            assert table.evict_older_than(cutoff) == expected
        elif op[0] == "pending":
            _check_pending(table, _Flat(naive, lambda s: s.tuple.pub_time), op[1], windowed)
        elif op[0] == "pop":
            threshold = op[1]
            moved = table.pop_matching(lambda ident: ident <= threshold)
            expected_moved = [s for s in naive if s.routing_ident <= threshold]
            naive = [s for s in naive if s.routing_ident > threshold]
            assert sorted(id(s) for s in moved) == sorted(id(s) for s in expected_moved)
            moved_out.extend(moved)
        else:
            got = table.candidates("R", "A", op[1])
            expected = [s for s in naive if s.tuple.value("A") == op[1]]
            assert sorted(id(s) for s in got) == sorted(id(s) for s in expected)
        assert len(table) == len(naive)
        assert sorted(id(s) for s in table) == sorted(id(s) for s in naive)
    assert table.evict_older_than(float("inf")) == len(naive)
    assert len(table) == 0


@settings(max_examples=80, deadline=None)
@given(vltt_ops)
def test_vltt_matches_naive_reference(ops):
    _drive_vltt(True, ops)


@settings(max_examples=80, deadline=None)
@given(vltt_ops)
def test_unwindowed_vltt_matches_naive_reference(ops):
    _drive_vltt(False, ops)


# ----------------------------------------------------------------------
# ProjectionStore
# ----------------------------------------------------------------------

projection_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), values, values, times, idents),
        st.tuples(st.just("evict"), times),
        st.tuples(st.just("pending"), times),
        st.tuples(st.just("candidates"), values),
    ),
    max_size=60,
)


class NaiveProjections:
    """Reference: flat list, duplicate items collapse to the newer copy."""

    def __init__(self):
        self.entries: list[StoredProjection] = []

    def add(self, stored: StoredProjection) -> bool:
        for existing in self.entries:
            if (
                existing.group_signature == stored.group_signature
                and existing.projection.relation_name == stored.projection.relation_name
                and existing.value == stored.value
                and existing.projection.items == stored.projection.items
            ):
                if stored.projection.pub_time > existing.projection.pub_time:
                    existing.projection = stored.projection
                return False
        self.entries.append(stored)
        return True

    def evict_older_than(self, cutoff: float) -> int:
        dead = [s for s in self.entries if s.projection.pub_time < cutoff]
        self.entries = [s for s in self.entries if s.projection.pub_time >= cutoff]
        return len(dead)

    def candidates(self, value: int) -> list:
        return [s for s in self.entries if s.value == value]

    def pending_before(self, cutoff: float) -> bool:
        return any(s.projection.pub_time < cutoff for s in self.entries)

    def state(self) -> list:
        return sorted(
            (s.value, s.projection.items, s.projection.pub_time) for s in self.entries
        )


def _drive_projection_store(windowed: bool, ops) -> None:
    store = ProjectionStore(windowed)
    naive = NaiveProjections()
    for op in ops:
        if op[0] == "add":
            _, a, value, time, ident = op
            projection = ProjectedTuple("R", (("A", a),), time)

            def make(p=projection, v=value, i=ident):
                return StoredProjection(
                    projection=p, group_signature="sig", value=v, routing_ident=i
                )

            # Separate instances: the store may mutate its own copy on a
            # duplicate with a newer pub_time.
            assert store.add(make()) == naive.add(make())
        elif op[0] == "evict":
            assert store.evict_older_than(op[1]) == naive.evict_older_than(op[1])
        elif op[0] == "pending":
            _check_pending(store, naive, op[1], windowed)
        else:
            got = store.candidates("sig", "R", op[1])
            expected = naive.candidates(op[1])
            assert sorted(
                (s.value, s.projection.items, s.projection.pub_time) for s in got
            ) == sorted(
                (s.value, s.projection.items, s.projection.pub_time) for s in expected
            )
        assert len(store) == len(naive.entries)
        assert (
            sorted((s.value, s.projection.items, s.projection.pub_time) for s in store)
            == naive.state()
        )
    _check_drained(store, naive)


@settings(max_examples=80, deadline=None)
@given(projection_ops)
def test_projection_store_matches_naive_reference(ops):
    _drive_projection_store(True, ops)


@settings(max_examples=80, deadline=None)
@given(projection_ops)
def test_unwindowed_projection_store_matches_naive_reference(ops):
    _drive_projection_store(False, ops)
