"""Tests for the two-level hash tables (ALQT, VLQT, VLTT, projections)."""

import pytest

from repro.core.tables import (
    AttributeLevelQueryTable,
    ProjectionStore,
    StoredProjection,
    StoredQuery,
    StoredTuple,
    ValueLevelQueryTable,
    ValueLevelTupleTable,
)
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, RIGHT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

R = Relation("R", ("A", "B"))
S = Relation("S", ("D", "E"))
SUB = Subscriber("n", 1, "ip")


def bound_query(sql="SELECT R.A, S.D FROM R, S WHERE R.B = S.E", key="q0", t=0.0):
    return parse_query(sql).with_subscription(key, t, SUB)


def rewritten(key="q0", b=7, a=10, pub=1.0):
    query = bound_query(key=key)
    return rewrite(query, LEFT, DataTuple(R, (a, b), pub))


class TestALQT:
    def test_add_and_lookup_by_index_attribute(self):
        table = AttributeLevelQueryTable()
        stored = StoredQuery(bound_query(), LEFT, routing_ident=5)
        table.add(stored)
        groups = table.groups_for("R", "B")
        assert len(groups) == 1
        assert groups[0].entries == [stored]
        assert table.groups_for("S", "E") == []
        assert len(table) == 1

    def test_groups_by_join_signature(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.add(
            StoredQuery(
                bound_query("SELECT R.B, S.D FROM R, S WHERE R.B = S.E", key="q2"),
                LEFT,
                0,
            )
        )
        table.add(
            StoredQuery(
                bound_query("SELECT R.A, S.D FROM R, S WHERE R.A = S.E", key="q3"),
                LEFT,
                0,
            )
        )
        groups_b = table.groups_for("R", "B")
        assert len(groups_b) == 1 and len(groups_b[0]) == 2
        groups_a = table.groups_for("R", "A")
        assert len(groups_a) == 1 and len(groups_a[0]) == 1

    def test_right_side_indexed_under_right_attribute(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(), RIGHT, 0))
        assert len(table.groups_for("S", "E")) == 1
        assert table.groups_for("R", "B") == []

    def test_remove_by_key(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.add(StoredQuery(bound_query(key="q2"), LEFT, 0))
        assert table.remove("q1") == 1
        assert len(table) == 1
        remaining = table.groups_for("R", "B")[0]
        assert remaining.entries[0].query.key == "q2"

    def test_remove_clears_empty_group(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.remove("q1")
        assert table.groups_for("R", "B") == []

    def test_pop_matching_moves_by_routing_ident(self):
        table = AttributeLevelQueryTable()
        keep = StoredQuery(bound_query(key="q1"), LEFT, routing_ident=1)
        move = StoredQuery(bound_query(key="q2"), LEFT, routing_ident=2)
        table.add(keep)
        table.add(move)
        moved = table.pop_matching(lambda ident: ident == 2)
        assert moved == [move]
        assert len(table) == 1

    def test_iteration(self):
        table = AttributeLevelQueryTable()
        table.add(StoredQuery(bound_query(key="q1"), LEFT, 0))
        table.add(StoredQuery(bound_query(key="q2"), RIGHT, 0))
        assert {entry.query.key for entry in table} == {"q1", "q2"}


class TestVLQT:
    def test_add_new(self):
        table = ValueLevelQueryTable()
        entry, is_new, previous = table.add(rewritten(), routing_ident=9)
        assert is_new
        assert previous is None
        assert entry.latest_trigger_time == 1.0
        assert len(table) == 1

    def test_duplicate_key_refreshes_time(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(pub=1.0), 9)
        entry, is_new, previous = table.add(rewritten(pub=5.0), 9)
        assert not is_new
        assert previous == 1.0
        assert entry.latest_trigger_time == 5.0
        assert len(table) == 1

    def test_refresh_never_moves_backwards(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(pub=5.0), 9)
        entry, _, previous = table.add(rewritten(pub=1.0), 9)
        assert previous == 5.0
        assert entry.latest_trigger_time == 5.0

    def test_candidates_by_attribute_and_value(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(b=7), 0)
        table.add(rewritten(key="q1", b=8), 0)
        assert len(table.candidates("S", "E", 7)) == 1
        assert len(table.candidates("S", "E", 8)) == 1
        assert table.candidates("S", "E", 9) == []
        assert table.candidates("S", "D", 7) == []

    def test_add_reports_previous_trigger_time(self):
        table = ValueLevelQueryTable()
        rq = rewritten()
        assert table.add(rq, 0)[2] is None
        assert table.add(rq, 0)[2] == rq.trigger_pub_time

    def test_evict_older_than(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(key="old", pub=1.0), 0)
        table.add(rewritten(key="new", pub=10.0), 0)
        assert table.evict_older_than(5.0) == 1
        assert len(table) == 1

    def test_sweep_survivor_is_evicted_by_a_later_round(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(key="old", pub=1.0), 0)
        table.add(rewritten(key="new", pub=10.0), 0)  # same bucket
        assert table.evict_older_than(5.0) == 1
        assert not table.pending_before(5.0)
        assert table.pending_before(11.0)
        assert table.evict_older_than(11.0) == 1
        assert len(table) == 0

    def test_unwindowed_table_keeps_no_heap_but_still_evicts(self):
        table = ValueLevelQueryTable(windowed=False)
        table.add(rewritten(key="old", pub=1.0), 0)
        table.add(rewritten(key="new", pub=10.0), 0)
        assert table._evict_heap is None
        assert table.pending_before(5.0)
        assert table.evict_older_than(5.0) == 1
        assert not table.pending_before(5.0)
        assert len(table) == 1

    def test_pop_matching(self):
        table = ValueLevelQueryTable()
        table.add(rewritten(key="a"), routing_ident=1)
        table.add(rewritten(key="b"), routing_ident=2)
        moved = table.pop_matching(lambda ident: ident == 1)
        assert len(moved) == 1 and len(table) == 1

    def test_insert_entry_preserves_time(self):
        source = ValueLevelQueryTable()
        entry, _, _ = source.add(rewritten(pub=7.0), 3)
        target = ValueLevelQueryTable()
        target.insert_entry(entry)
        (moved,) = target
        assert moved.key == entry.key
        assert moved.latest_trigger_time == 7.0
        assert moved.routing_ident == 3


class TestVLTT:
    def s_stored(self, e=7, d=1, pub=1.0, ident=0):
        return StoredTuple(DataTuple(S, (d, e), pub), "E", ident)

    def test_add_and_candidates(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(e=7))
        assert len(table.candidates("S", "E", 7)) == 1
        assert table.candidates("S", "E", 8) == []
        assert table.candidates("R", "E", 7) == []

    def test_duplicates_kept(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored())
        table.add(self.s_stored())
        assert len(table) == 2

    def test_evict_older_than(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(pub=1.0))
        table.add(self.s_stored(pub=9.0))
        assert table.evict_older_than(5.0) == 1
        assert len(table) == 1

    def test_pop_matching(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(ident=1))
        table.add(self.s_stored(ident=2))
        moved = table.pop_matching(lambda ident: ident == 2)
        assert len(moved) == 1 and len(table) == 1

    def test_iteration(self):
        table = ValueLevelTupleTable()
        table.add(self.s_stored(e=1))
        table.add(self.s_stored(e=2))
        assert len(list(table)) == 2


class TestProjectionStore:
    def projection(self, value=7, pub=1.0, a=10):
        tup = DataTuple(R, (a, value), pub)
        return StoredProjection(
            projection=tup.project(("A", "B")),
            group_signature="sig",
            value=value,
            routing_ident=0,
        )

    def test_add_and_candidates(self):
        store = ProjectionStore()
        assert store.add(self.projection())
        assert len(store.candidates("sig", "R", 7)) == 1
        assert store.candidates("sig", "R", 8) == []
        assert store.candidates("other", "R", 7) == []
        assert store.candidates("sig", "S", 7) == []

    def test_identical_content_collapsed(self):
        store = ProjectionStore()
        assert store.add(self.projection(pub=1.0))
        assert not store.add(self.projection(pub=2.0))
        assert len(store) == 1
        # The surviving copy carries the fresher publication time.
        assert store.candidates("sig", "R", 7)[0].projection.pub_time == 2.0

    def test_distinct_content_kept(self):
        store = ProjectionStore()
        store.add(self.projection(a=10))
        store.add(self.projection(a=11))
        assert len(store) == 2

    def test_evict_older_than(self):
        store = ProjectionStore()
        store.add(self.projection(pub=1.0, a=1))
        store.add(self.projection(pub=9.0, a=2))
        assert store.evict_older_than(5.0) == 1
        assert len(store) == 1

    def test_pop_matching(self):
        store = ProjectionStore()
        first = self.projection(a=1)
        second = self.projection(a=2)
        second.routing_ident = 5
        store.add(first)
        store.add(second)
        moved = store.pop_matching(lambda ident: ident == 5)
        assert len(moved) == 1 and len(store) == 1
