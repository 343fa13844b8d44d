"""Per-node footprint: a simulator node allocates only what the run reads.

Full garbage collections rescan every GC-tracked object, so on rings of
10^5 nodes the objects kept per node (and per adopted node) set how much
time the collector takes.  These tests pin what a node holds:

* a built ring keeps the node and its successor list, but no finger list
  and no handler table of its own;
* an engine shares one read-only handler table between all the nodes it
  adopts, and a per-node registration copies it instead of leaking;
* an unwindowed DAI-T state creates no VLTT, projection store or
  eviction heap until one is used.
"""

import gc

import pytest

from repro import ChordNetwork
from repro.sim.messages import Message, UnsubscribeMessage


def tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestRing:
    def test_build_keeps_at_most_two_tracked_objects_per_node(self):
        n_nodes = 2000
        ChordNetwork.build(8)  # first-use allocations outside the count
        before = tracked_objects()
        network = ChordNetwork.build(n_nodes)
        added = tracked_objects() - before
        assert len(network) == n_nodes
        # Per node: the node and its successor list.  Per ring: a
        # handful (the network, its router, stats and registries).
        assert added <= 2 * n_nodes + 16

    def test_built_nodes_have_no_finger_list_until_materialized(self):
        network = ChordNetwork.build(32)
        assert all(node.fingers == () for node in network)
        network.materialize_fingers()
        for node in network:
            assert len(node.fingers) == network.space.m
            assert node.fingers[0] is network.responsible_node(node.finger_start(0))

    def test_joined_nodes_get_full_finger_lists(self):
        network = ChordNetwork(m=8)
        first = network.join("first")
        second = network.join("second")
        assert len(first.fingers) == len(second.fingers) == network.space.m
        assert all(entry is not None for entry in second.fingers)


class TestHandlerTable:
    def test_adopted_nodes_share_one_table(self, engine_factory):
        engine = engine_factory()
        a, b = engine.network.nodes[:2]
        engine.adopt(a)
        engine.adopt(b)
        assert a._handlers is b._handlers

    def test_register_handler_does_not_leak_to_other_nodes(self, engine_factory):
        engine = engine_factory()
        network = engine.network
        a, b = network.nodes[:2]
        engine.adopt(a)
        engine.adopt(b)
        seen = []
        a.register_handler("unsubscribe", lambda node, message: seen.append(node))
        a.register_handler(Message.type, lambda node, message: seen.append(node))
        assert a._handlers is not b._handlers

        b.deliver(UnsubscribeMessage(query_key="absent"))
        assert seen == []
        with pytest.raises(LookupError):
            b.deliver(Message())
        a.deliver(UnsubscribeMessage(query_key="absent"))
        a.deliver(Message())
        assert seen == [a, a]
        # The override replaced only its own type on ``a``.
        assert a._handlers["join"] is b._handlers["join"]

    def test_adoption_keeps_handlers_registered_before(self, engine_factory):
        engine = engine_factory()
        node = engine.network.nodes[0]
        seen = []
        node.register_handler(Message.type, lambda n, message: seen.append(message))
        engine.adopt(node)
        probe = Message()
        node.deliver(probe)
        node.deliver(UnsubscribeMessage(query_key="absent"))
        assert seen == [probe]


class TestValueLevelTables:
    def test_unwindowed_dai_t_state_creates_no_unused_tables(
        self, engine_factory, two_relation_schema, simple_join_sql
    ):
        engine = engine_factory("dai-t")
        network = engine.network
        engine.subscribe(network.nodes[0], simple_join_sql, two_relation_schema)
        r, s = two_relation_schema.relation("R"), two_relation_schema.relation("S")
        for step in range(6):
            engine.clock.advance(1)
            engine.publish(network.nodes[step], r, {"A": step, "B": step % 2, "C": 0})
            engine.publish(network.nodes[step + 1], s, {"D": step, "E": step % 2, "F": 0})
        assert engine.delivered_rows(next(iter(engine.queries)))

        states = [state for _, state in engine.adopted_states()]
        assert states
        for state in states:
            state.storage_breakdown()
            state.evict_expired(float("inf"))
            assert state._vltt is None
            assert state._projections is None
            assert state.vlqt._evict_heap is None

    def test_tables_appear_on_first_use(self, engine_factory):
        engine = engine_factory("dai-t")
        state = engine.state(engine.network.nodes[0])
        assert state.storage_breakdown().value_level == 0
        assert state._vltt is None and state._projections is None
        vltt, projections = state.vltt, state.projections
        assert state.vltt is vltt and state.projections is projections
        assert vltt._evict_heap is None and projections._evict_heap is None

    def test_windowed_tables_keep_heaps(self, engine_factory):
        engine = engine_factory("sai", window=10.0)
        state = engine.state(engine.network.nodes[0])
        assert state.vlqt._evict_heap == []
        assert state.vltt._evict_heap == []

    def test_transfer_creates_no_tables_on_either_side(self, engine_factory):
        engine = engine_factory("dai-t")
        source, target = (engine.state(node) for node in engine.network.nodes[:2])
        assert source.transfer_to(target, lambda ident: True) == 0
        for state in (source, target):
            assert state._vltt is None and state._projections is None
