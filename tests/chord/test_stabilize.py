"""Unit tests for the stabilize/notify/fix-finger maintenance protocol."""

from repro.chord import ChordNetwork
from repro.chord.idspace import IdentifierSpace
from repro.chord.node import ChordNode
from repro.chord import stabilize as maintenance


def node(ident, space=None):
    return ChordNode(f"k{ident}", ident, space or IdentifierSpace(8))


class TestNotify:
    def test_adopts_first_predecessor(self):
        space = IdentifierSpace(8)
        a, b = node(10, space), node(20, space)
        maintenance.notify(b, a)
        assert b.predecessor is a

    def test_adopts_closer_predecessor(self):
        space = IdentifierSpace(8)
        a, between, b = node(10, space), node(15, space), node(20, space)
        b.predecessor = a
        maintenance.notify(b, between)
        assert b.predecessor is between

    def test_keeps_closer_existing_predecessor(self):
        space = IdentifierSpace(8)
        a, between, b = node(10, space), node(15, space), node(20, space)
        b.predecessor = between
        maintenance.notify(b, a)
        assert b.predecessor is between

    def test_ignores_dead_candidate(self):
        space = IdentifierSpace(8)
        a, b = node(10, space), node(20, space)
        a.alive = False
        maintenance.notify(b, a)
        assert b.predecessor is None

    def test_ignores_self(self):
        a = node(10)
        maintenance.notify(a, a)
        assert a.predecessor is None

    def test_replaces_dead_predecessor(self):
        space = IdentifierSpace(8)
        dead, fresh, b = node(12, space), node(11, space), node(20, space)
        dead.alive = False
        b.predecessor = dead
        maintenance.notify(b, fresh)
        assert b.predecessor is fresh


class TestCheckPredecessor:
    def test_clears_dead_predecessor(self):
        a, b = node(1), node(2)
        b.predecessor = a
        a.alive = False
        maintenance.check_predecessor(b)
        assert b.predecessor is None

    def test_keeps_live_predecessor(self):
        a, b = node(1), node(2)
        b.predecessor = a
        maintenance.check_predecessor(b)
        assert b.predecessor is a


class TestStabilize:
    def test_discovers_interposed_node(self):
        space = IdentifierSpace(8)
        a, mid, b = node(10, space), node(15, space), node(20, space)
        a.set_successor(b)
        mid.set_successor(b)
        b.predecessor = mid  # mid joined between a and b
        maintenance.stabilize(a)
        assert a.successor is mid
        assert mid.predecessor is a

    def test_notifies_successor(self):
        space = IdentifierSpace(8)
        a, b = node(10, space), node(20, space)
        a.set_successor(b)
        maintenance.stabilize(a)
        assert b.predecessor is a

    def test_noop_when_alone(self):
        a = node(1)
        maintenance.stabilize(a)  # must not raise
        assert a.successor is a


class TestFixFingers:
    def test_fix_finger_updates_entry(self):
        network = ChordNetwork.build(16)
        target = network.nodes[0]
        target.fingers = [None] * network.space.m
        target.set_successor(network.nodes[1])
        for j in range(network.space.m):
            maintenance.fix_finger(target, j, network.router)
        for j in range(network.space.m):
            expected = network.responsible_node(target.finger_start(j))
            assert target.fingers[j] is expected

    def test_fix_next_finger_round_robin(self):
        network = ChordNetwork.build(8)
        target = network.nodes[0]
        # m calls must refresh every entry exactly once.
        target.fingers = [None] * network.space.m
        target.set_successor(network.nodes[1])
        for _ in range(network.space.m):
            maintenance.fix_next_finger(target, network.router)
        assert all(entry is not None for entry in target.fingers)


class TestBuiltRing:
    """Stabilization on a ring made by ``build``, whose finger tables
    are not materialized yet."""

    def test_fix_all_fingers_keeps_ring_and_sets_oracle_fingers(self):
        network = ChordNetwork.build(64)
        assert all(entry.fingers == () for entry in network)
        network.run_stabilization(2, fix_all_fingers=True)
        assert network.ring_is_consistent()
        for entry in network:
            assert list(entry.fingers) == [
                network.responsible_node(entry.finger_start(j))
                for j in range(network.space.m)
            ]

    def test_round_robin_fix_on_built_ring(self):
        network = ChordNetwork.build(16)
        network.run_stabilization(1)
        assert network.ring_is_consistent()
        assert all(len(entry.fingers) == network.space.m for entry in network)

    def test_fix_finger_on_a_node_without_a_table(self):
        network = ChordNetwork.build(16)
        target = network.nodes[0]
        maintenance.fix_finger(target, 3, network.router)
        assert len(target.fingers) == network.space.m
        assert target.fingers[3] is network.responsible_node(target.finger_start(3))
