"""Unit tests for ChordNode pointers and handlers."""

import pytest

from repro.chord.idspace import IdentifierSpace
from repro.chord.node import ChordNode
from repro.sim.messages import Message


def make_node(ident, space=None):
    space = space or IdentifierSpace(8)
    return ChordNode(f"key-{ident}", ident, space)


class TestSuccessorList:
    def test_single_node_is_own_successor(self):
        node = make_node(10)
        assert node.successor is node

    def test_set_successor_prepends(self):
        a, b, c = make_node(1), make_node(2), make_node(3)
        a.set_successor(b)
        a.set_successor(c)
        assert a.successor is c
        assert a.successor_list == [c, b]

    def test_set_successor_deduplicates(self):
        a, b = make_node(1), make_node(2)
        a.set_successor(b)
        a.set_successor(b)
        assert a.successor_list == [b]

    def test_dead_entries_skipped(self):
        a, b, c = make_node(1), make_node(2), make_node(3)
        a.successor_list = [b, c]
        b.alive = False
        assert a.successor is c

    def test_all_dead_falls_back_to_self(self):
        a, b = make_node(1), make_node(2)
        a.successor_list = [b]
        b.alive = False
        assert a.successor is a

    def test_truncated_to_size(self):
        a = make_node(1)
        a.successor_list_size = 2
        for ident in (2, 3, 4):
            a.set_successor(make_node(ident))
        assert len(a.successor_list) == 2

    def test_refresh_copies_successors_chain(self):
        a, b, c, d = (make_node(i) for i in (1, 2, 3, 4))
        a.set_successor(b)
        b.successor_list = [c, d]
        a.refresh_successor_list()
        assert a.successor_list == [b, c, d]

    def test_refresh_stops_at_self(self):
        a, b = make_node(1), make_node(2)
        a.set_successor(b)
        b.successor_list = [a]
        a.refresh_successor_list()
        assert a.successor_list == [b]


class TestOwnership:
    def test_owns_with_predecessor(self):
        space = IdentifierSpace(8)
        node = make_node(100, space)
        node.predecessor = make_node(50, space)
        assert node.owns(100)
        assert node.owns(51)
        assert not node.owns(50)
        assert not node.owns(101)

    def test_owns_wrapping(self):
        space = IdentifierSpace(8)
        node = make_node(5, space)
        node.predecessor = make_node(250, space)
        assert node.owns(0)
        assert node.owns(255)
        assert not node.owns(250)

    def test_no_predecessor_owns_nothing_unless_alone(self):
        node = make_node(100)
        assert node.owns(100)  # alone on the ring (successor is self)
        node.set_successor(make_node(120))
        assert not node.owns(100)


class TestFingers:
    def test_finger_start_doubles(self):
        node = make_node(0)
        assert [node.finger_start(j) for j in range(4)] == [1, 2, 4, 8]

    def test_finger_start_wraps(self):
        node = make_node(200)
        assert node.finger_start(7) == (200 + 128) % 256

    def test_closest_preceding_finger_picks_farthest_in_range(self):
        space = IdentifierSpace(8)
        node = make_node(0, space)
        f1, f2, f3 = make_node(10, space), make_node(60, space), make_node(200, space)
        assert node.fingers == ()
        node.fingers = [None] * space.m
        node.fingers[0] = f1
        node.fingers[5] = f2
        node.fingers[7] = f3
        assert node.closest_preceding_finger(100) is f2
        assert node.closest_preceding_finger(250) is f3
        assert node.closest_preceding_finger(5) is node

    def test_closest_preceding_finger_skips_dead(self):
        space = IdentifierSpace(8)
        node = make_node(0, space)
        best = make_node(90, space)
        dead = make_node(95, space)
        dead.alive = False
        node.fingers = [None] * space.m
        node.fingers[0] = best
        node.fingers[1] = dead
        assert node.closest_preceding_finger(100) is best

    def test_considers_successor_list(self):
        space = IdentifierSpace(8)
        node = make_node(0, space)
        succ = make_node(40, space)
        node.set_successor(succ)
        assert node.closest_preceding_finger(100) is succ


class TestHandlers:
    def test_dispatches_by_type(self):
        node = make_node(1)
        received = []
        node.register_handler("message", lambda n, m: received.append((n, m)))
        message = Message()
        node.deliver(message)
        assert received == [(node, message)]

    def test_missing_handler_raises(self):
        node = make_node(1)
        with pytest.raises(LookupError):
            node.deliver(Message())
