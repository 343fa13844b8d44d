"""Chord ring maintenance: stabilize, notify, fix fingers (Section 2.2).

"Every node runs a stabilization algorithm periodically to learn about
nodes that have recently joined the network [...]  Each node n
periodically runs two additional algorithms to check that its finger
table and predecessor pointer is correct."

These functions are deliberately free functions over
:class:`~repro.chord.node.ChordNode` so they can be unit-tested without
a network and scheduled by the simulator as periodic events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .node import ChordNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .routing import Router


def stabilize(node: ChordNode) -> None:
    """One stabilization step for ``node``.

    Ask the successor for its predecessor ``p``; if ``p`` has slipped in
    between, adopt it as the new successor.  Then notify the successor
    of our existence and refresh the successor list.
    """
    if not node.alive:
        return
    successor = node.successor
    if successor is node:
        # Every successor-list entry died at once (a burst of crashes
        # wider than the list).  Fall back to the nearest live finger
        # or the predecessor as an interim successor; the normal
        # stabilize/notify cycle then walks it back to the true one.
        successor = _emergency_successor(node)
        if successor is None:
            return
        node.set_successor(successor)
    candidate = successor.predecessor
    if (
        candidate is not None
        and candidate is not node
        and candidate.alive
        and node.space.in_open(candidate.ident, node.ident, successor.ident)
    ):
        node.set_successor(candidate)
        successor = candidate
    notify(successor, node)
    node.refresh_successor_list()


def _emergency_successor(node: ChordNode) -> ChordNode | None:
    """The closest live node clockwise of ``node`` it still knows about.

    Consulted only when the whole successor list is dead; scans the
    finger table plus the predecessor pointer.  Returns ``None`` when
    the node knows no other live node (e.g. a one-node ring).
    """
    best: ChordNode | None = None
    best_distance: int | None = None
    candidates = list(node.fingers)
    if node.predecessor is not None:
        candidates.append(node.predecessor)
    for candidate in candidates:
        if candidate is None or candidate is node or not candidate.alive:
            continue
        distance = node.space.distance(node.ident, candidate.ident)
        if best_distance is None or distance < best_distance:
            best, best_distance = candidate, distance
    return best


def notify(node: ChordNode, candidate: ChordNode) -> None:
    """``candidate`` tells ``node`` it might be its predecessor."""
    if node is candidate or not candidate.alive:
        return
    current = node.predecessor
    if (
        current is None
        or not current.alive
        or current is node
        or node.space.in_open(candidate.ident, current.ident, node.ident)
    ):
        node.predecessor = candidate


def check_predecessor(node: ChordNode) -> None:
    """Drop the predecessor pointer if that node has failed."""
    if node.predecessor is not None and not node.predecessor.alive:
        node.predecessor = None


def fix_finger(node: ChordNode, index: int, router: "Router") -> None:
    """Recompute finger ``index`` with a routed lookup.

    A node whose table was never assigned (``fingers == ()``) gets an
    empty one of ``m`` entries first.
    """
    if not node.alive:
        return
    target, _ = router.find_successor(node, node.finger_start(index))
    fingers = node.fingers
    if not fingers:
        fingers = node.fingers = [None] * node.space.m
    fingers[index] = target


def fix_next_finger(node: ChordNode, router: "Router") -> None:
    """Refresh one finger per call, round-robin (the protocol's pacing).

    The cursor lives on the node itself: a module-level table keyed by
    ``id(node)`` would leak entries for dead nodes and could alias
    recycled object ids across independently built networks.
    """
    fix_finger(node, node.finger_cursor, router)
    node.finger_cursor = (node.finger_cursor + 1) % node.space.m
