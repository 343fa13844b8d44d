"""Int-keyed ring snapshot: routing over sorted identifier arrays.

On a stable (exact) ring every routing decision —
``Successor(I)``, ownership, and the closest-preceding-finger choice —
is a pure function of the sorted identifier array, so the per-hop walk
through ``ChordNode`` objects can be replaced by ``bisect`` arithmetic
over one ``list[int]``.  :class:`RingSnapshot` is that function table.

The snapshot replicates the object walk *exactly*, hop for hop:

* ``find_successor`` mirrors :meth:`repro.chord.routing.Router.find_successor`
  (ownership test, successor shortcut, greedy finger forwarding);
* ``walk_pos`` mirrors the recursive-multisend traversal
  (:meth:`repro.chord.routing.Router._walk`), which counts the final
  handover hop only when the walk actually moves;
* ``closest_preceding_finger`` evaluates the finger-table scan of
  :meth:`repro.chord.node.ChordNode.closest_preceding_finger` in
  closed form: on an exact ring finger ``j`` points at
  ``Successor(n + 2**j)``, so the best in-interval finger is the one
  whose power-of-two start lies just below the last ring member before
  the target — two bisects instead of an ``m + r`` entry scan.  The
  successor-list candidates are covered by the same argument (entry
  ``k`` is the ``k``-th clockwise member), with the object scan's
  strict ``>`` tie-break preserved (a finger beats an equal successor
  entry).

Validity is the caller's contract: a snapshot describes one membership
generation of a ring whose pointers are exact (as after
``ChordNetwork.build`` / ``rebuild_ring_state``) and whose members are
all alive.  ``ChordNetwork`` tracks both conditions and hands out
``None`` instead of a stale snapshot (see ``ring_snapshot``); the
differential tests in ``tests/chord/test_snapshot_differential.py``
assert hop-exact agreement with the object walk across random
memberships and wrap-around identifiers.
"""

from __future__ import annotations

from bisect import bisect_left

from ..errors import RoutingError


class RingSnapshot:
    """Immutable routing view of one exact ring membership.

    Parameters
    ----------
    idents:
        Sorted, duplicate-free member identifiers (at least one).
    m:
        Identifier-space bits (ring size is ``2**m``).
    successor_list_size:
        ``r`` — the successor-list length the object ring uses; the
        closed-form ``closest_preceding_finger`` needs it to consider
        the same candidate set as the object scan.
    generation:
        Membership generation this snapshot was built from; the owner
        network compares it against its counter to invalidate in O(1).
    """

    __slots__ = (
        "idents",
        "n",
        "m",
        "size",
        "successor_list_size",
        "max_hops",
        "generation",
        "_pos",
    )

    def __init__(
        self,
        idents: list[int],
        m: int,
        successor_list_size: int,
        generation: int = 0,
    ):
        if not idents:
            raise ValueError("a ring snapshot needs at least one member")
        self.idents = idents
        self.n = len(idents)
        self.m = m
        self.size = 1 << m
        self.successor_list_size = successor_list_size
        #: Same give-up bound as the object router.
        self.max_hops = 4 * m + 8
        self.generation = generation
        self._pos = {ident: index for index, ident in enumerate(idents)}

    # ------------------------------------------------------------------
    # Membership / positions
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __contains__(self, ident: int) -> bool:
        return ident in self._pos

    def position(self, ident: int) -> int:
        """Array position of member ``ident`` (KeyError if absent)."""
        return self._pos[ident]

    def owner_pos(self, ident: int) -> int:
        """Position of ``Successor(ident)`` — the owner of the key."""
        index = bisect_left(self.idents, ident)
        return 0 if index == self.n else index

    def owns(self, pos: int, ident: int) -> bool:
        """Ownership test of the member at ``pos``: ``(pred, self]``."""
        if self.n == 1:
            return True
        idents = self.idents
        low = idents[pos - 1]  # negative index wraps, matching the ring
        size = self.size
        return 0 < (ident - low) % size <= (idents[pos] - low) % size

    # ------------------------------------------------------------------
    # Greedy forwarding
    # ------------------------------------------------------------------
    def closest_preceding_finger_pos(self, pos: int, ident: int) -> int:
        """Closed-form replica of the object node's finger scan.

        Returns the position of the node the member at ``pos`` would
        forward toward ``ident``; ``pos`` itself when no finger or
        successor-list entry lies strictly inside ``(self, ident)``.
        """
        idents = self.idents
        n = self.n
        if n == 1:
            return pos
        current = idents[pos]
        size = self.size
        span = (ident - current) % size
        if span == 0:
            span = size
        # Members strictly inside the open interval (current, ident).
        if span == size:
            inside = n - 1
        elif current < ident:
            inside = bisect_left(idents, ident) - (pos + 1)
        else:
            inside = (n - (pos + 1)) + bisect_left(idents, ident)
        if inside == 0:
            return pos
        # The farthest member inside the interval sits ``inside`` steps
        # clockwise; the best finger is Successor(current + 2**j) where
        # 2**j is the highest power of two not exceeding that distance.
        last_pos = pos + inside
        if last_pos >= n:
            last_pos -= n
        farthest = (idents[last_pos] - current) % size
        finger_pos = self.owner_pos((current + (1 << (farthest.bit_length() - 1))) % size)
        finger_distance = (idents[finger_pos] - current) % size
        # Best successor-list entry inside the interval: entry k is the
        # k-th clockwise member, so take the deepest one that fits.
        reach = min(self.successor_list_size, n - 1, inside)
        successor_pos = pos + reach
        if successor_pos >= n:
            successor_pos -= n
        successor_distance = (idents[successor_pos] - current) % size
        # Strict ``>``: the object scan only replaces the best finger
        # with a successor-list entry that is strictly closer.
        if successor_distance > finger_distance:
            return successor_pos
        return finger_pos

    def find_successor(self, start_ident: int, ident: int) -> tuple[int, int]:
        """``(owner position, hops)`` — mirrors ``Router.find_successor``."""
        return self._route(self._pos[start_ident], ident, lookup=True)

    def walk_pos(self, start_pos: int, ident: int) -> tuple[int, int]:
        """``(owner position, hops)`` — mirrors the multisend ``_walk``."""
        return self._route(start_pos, ident, lookup=False)

    def _route(self, pos: int, ident: int, *, lookup: bool) -> tuple[int, int]:
        """Shared forwarding loop of ``find_successor`` and ``walk_pos``.

        The two object loops differ only in where the successor
        shortcut stops: ``find_successor`` returns the successor
        directly (billing the handover hop), ``_walk`` steps onto the
        successor and re-checks ownership — same node, same hop count,
        so one loop serves both.  ``lookup`` is kept for symmetry with
        the object code and for the hop-bound error message.
        """
        idents = self.idents
        n = self.n
        if n == 1:
            return pos, 0
        size = self.size
        max_hops = self.max_hops
        hops = 0
        while True:
            current = idents[pos]
            # owns: (predecessor, current]
            low = idents[pos - 1]
            if 0 < (ident - low) % size <= (current - low) % size:
                return pos, hops
            successor_pos = pos + 1
            if successor_pos == n:
                successor_pos = 0
            # in_half_open(ident, current, successor)
            if 0 < (ident - current) % size <= (idents[successor_pos] - current) % size:
                return successor_pos, hops + 1
            next_pos = self.closest_preceding_finger_pos(pos, ident)
            if next_pos == pos:
                next_pos = successor_pos
            pos = next_pos
            hops += 1
            if hops > max_hops:
                kind = "lookup" if lookup else "multisend walk"
                raise RoutingError(
                    f"{kind} toward {ident} exceeded {max_hops} hops; "
                    f"ring snapshot is inconsistent"
                )


class SegmentMap:
    """Contiguous-segment shard ownership over a sorted ident array.

    The sharded executor (:mod:`repro.sim.shard`) assigns ring position
    ``p`` of ``n`` members to shard ``p * shards // n`` — contiguous,
    balanced segments.  This map answers "which shard owns identifier
    ``i``?" with one ``bisect`` over the shared sorted array instead of
    materializing an ident→shard dict, which at 10^6 members would cost
    tens of megabytes and a full pass to build even for single-shard
    runs that never ask.

    Holds a *reference* to the caller's array (construction is O(1));
    validity follows the same membership-generation contract as
    :class:`RingSnapshot`.  Asking about a non-member identifier is a
    contract violation and returns the successor's segment.
    """

    __slots__ = ("idents", "shards", "_n")

    def __init__(self, idents: list[int], shards: int):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if not idents:
            raise ValueError("segment map requires a non-empty ring")
        self.idents = idents
        self.shards = shards
        self._n = len(idents)

    def shard_of(self, ident: int) -> int:
        """The shard owning member ``ident``."""
        return bisect_left(self.idents, ident) * self.shards // self._n
