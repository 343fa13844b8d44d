"""A simulated Chord overlay network (Section 2.2).

:class:`ChordNetwork` owns the shared hash function, identifier space,
router and traffic statistics, plus the node registry.  It supports two
construction modes:

* :meth:`ChordNetwork.build` creates a stable ring directly (correct
  successors and predecessors, finger tables filled on demand) — the
  setting of the paper's experiments, which evaluate query processing
  rather than ring maintenance;
* incremental :meth:`join` / :meth:`leave` / :meth:`fail` plus
  :meth:`run_stabilization` exercise the actual Chord maintenance
  protocol (stabilize, fix fingers, check predecessor) for
  churn-tolerance studies.

Application data handoff (the Chord rule that a joining node receives
the keys it now owns from its successor, and a voluntarily leaving node
pushes its keys to its successor) is delegated to ``transfer_hook`` so
the query-processing layer can move its tables without the DHT layer
knowing their structure.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from ..errors import NetworkError
from ..perf import PERF
from ..sim.stats import TrafficStats
from ..transport import Transport
from .hashing import DEFAULT_M, ConsistentHash
from .idspace import IdentifierSpace
from .node import DEFAULT_SUCCESSOR_LIST_SIZE, ChordNode
from .routing import Router
from .snapshot import RingSnapshot
from . import stabilize as maintenance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector

#: Called as ``transfer_hook(source_node, target_node)`` whenever
#: responsibility moves between two nodes (join or voluntary leave).
TransferHook = Callable[[ChordNode, ChordNode], None]


class ChordNetwork:
    """A complete simulated Chord ring."""

    def __init__(
        self,
        m: int = DEFAULT_M,
        successor_list_size: int = DEFAULT_SUCCESSOR_LIST_SIZE,
        stats: TrafficStats | None = None,
        injector: Optional["FaultInjector"] = None,
    ):
        self.hash = ConsistentHash(m)
        self.space = IdentifierSpace(m)
        self.stats = stats if stats is not None else TrafficStats()
        self.router = Router(self.space, self.stats, injector=injector)
        #: Active message transport (the Section 2.3 API).  Defaults to
        #: the in-process router; :meth:`use_transport` swaps in a live
        #: one (e.g. :class:`repro.net.peer.SocketTransport`) without
        #: the engine or algorithms noticing.
        self.transport: Transport = self.router
        self.successor_list_size = successor_list_size
        self._nodes: dict[int, ChordNode] = {}
        self._sorted_idents: list[int] = []
        self.transfer_hook: Optional[TransferHook] = None
        #: True while every node's ring pointers match the membership
        #: exactly (as after :meth:`build` / :meth:`rebuild_ring_state`);
        #: any membership change clears it until the next full rebuild.
        #: While it holds, routing runs on the :meth:`ring_snapshot`.
        self._ring_exact = False
        #: Finger tables not filled since the last full rebuild: snapshot
        #: routing never reads them, and building them dominates ring
        #: construction time and memory.  :meth:`materialize_fingers`
        #: fills them when the object walk or ring maintenance is about
        #: to need them.
        self._fingers_stale = False
        #: Bumped on every membership change; O(1) snapshot invalidation.
        self._membership_generation = 0
        self._snapshot: Optional[RingSnapshot] = None
        self.router.ring = self

    def use_transport(self, transport: Transport) -> Transport:
        """Install ``transport`` as the active message substrate.

        Returns the previous transport so callers can restore it.  The
        router keeps serving routed lookups (ring maintenance, joins)
        either way; only application message delivery moves.
        """
        previous = self.transport
        self.transport = transport
        return previous

    @property
    def injector(self) -> Optional["FaultInjector"]:
        """The fault oracle the router consults (``None`` = cooperative)."""
        return self.router.injector

    @injector.setter
    def injector(self, injector: Optional["FaultInjector"]) -> None:
        self.router.injector = injector

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        n_nodes: int,
        m: int = DEFAULT_M,
        successor_list_size: int = DEFAULT_SUCCESSOR_LIST_SIZE,
        key_prefix: str = "node",
        injector: Optional["FaultInjector"] = None,
        *,
        fast_routing: bool = False,  # ignored; the benchmark in perfbench/ still passes it
    ) -> "ChordNetwork":
        """Create a stable ring of ``n_nodes`` nodes.

        Node keys are ``"{key_prefix}-{i}"``; identifier collisions
        (possible at small ``m``) are resolved by salting the key, so
        the ring always has exactly ``n_nodes`` distinct identifiers.
        Successors and predecessors are set exactly; every node's
        ``fingers`` stays the empty tuple until
        :meth:`materialize_fingers`.
        """
        if n_nodes < 1:
            raise NetworkError("a network needs at least one node")
        network = cls(
            m=m, successor_list_size=successor_list_size, injector=injector
        )
        nodes = network._nodes
        hash_fn = network.hash
        for index in range(n_nodes):
            key = f"{key_prefix}-{index}"
            salt = 0
            ident = hash_fn(key)
            while ident in nodes:
                salt += 1
                ident = hash_fn(f"{key}~{salt}")
            nodes[ident] = ChordNode(
                key if salt == 0 else f"{key}~{salt}",
                ident,
                network.space,
                successor_list_size=successor_list_size,
            )
        # Bulk registration: one sort instead of n_nodes insorts (the
        # repeated-memmove cost is what made >=100k-node builds crawl).
        network._sorted_idents = sorted(nodes)
        network._membership_generation += 1
        network.rebuild_ring_state()
        return network

    def _register(self, node: ChordNode) -> None:
        if node.ident in self._nodes:
            raise NetworkError(f"identifier collision at {node.ident}")
        self.materialize_fingers()
        self._nodes[node.ident] = node
        bisect.insort(self._sorted_idents, node.ident)
        self._membership_generation += 1
        self._ring_exact = False

    def _unregister(self, node: ChordNode) -> None:
        self.materialize_fingers()
        del self._nodes[node.ident]
        index = bisect.bisect_left(self._sorted_idents, node.ident)
        self._sorted_idents.pop(index)
        self._membership_generation += 1
        self._ring_exact = False

    def rebuild_ring_state(self) -> None:
        """Set every successor and predecessor pointer exactly.

        Equivalent to letting stabilization run to quiescence; used by
        :meth:`build` and available to tests that damage the ring.
        Finger tables are marked stale, to be refilled from the new
        membership by :meth:`materialize_fingers`.
        """
        nodes = self._nodes
        ordered = [nodes[ident] for ident in self._sorted_idents]
        count = len(ordered)
        # Two laps of the ring, so every successor run is one slice.
        lap = ordered + ordered
        for position, node in enumerate(ordered):
            node.successor_list = lap[
                position + 1 : position + min(count, node.successor_list_size + 1)
            ]
            node.predecessor = ordered[position - 1] if count > 1 else node
        self._ring_exact = True
        self._fingers_stale = True

    def materialize_fingers(self) -> None:
        """Give every node a full finger list from the membership oracle.

        Called before a membership change, before ring maintenance, by
        the router whenever it falls back to the object walk, and by a
        live cluster, whose peers forward on ``node.fingers``
        themselves.  Successor and predecessor pointers are left alone,
        so damage to them stays visible.  A no-op while the fingers are
        current.
        """
        if not self._fingers_stale:
            return
        self._fingers_stale = False
        successor = self._oracle_successor
        m = self.space.m
        for node in self._nodes.values():
            node.fingers = [successor(node.finger_start(j)) for j in range(m)]

    # ------------------------------------------------------------------
    # Snapshot routing
    # ------------------------------------------------------------------
    def ring_snapshot(self) -> Optional[RingSnapshot]:
        """The current :class:`RingSnapshot`, or ``None`` when invalid.

        A snapshot is only handed out while the ring is exact (no
        membership change since the last full rebuild).  Rebuilds are
        O(1)-amortized: membership changes just bump a generation
        counter, and the sorted-array copy happens at most once per
        generation, on first use.
        """
        if not self._ring_exact or not self._nodes:
            return None
        snapshot = self._snapshot
        if snapshot is None or snapshot.generation != self._membership_generation:
            snapshot = RingSnapshot(
                list(self._sorted_idents),
                self.space.m,
                self.successor_list_size,
                generation=self._membership_generation,
            )
            self._snapshot = snapshot
            if PERF.enabled:
                PERF.count("snapshot.rebuilds")
        return snapshot

    def _oracle_successor(self, ident: int) -> ChordNode:
        """Global-knowledge successor; only for construction and checks."""
        idents = self._sorted_idents
        index = bisect.bisect_left(idents, ident)
        if index == len(idents):
            index = 0
        return self._nodes[idents[index]]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[ChordNode]:
        return iter(self._nodes.values())

    @property
    def nodes(self) -> list[ChordNode]:
        """Live nodes in identifier order."""
        return [self._nodes[ident] for ident in self._sorted_idents]

    def node_at(self, ident: int) -> ChordNode:
        """The node with exactly this identifier (KeyError if absent)."""
        return self._nodes[ident]

    def responsible_node(self, ident: int) -> ChordNode:
        """Ground-truth ``Successor(ident)`` (oracle; not a routed lookup)."""
        if not self._nodes:
            raise NetworkError("network is empty")
        return self._oracle_successor(ident % self.space.size)

    def random_node(self, rng) -> ChordNode:
        """A uniformly random live node, using the caller's RNG."""
        return self._nodes[self._sorted_idents[rng.randrange(len(self._sorted_idents))]]

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def join(self, key: str, *, via: ChordNode | None = None) -> ChordNode:
        """A new node joins through bootstrap node ``via`` (Section 2.2).

        The new node discovers its successor by a routed lookup, splices
        itself in, and receives from the successor the application items
        it now owns (``transfer_hook``).  Remaining pointers converge
        through :meth:`run_stabilization`.
        """
        ident = self.hash(key)
        salt = 0
        while ident in self._nodes:
            salt += 1
            ident = self.hash(f"{key}~{salt}")
        node = ChordNode(
            key if salt == 0 else f"{key}~{salt}",
            ident,
            self.space,
            successor_list_size=self.successor_list_size,
        )
        m = self.space.m
        if not self._nodes:
            node.fingers = [None] * m
            node.predecessor = node
            self._register(node)
            return node
        bootstrap = via if via is not None else next(iter(self._nodes.values()))
        find_successor = self.router.find_successor
        successor, _ = find_successor(bootstrap, node.ident)
        node.set_successor(successor)
        node.predecessor = None
        # Seed the finger table with lookups through the bootstrap node.
        node.fingers = [find_successor(bootstrap, node.finger_start(j))[0] for j in range(m)]
        old_predecessor = successor.predecessor
        self._register(node)
        maintenance.notify(successor, node)
        if old_predecessor is not None and old_predecessor is not successor:
            old_predecessor.set_successor(node)
            node.predecessor = old_predecessor
        node.refresh_successor_list()
        if self.transfer_hook is not None:
            self.transfer_hook(successor, node)
        return node

    def _require_member(self, node: ChordNode) -> None:
        if self._nodes.get(node.ident) is not node:
            raise NetworkError(f"node {node.ident} is not in this network")

    def leave(self, node: ChordNode) -> None:
        """Voluntary departure: keys move to the successor (Section 2.2)."""
        self._require_member(node)
        if len(self._nodes) == 1:
            self._unregister(node)
            node.alive = False
            return
        successor = node.successor
        predecessor = node.predecessor
        if predecessor is not None and predecessor is not node:
            predecessor.set_successor(successor)
        if successor.predecessor is node:
            successor.predecessor = predecessor if predecessor is not node else None
        # Pointers are fixed before the handoff so that the successor
        # already owns the departed range when items are offered to it.
        if self.transfer_hook is not None and successor is not node:
            self.transfer_hook(node, successor)
        self._unregister(node)
        node.alive = False

    def fail(self, node: ChordNode) -> None:
        """Abrupt failure: the node vanishes, its items are lost.

        The paper assumes best-effort semantics and "leaves all the
        handling of failures ... to the underlying DHT"; successor lists
        and stabilization restore routing.
        """
        self._require_member(node)
        self._unregister(node)
        node.alive = False

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def run_stabilization(self, rounds: int = 1, *, fix_all_fingers: bool = False) -> None:
        """Run the periodic maintenance protocol on every live node.

        Fixing fingers and the emergency-successor fallback read and
        write finger tables, so they are materialized first.
        """
        self.materialize_fingers()
        for _ in range(rounds):
            for node in list(self._nodes.values()):
                maintenance.check_predecessor(node)
                maintenance.stabilize(node)
                if fix_all_fingers:
                    for j in range(self.space.m):
                        maintenance.fix_finger(node, j, self.router)
                else:
                    maintenance.fix_next_finger(node, self.router)

    def ring_is_consistent(self) -> bool:
        """Check that successors/predecessors match the oracle ordering."""
        idents = self._sorted_idents
        count = len(idents)
        for position, ident in enumerate(idents):
            node = self._nodes[ident]
            expected_successor = self._nodes[idents[(position + 1) % count]]
            expected_predecessor = self._nodes[idents[(position - 1) % count]]
            if count > 1 and node.successor is not expected_successor:
                return False
            if count > 1 and node.predecessor is not expected_predecessor:
                return False
        return True
