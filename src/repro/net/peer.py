"""One asyncio peer per overlay node, plus the socket transport.

A :class:`NetPeer` gives its :class:`~repro.chord.node.ChordNode` a real
TCP presence: a listening server (ephemeral port on localhost), an
address book mapping overlay identifiers to socket addresses, and a
pool of outbound connections — one persistent connection per target
peer, fed by a queue and flushed by a writer task, so frames to the
same peer never interleave and never handshake twice.

:class:`SocketTransport` implements the :class:`~repro.transport.Transport`
contract over those peers.  Delivery semantics:

* routed frames travel **hop by hop** along the nodes' real finger
  tables — each TCP forward is one overlay hop, billed to the shared
  :class:`~repro.sim.stats.TrafficStats`;
* handlers run synchronously at the receiving peer, exactly as in the
  simulator; frames they emit are queued before the triggering
  delivery is marked done, so the cluster-wide :class:`InFlight`
  counter reaches zero only when an event's full causal cascade has
  landed;
* write failures retry with the fault-injection backoff shape of PR-1
  (``backoff_base * 2**(attempt-1)``, optionally jittered, up to
  ``max_attempts``); exhausted *routed* frames fall back to the
  target's ring successor (mirroring the simulator Router's
  successor-list fallback) before surfacing as a
  :class:`~repro.errors.DeliveryError` collected by the cluster
  (asynchronous failure cannot raise into the synchronous sender).

Backpressure (DESIGN.md §12): in-flight deliveries are **credited**
against a cluster-wide budget — the driver gates new workload events on
available credit, synchronous handler cascades may transiently overdraw
(they cannot block), and the observed peak is recorded and asserted
against the budget.  Each outbound queue additionally has a bounded
**send window**: when a slow or partitioned peer's queue is full, new
data frames are shed (settled as failed, to be re-created by the
soft-state lease refresh) instead of growing memory without bound.

Known single-process shortcut: the *return value* of ``send``/
``multisend`` (the responsible node) and ``lookup`` come from the
in-process ring oracle and router, while payloads genuinely travel over
TCP.  A routing bug therefore shows up as a missing or misdelivered
frame — the notification digest catches it — not as a wrong return
value.  See DESIGN.md §11.
"""

from __future__ import annotations

import asyncio
import socket
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..chord.routing import Router
from ..perf import PERF
from ..errors import (
    CodecError,
    DeliveryError,
    NetworkError,
    QuiesceTimeout,
    RoutingError,
)
from ..transport import Transport
from ..sim.messages import Message
from .codec import (
    HEADER_SIZE,
    MESSAGE_TYPE_BY_TAG,
    decode,
    decode_frame_payload,
    decode_value_at,
    encode_frame,
    frame_for_payload,
    read_frame,
    read_frame_raw,
)
from .frames import (
    DirectFrame,
    Heartbeat,
    JoinReply,
    JoinRequest,
    MemberUpdate,
    MultiFrame,
    PeerInfo,
    RouteFrame,
    TAG_MULTI_FRAME,
    TAG_ROUTE_FRAME,
    bump_route_hops,
    peek_multi,
    peek_route,
    splice_multi,
)
from .health import FailureDetector, HealthConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from .cluster import LiveCluster


class InjectedWireFault(Exception):
    """A chaos-layer decision dressed up as a socket failure.

    Raised inside the outbound write path when the installed
    :class:`~repro.net.chaos.LiveChaos` refuses a connect, resets or
    corrupts a frame, or blocks a partitioned edge; handled by exactly
    the same retry/backoff/fallback code as a real ``OSError``.
    """


def set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle's algorithm on a stream's underlying socket.

    Batching is *our* policy (the outbox coalesces frames explicitly);
    letting the kernel hold small writes back as well would stack an
    uncontrolled delay on top and put latency numbers at Nagle's mercy.
    Applied to every accepted and outbound TCP connection; a transport
    without a real socket (tests, non-TCP) is silently left alone.
    """
    sock = writer.get_extra_info("socket")
    if sock is None:
        return
    with suppress(OSError, AttributeError):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


#: Most frames coalesced into one socket write.  Chaos runs always
#: deliver per-frame so the seeded per-frame fault decisions keep their
#: exact semantics.
MAX_BATCH_FRAMES = 64
#: Byte ceiling on one coalesced write; a batch stops growing once it
#: would exceed this (the frame that crossed the line still ships with
#: the batch, so a single frame may exceed it alone).
MAX_BATCH_BYTES = 256 * 1024


@dataclass
class NetConfig:
    """Socket-layer knobs of a live cluster.

    The retry shape mirrors the PR-1 fault plan
    (:class:`repro.faults.plan.FaultPlan`): up to ``max_attempts``
    delivery attempts with exponential backoff
    ``backoff_base * 2**(attempt-1)`` between them (each pause
    stretched by up to ``backoff_jitter`` of itself, so synchronized
    retries after a partition heal spread out), then successor fallback
    and a typed :class:`~repro.errors.DeliveryError` — except the
    sleeps are real seconds and the drops are real socket errors, not
    injected ones.
    """

    connect_timeout: float = 5.0
    #: Per-frame write/drain timeout (also the bootstrap reply timeout).
    io_timeout: float = 10.0
    max_attempts: int = 3
    backoff_base: float = 0.05
    #: Uniform multiplicative jitter on retry pauses (0 = deterministic).
    backoff_jitter: float = 0.0
    #: Per-peer outbound queue bound; data frames beyond it are shed
    #: (and recovered by the lease refresh) instead of buffered forever.
    send_window: int = 1024
    #: Cluster-wide ceiling on in-flight deliveries (the credit budget).
    credit_budget: int = 4096

    @classmethod
    def from_fault_plan(cls, plan, **overrides) -> "NetConfig":
        """Lift the retry knobs off a fault plan (same names, same shape)."""
        overrides.setdefault("max_attempts", plan.max_attempts)
        overrides.setdefault("backoff_base", plan.backoff_base)
        overrides.setdefault("backoff_jitter", plan.backoff_jitter)
        return cls(**overrides)


class InFlight:
    """Cluster-wide credit ledger of posted-but-unhandled deliveries.

    The workload driver posts one event's messages and awaits zero.
    Handlers run synchronously at the receiving peer and post any
    cascade frames *before* their own delivery decrements, so the
    counter can only reach zero once the event's entire causal tree has
    been handled — the live analogue of the simulator completing an
    event's synchronous call chain.

    Beyond the bare counter this tracks, per message label, what is
    still outstanding (the :class:`~repro.errors.QuiesceTimeout`
    diagnostic), the high-water mark against an optional credit
    ``budget``, and — for chaos runs only (``allow_slack``) — absorbs
    the accounting noise a mid-flight node crash inevitably produces
    (a frame can be settled as lost by the dying peer in the same
    instant its sender completes the write).
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        self._count = 0
        self._labels: Counter = Counter()
        self._zero = asyncio.Event()
        self._zero.set()
        self._below = asyncio.Event()
        self._below.set()
        self.budget = budget
        self.peak = 0
        #: Chaos mode only: tolerate double-settled crash casualties.
        self.allow_slack = False
        self.slack_absorbed = 0
        self._debt = 0

    @property
    def count(self) -> int:
        return self._count

    def pending(self) -> dict[str, int]:
        """Outstanding deliveries by label (diagnostic)."""
        return {label: n for label, n in self._labels.items() if n}

    def inc(self, label: str = "control", n: int = 1) -> None:
        self._count += n
        self._labels[label] += n
        if self._count > self.peak:
            self.peak = self._count
        if self._count:
            self._zero.clear()
        if self.budget is not None and self._count >= self.budget:
            self._below.clear()

    def dec(self, label: str = "control", n: int = 1) -> None:
        self._labels[label] -= n
        if self._labels[label] == 0:
            del self._labels[label]
        taken = min(n, self._count)
        self._count -= taken
        leftover = n - taken
        if leftover:
            absorbed = min(leftover, self._debt)
            self._debt -= absorbed
            leftover -= absorbed
        if leftover:
            if not self.allow_slack:
                raise RuntimeError("in-flight delivery counter went negative")
            self.slack_absorbed += leftover
        if self._count == 0:
            self._zero.set()
        if self.budget is None or self._count < self.budget:
            self._below.set()

    def write_off(self) -> dict[str, int]:
        """Forgive everything outstanding (chaos-crash leak settlement).

        Returns what was written off and arms a matching *debt* so the
        late arrival of a forgiven delivery does not push the counter
        negative.  Only the chaos drain path uses this; a benign run
        that needs it has a real accounting bug and should fail loudly
        instead (``allow_slack`` stays False there).
        """
        pending = self.pending()
        self._debt += self._count
        self._count = 0
        self._labels.clear()
        self._zero.set()
        self._below.set()
        return pending

    async def wait_zero(self, timeout: Optional[float] = None) -> None:
        if self._zero.is_set():
            return
        try:
            await asyncio.wait_for(self._zero.wait(), timeout)
        except asyncio.TimeoutError:
            raise QuiesceTimeout(
                timeout if timeout is not None else 0.0, self.pending()
            ) from None

    async def wait_below_budget(self, timeout: Optional[float] = None) -> None:
        """Credit gate for work *sources* (the workload driver).

        Returns immediately while in-flight deliveries are under the
        budget; otherwise waits until enough have settled.  Handler
        cascades never wait here — blocking them would deadlock the
        very processing that frees credits.
        """
        if self.budget is None or self._below.is_set():
            return
        try:
            await asyncio.wait_for(self._below.wait(), timeout)
        except asyncio.TimeoutError:
            raise QuiesceTimeout(
                timeout if timeout is not None else 0.0, self.pending()
            ) from None


def _frame_labels(frame, weight: int) -> tuple[str, ...]:
    """The per-delivery labels a frame's settlement must balance."""
    kind = type(frame)
    if kind is RouteFrame or kind is DirectFrame:
        return (frame.message.type,)
    if kind is MultiFrame:
        return tuple(message.type for _, message in frame.pairs)
    return ("control",) * weight


def _frame_label(frame) -> str:
    """The message type a frame's failure should be billed to."""
    if type(frame) is RouteFrame or type(frame) is DirectFrame:
        return frame.message.type
    if type(frame) is MultiFrame:
        return "multisend"
    return "control"


class _RawFrame:
    """A relayed frame that was never decoded (raw wire bytes only).

    The happy path — write the bytes to the next hop — needs nothing
    else; only the rare retry-exhausted fallback needs the frame
    object, and :meth:`materialize` decodes it on demand.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data

    def materialize(self):
        return decode(self.data[HEADER_SIZE:])


class _OutItem:
    """One queued frame: the object (for fallback rerouting), its wire
    bytes, and the delivery accounting it must settle."""

    __slots__ = ("frame", "data", "weight", "labels", "fallback")

    def __init__(self, frame, data: bytes, weight: int, labels, fallback: bool):
        self.frame = frame
        self.data = data
        self.weight = weight
        self.labels = labels
        self.fallback = fallback


class _Outbox:
    """One persistent outbound connection: queue + batching writer task.

    The connection is (re-)established lazily against the *current*
    address-book entry, so a peer that restarted on a new port is
    reached as soon as the membership update lands.  A connection the
    remote side dropped (EOF seen, or transport closing) is detected
    before the next write instead of silently swallowing frames.

    The writer coalesces queued frames into multi-frame socket writes
    with a **single drain per batch** (DESIGN.md §13): whatever a
    synchronous handler cascade queued in one event-loop turn usually
    ships as one ``write()``.  Batches are bounded by frame count and
    byte size (``MAX_BATCH_FRAMES``, ``MAX_BATCH_BYTES``); with a chaos
    layer installed the writer falls back to strict per-frame delivery
    so the seeded per-frame fault decisions (reset/truncate/garble
    *this* frame) keep their exact semantics.
    """

    def __init__(self, peer: "NetPeer", target_ident: int):
        self.peer = peer
        self.target_ident = target_ident
        self.queue: asyncio.Queue = asyncio.Queue()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        #: Frames taken off the queue but not yet settled (current batch).
        self.current: list[_OutItem] = []
        self.task = asyncio.get_running_loop().create_task(self._run())

    @property
    def depth(self) -> int:
        return self.queue.qsize() + len(self.current)

    async def close(self) -> None:
        await self.queue.put(None)
        await self.task

    def abort(self) -> list[_OutItem]:
        """Crash teardown: cancel the writer, return the doomed items."""
        items = list(self.current)
        self.current.clear()
        while not self.queue.empty():
            item = self.queue.get_nowait()
            if item is not None:
                items.append(item)
        self.task.cancel()
        self.reset(abort=True)
        return items

    def reset(self, *, abort: bool = False) -> None:
        """Drop the pooled connection (next write re-establishes it)."""
        writer = self.writer
        self.reader = None
        self.writer = None
        if writer is None:
            return
        if abort:
            transport = writer.transport
            if transport is not None:
                transport.abort()
        else:
            writer.close()

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        config = self.peer.cluster.net_config
        try:
            while True:
                item = await self.queue.get()
                if item is None:
                    return
                batch = self.current
                batch.append(item)
                closing = self._fill_batch(batch)
                if len(batch) == 1:
                    await self._deliver(item, config)
                    batch.clear()
                else:
                    await self._deliver_batch(batch, config)
                if closing:
                    return
        finally:
            self.reset()

    def _fill_batch(self, batch: list[_OutItem]) -> bool:
        """Greedily take more queued frames into ``batch`` (no awaits).

        Returns True when the close sentinel was consumed while
        filling, so the caller ships the batch and then exits.  With
        chaos installed the batch stays at one frame and delivery keeps
        its per-frame semantics.
        """
        if self.peer.cluster.chaos is not None:
            return False
        nbytes = len(batch[0].data)
        queue = self.queue
        while len(batch) < MAX_BATCH_FRAMES and nbytes < MAX_BATCH_BYTES:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is None:
                return True
            batch.append(item)
            nbytes += len(item.data)
        return False

    async def _deliver_batch(
        self, batch: list[_OutItem], config: NetConfig
    ) -> None:
        """One coalesced write + one drain for the whole batch.

        A failed batch write falls back to the per-frame path: every
        frame of the batch then gets the full retry/backoff/fallback
        treatment individually, exactly as if batching were disabled.
        (Benign runs never take that path — a localhost write only
        fails under injected faults or a genuinely dead peer.)
        """
        peer = self.peer
        try:
            await self._attempt_batch(batch, config)
            batch.clear()
            return
        except (OSError, asyncio.TimeoutError, InjectedWireFault):
            self.reset()
            peer.note_send_failure(self.target_ident)
        while batch:
            await self._deliver(batch[0], config)
            batch.pop(0)

    async def _attempt_batch(
        self, batch: list[_OutItem], config: NetConfig
    ) -> None:
        peer = self.peer
        cluster = peer.cluster
        if cluster.is_dead(self.target_ident):
            raise InjectedWireFault(f"peer {self.target_ident} crashed")
        if (
            self.writer is None
            or self.writer.is_closing()
            or (self.reader is not None and self.reader.at_eof())
        ):
            self.reset()
            await self._connect(config)
        data = b"".join(item.data for item in batch)
        self.writer.write(data)
        # ``drain()`` below the high-water mark is a no-op, but
        # ``wait_for`` still builds a Task and a timer per call — on
        # the hot path that is most of the flush cost.  When the
        # kernel took the whole write synchronously there is nothing
        # to wait for; any connection failure surfaces on the next
        # write or on the serve side.
        if self.writer.transport.get_write_buffer_size():
            await asyncio.wait_for(self.writer.drain(), config.io_timeout)
        peer.bytes_sent += len(data)
        peer.batches_sent += 1
        peer.note_send_success(self.target_ident)
        if PERF.enabled:
            PERF.count("net.writes")
            PERF.count("net.batches")
            PERF.count("net.frames_flushed", len(batch))
            PERF.count("net.bytes_flushed", len(data))

    async def _deliver(self, item: _OutItem, config: NetConfig) -> None:
        peer = self.peer
        cluster = peer.cluster
        heartbeat = type(item.frame) is Heartbeat
        attempt = 1
        while True:
            try:
                await self._attempt(item, config)
                return
            except (OSError, asyncio.TimeoutError, InjectedWireFault):
                self.reset()
                peer.note_send_failure(self.target_ident)
                if heartbeat:
                    return  # one-shot beacon; the detector saw the failure
                if attempt >= config.max_attempts:
                    peer._exhausted(self.target_ident, item, attempt)
                    return
                cluster.stats.record_retry(
                    item.labels[0] if item.labels else "control"
                )
                await asyncio.sleep(
                    cluster.jittered(
                        config.backoff_base * (2 ** (attempt - 1))
                    )
                )
                attempt += 1

    async def _attempt(self, item: _OutItem, config: NetConfig) -> None:
        peer = self.peer
        cluster = peer.cluster
        if cluster.is_dead(self.target_ident):
            raise InjectedWireFault(f"peer {self.target_ident} crashed")
        chaos = cluster.chaos
        if chaos is not None and chaos.blocked(
            peer.node.ident, self.target_ident
        ):
            raise InjectedWireFault("link partitioned")
        if (
            self.writer is None
            or self.writer.is_closing()
            or (self.reader is not None and self.reader.at_eof())
        ):
            self.reset()
            await self._connect(config)
        # Chaos faults are decided *before* any clean byte hits the
        # wire, so a faulted attempt was certainly not delivered and
        # can be retried without risking a duplicate.
        fault = chaos.sample_frame_fault() if chaos is not None else None
        if fault == "reset":
            self.reset(abort=True)
            raise InjectedWireFault("connection reset")
        if fault == "truncate":
            self.writer.write(item.data[: max(1, len(item.data) // 2)])
            with suppress(OSError, asyncio.TimeoutError):
                await asyncio.wait_for(self.writer.drain(), config.io_timeout)
            self.reset(abort=True)
            raise InjectedWireFault("frame truncated on the wire")
        if fault == "garble":
            self.writer.write(chaos.corrupt(item.data))
            with suppress(OSError, asyncio.TimeoutError):
                await asyncio.wait_for(self.writer.drain(), config.io_timeout)
            # The receiver will fail decoding and drop the connection.
            self.reset()
            raise InjectedWireFault("frame garbled on the wire")
        self.writer.write(item.data)
        # Same no-op-drain elision as the batch path, but only outside
        # chaos runs: chaos semantics lean on a drain per faulted attempt.
        if chaos is not None or self.writer.transport.get_write_buffer_size():
            await asyncio.wait_for(self.writer.drain(), config.io_timeout)
        peer.bytes_sent += len(item.data)
        peer.note_send_success(self.target_ident)
        if PERF.enabled:
            PERF.count("net.writes")
            PERF.count("net.frames_flushed")
            PERF.count("net.bytes_flushed", len(item.data))

    async def _connect(self, config: NetConfig) -> None:
        cluster = self.peer.cluster
        chaos = cluster.chaos
        if chaos is not None and chaos.should_refuse_connection():
            raise InjectedWireFault("connection refused (injected)")
        info = self.peer.book.get(self.target_ident)
        if info is None:
            raise InjectedWireFault(
                f"no address for peer {self.target_ident}"
            )
        self.reader, self.writer = await asyncio.wait_for(
            asyncio.open_connection(info.host, info.port),
            config.connect_timeout,
        )
        set_nodelay(self.writer)


class NetPeer:
    """The live (socket) half of one overlay node."""

    def __init__(self, node: "ChordNode", cluster: "LiveCluster"):
        self.node = node
        self.cluster = cluster
        self.info: Optional[PeerInfo] = None
        #: Overlay identifier -> socket address, filled by the
        #: bootstrap handshake (each peer keeps its own book).
        self.book: dict[int, PeerInfo] = {}
        self._outboxes: dict[int, _Outbox] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._serve_tasks: set[asyncio.Task] = set()
        self._inbound: set[asyncio.StreamWriter] = set()
        self.detector: Optional[FailureDetector] = None
        #: Set by :meth:`freeze`; a frozen peer settles inbound frames
        #: as crash casualties instead of delivering them.
        self.crashed = False
        self._last_inbound = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_shed = 0
        #: Coalesced multi-frame writes that went out with one drain.
        self.batches_sent = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> PeerInfo:
        """Bind the TCP server (``port=0`` = ephemeral)."""
        self._server = await asyncio.start_server(self._serve, host, port)
        bound = self._server.sockets[0].getsockname()[1]
        self.info = PeerInfo(self.node.ident, host, bound)
        self.book[self.node.ident] = self.info
        self.crashed = False
        return self.info

    async def stop_server(self) -> None:
        """Kill just the TCP server (and live inbound connections).

        The peer object, its node, its address book and its outboxes
        all survive — this models a listener outage, not a crash.
        Senders notice on their next write (connection reset / refused)
        and retry; calling :meth:`start` again with the old port brings
        the peer back on the same address, so no membership update is
        needed for routing to resume.
        """
        if self._server is not None:
            self._server.close()
            with suppress(OSError):
                await self._server.wait_closed()
            self._server = None
        for writer in list(self._inbound):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._serve_tasks:
            await asyncio.gather(*self._serve_tasks, return_exceptions=True)
            self._serve_tasks.clear()

    def enable_health(self, config: HealthConfig) -> FailureDetector:
        """Attach and start a failure detector for this peer."""
        self.detector = FailureDetector(self, config)
        self.detector.start()
        return self.detector

    async def stop(self) -> None:
        """Flush outboxes, stop listening, hang up inbound connections.

        Inbound handlers are not cancelled — their sockets are closed,
        so each reader loop sees EOF and exits on its own; the gather
        then merely waits for that, leaving nothing for the event-loop
        teardown to cancel.
        """
        if self.detector is not None:
            await self.detector.stop()
            self.detector = None
        for outbox in self._outboxes.values():
            await outbox.close()
        self._outboxes.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._inbound):
            writer.close()
        if self._serve_tasks:
            await asyncio.gather(*self._serve_tasks, return_exceptions=True)
            self._serve_tasks.clear()

    def freeze(self) -> None:
        """Phase one of a crash: stop listening, stop delivering.

        Synchronous on purpose — from the instant it returns (still
        inside the same event-loop turn) every inbound frame is settled
        as lost instead of handled, so the ring-side ``network.fail``
        and this socket-side freeze happen atomically with respect to
        all peer tasks.
        """
        self.crashed = True
        self._last_inbound = asyncio.get_running_loop().time()
        if self._server is not None:
            self._server.close()

    async def abort(self) -> None:
        """Phase two of a crash: settle doomed frames, hang everything up.

        Outbound queues are cancelled and every queued frame is settled
        as a crash casualty.  Inbound connections are then given a
        short idle window so frames already buffered in the kernel are
        *consumed and settled* (not delivered — the node is dead) by
        the frozen dispatch path; without that window their in-flight
        credits would leak and the cluster could never quiesce again.
        """
        if self.detector is not None:
            await self.detector.stop()
            self.detector = None
        lost: list[_OutItem] = []
        for outbox in self._outboxes.values():
            lost.extend(outbox.abort())
        self._outboxes.clear()
        for item in lost:
            if item.weight:
                self.cluster.frame_lost(
                    f"queued at crashed node {self.node.ident}", item.labels
                )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 0.6
        quiet = 0.06
        while loop.time() < deadline:
            if loop.time() - self._last_inbound >= quiet:
                break
            await asyncio.sleep(0.02)
        if self._server is not None:
            with suppress(OSError):
                await self._server.wait_closed()
            self._server = None
        for writer in list(self._inbound):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        if self._serve_tasks:
            await asyncio.gather(*self._serve_tasks, return_exceptions=True)
            self._serve_tasks.clear()

    # ------------------------------------------------------------------
    # Outbound
    # ------------------------------------------------------------------
    def post(
        self, target_ident: int, frame, *, weight: int, fallback: bool = False
    ) -> None:
        """Queue a frame for ``target_ident``; never blocks the caller."""
        info = self.book.get(target_ident)
        if info is None:
            self.cluster.frame_failed(
                NetworkError(
                    f"peer {self.node.ident} has no address for "
                    f"{target_ident} in its book"
                ),
                _frame_labels(frame, weight),
            )
            return
        outbox = self._outboxes.get(target_ident)
        if outbox is None:
            outbox = _Outbox(self, target_ident)
            self._outboxes[target_ident] = outbox
        labels = _frame_labels(frame, weight)
        window = self.cluster.net_config.send_window
        kind = type(frame)
        sheddable = kind is RouteFrame or kind is MultiFrame or kind is DirectFrame
        if sheddable and window > 0 and outbox.queue.qsize() >= window:
            # Bounded backpressure: a saturated peer sheds instead of
            # buffering without bound; the lease refresh re-creates
            # whatever the shed frames would have built.
            self.frames_shed += 1
            self.cluster.frame_failed(
                NetworkError(
                    f"send window to peer {target_ident} full "
                    f"({window} frames); shed {_frame_label(frame)}"
                ),
                labels,
            )
            return
        self.frames_sent += 1
        outbox.queue.put_nowait(
            _OutItem(frame, encode_frame(frame), weight, labels, fallback)
        )

    def post_raw(
        self,
        target_ident: int,
        data: bytes,
        labels: tuple[str, ...],
        weight: int,
    ) -> None:
        """Queue pre-encoded wire bytes (the raw-relay fast path).

        Mirrors :meth:`post` — address check, shed-on-saturation,
        counters — but skips :func:`encode_frame` entirely: ``data``
        is the original frame as read off the inbound socket, hop
        counter already bumped.  ``labels``/``weight`` carry the same
        settlement accounting the decoded path would have derived from
        the frame (one label per delivery the frame still owes).
        """
        info = self.book.get(target_ident)
        if info is None:
            self.cluster.frame_failed(
                NetworkError(
                    f"peer {self.node.ident} has no address for "
                    f"{target_ident} in its book"
                ),
                labels,
            )
            return
        outbox = self._outboxes.get(target_ident)
        if outbox is None:
            outbox = _Outbox(self, target_ident)
            self._outboxes[target_ident] = outbox
        window = self.cluster.net_config.send_window
        if window > 0 and outbox.queue.qsize() >= window:
            self.frames_shed += 1
            self.cluster.frame_failed(
                NetworkError(
                    f"send window to peer {target_ident} full "
                    f"({window} frames); shed {labels[0] if labels else 'control'}"
                ),
                labels,
            )
            return
        self.frames_sent += 1
        outbox.queue.put_nowait(
            _OutItem(_RawFrame(data), data, weight, labels, False)
        )

    def post_heartbeat(self, target_ident: int) -> None:
        """Queue a weightless liveness beacon (single attempt, no retry)."""
        if self.crashed or target_ident not in self.book:
            return
        outbox = self._outboxes.get(target_ident)
        if outbox is None:
            outbox = _Outbox(self, target_ident)
            self._outboxes[target_ident] = outbox
        frame = Heartbeat(sender=self.node.ident)
        outbox.queue.put_nowait(
            _OutItem(frame, encode_frame(frame), 0, (), False)
        )

    def reset_connection(self, target_ident: int) -> None:
        """Drop the pooled connection to one peer (queue survives)."""
        outbox = self._outboxes.get(target_ident)
        if outbox is not None:
            outbox.reset()

    def note_send_success(self, target_ident: int) -> None:
        if self.detector is not None:
            self.detector.note_alive(target_ident)

    def note_send_failure(self, target_ident: int) -> None:
        if self.detector is not None:
            self.detector.note_failure(target_ident)

    def _exhausted(self, target_ident: int, item: _OutItem, attempts: int) -> None:
        """All write attempts to one peer failed; fall back or give up.

        Mirrors the simulator Router: a routed frame gets one shot at
        the target's ring successor (the node that owns, or will own
        after stabilization, the dead target's range — and, for a
        merely *suspected* target, a relay that can usually still reach
        it).  Direct and control frames have no overlay fallback.
        """
        label = item.labels[0] if item.labels else "control"
        if not item.fallback:
            frame = item.frame
            if type(frame) is _RawFrame:
                frame = frame.materialize()
            alternative = self.cluster.fallback_ident(frame, target_ident)
            if alternative is not None and alternative != target_ident:
                self.cluster.stats.record_retry(label)
                if alternative == self.node.ident:
                    self._accept_fallback(frame)
                else:
                    self.post(
                        alternative, frame, weight=item.weight,
                        fallback=True,
                    )
                return
        self.cluster.frame_failed(
            DeliveryError(label, target_ident, attempts), item.labels
        )

    def _accept_fallback(self, frame) -> None:
        """This peer itself is the fallback owner; dispatch locally."""
        kind = type(frame)
        if kind is RouteFrame:
            self.route(frame)
        elif kind is MultiFrame:
            self.route_multi(frame)
        elif kind is DirectFrame:
            self.handle_delivery(frame.message)

    # ------------------------------------------------------------------
    # Routing (one forwarding step per peer, as the protocol prescribes)
    # ------------------------------------------------------------------
    def _next_hop(self, ident: int) -> "ChordNode":
        """The simulator router's forwarding rule, one step at a time.

        A hop the failure detector currently suspects is treated like a
        dead finger (fall back to the successor) — the same rule the
        simulator Router applies to ``not next_hop.alive``.
        """
        node = self.node
        successor = node.successor
        if successor is node:
            return node
        low = node.ident
        size = node.space.size
        if low == successor.ident or 0 < (ident - low) % size <= (
            successor.ident - low
        ) % size:
            return successor
        next_hop = node.closest_preceding_finger(ident)
        detector = self.detector
        if (
            next_hop is node
            or not next_hop.alive
            or (detector is not None and detector.is_suspect(next_hop.ident))
        ):
            next_hop = successor
        return next_hop

    def _relay_raw(self, header: bytes, payload: bytes) -> bool:
        """Forward a routed frame without ever decoding its messages.

        The zero-copy-ish half of :meth:`route` and
        :meth:`route_multi`: when this node is a pure relay — it owns
        neither a RouteFrame's target nor any of a MultiFrame's pair
        targets — the only field the protocol rewrites is the hop
        counter, so the original wire bytes are shipped onward with the
        trailing varint bumped in place — no payload decode, no
        re-encode, no second allocation of the message trees.  Returns
        False whenever the slow path must run instead: the structural
        peek failed, this node owns a target (local delivery), the
        hop bound is exceeded (the decoded path raises the proper
        RoutingError), or chaos is installed (fault injection reasons
        about decoded frames, so soaks keep the seed semantics).
        """
        cluster = self.cluster
        if cluster.chaos is not None or self.crashed:
            return False
        tag = payload[0] if payload else 0
        if tag == TAG_ROUTE_FRAME:
            peeked = peek_route(payload)
            if peeked is None:
                return False
            target_ident, message_tag, hops = peeked
            if self.node.owns(target_ident):
                return False
            if hops >= cluster.max_hops:
                return False
            data = bump_route_hops(header, payload)
            if data is None:  # pragma: no cover - peek already bounds hops
                return False
            mtype = MESSAGE_TYPE_BY_TAG.get(message_tag, "message")
            cluster.stats.record_hops(mtype, 1)
            if PERF.enabled:
                PERF.count("net.frames_relayed_raw")
            self.post_raw(
                self._next_hop(target_ident).ident, data, (mtype,), 1
            )
            return True
        if tag == TAG_MULTI_FRAME:
            peeked_multi = peek_multi(payload)
            if peeked_multi is None:
                return False
            idents, message_tags, message_starts, pair_starts, hops = (
                peeked_multi
            )
            owns = self.node.owns
            owned: list[int] = []
            keep: list[int] = []
            for i, ident in enumerate(idents):
                (owned if owns(ident) else keep).append(i)
            if keep and hops >= cluster.max_hops + 2 * len(idents):
                # Sweep bound exceeded: the decoded path delivers the
                # owned pairs and raises the proper RoutingError for
                # the remainder.
                return False
            if not owned:
                # Pure relay: original bytes onward, hop byte bumped.
                data = bump_route_hops(header, payload)
                if data is None:  # pragma: no cover - peek bounds hops
                    return False
                if PERF.enabled:
                    PERF.count("net.frames_relayed_raw")
            else:
                # Delivering hop: materialize ONLY the owned messages;
                # the rest of the sweep travels on as verbatim slices,
                # so across a whole sweep each pair's message is
                # decoded exactly once — at its owner.
                for i in owned:
                    message, _ = decode_value_at(payload, message_starts[i])
                    self.handle_delivery(message)
                if not keep:
                    return True
                data = frame_for_payload(
                    splice_multi(payload, pair_starts, keep, hops)
                )
                if PERF.enabled:
                    PERF.count("net.frames_spliced")
            labels = tuple(
                MESSAGE_TYPE_BY_TAG.get(message_tags[i], "message")
                for i in keep
            )
            cluster.stats.record_hops("multisend", 1)
            self.post_raw(
                self._next_hop(idents[keep[0]]).ident, data, labels, len(keep)
            )
            return True
        return False

    def route(self, frame: RouteFrame) -> None:
        """Deliver or forward a ``send()`` frame."""
        if self.node.owns(frame.target_ident):
            self.handle_delivery(frame.message)
            return
        if frame.hops >= self.cluster.max_hops:
            self.cluster.frame_failed(
                RoutingError(
                    f"frame for {frame.target_ident} exceeded "
                    f"{self.cluster.max_hops} hops"
                ),
                (frame.message.type,),
            )
            return
        self.cluster.stats.record_hops(frame.message.type, 1)
        self.post(
            self._next_hop(frame.target_ident).ident,
            RouteFrame(frame.target_ident, frame.message, frame.hops + 1),
            weight=1,
        )

    def route_multi(self, frame: MultiFrame) -> None:
        """One step of the clockwise multisend sweep (Section 2.3):
        deliver the pairs this node owns, forward the remainder."""
        remaining = []
        for ident, message in frame.pairs:
            if self.node.owns(ident):
                self.handle_delivery(message)
            else:
                remaining.append((ident, message))
        if not remaining:
            return
        # The sweep visits every owner once, so the bound scales with
        # the batch on top of the single-target routing bound.
        if frame.hops >= self.cluster.max_hops + 2 * len(frame.pairs):
            self.cluster.frame_failed(
                RoutingError(
                    f"multisend sweep of {len(frame.pairs)} pairs exceeded "
                    f"its hop bound"
                ),
                tuple(message.type for _, message in remaining),
            )
            return
        self.cluster.stats.record_hops("multisend", 1)
        self.post(
            self._next_hop(remaining[0][0]).ident,
            MultiFrame(tuple(remaining), frame.hops + 1),
            weight=len(remaining),
        )

    def handle_delivery(self, message: Message) -> None:
        """Run the node's synchronous handler; always settle the counter."""
        try:
            self.node.deliver(message)
        except Exception as exc:  # surfaced by the next drain()
            self.cluster.handler_failed(exc)
        finally:
            self.cluster.in_flight.dec(message.type)

    # ------------------------------------------------------------------
    # Inbound
    # ------------------------------------------------------------------
    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serve_tasks.add(task)
        self._inbound.add(writer)
        set_nodelay(writer)
        loop = asyncio.get_running_loop()
        abort_connection = False
        try:
            while True:
                try:
                    header, payload = await read_frame_raw(reader)
                except asyncio.IncompleteReadError:
                    # Died mid-frame; must precede the EOFError arm
                    # (IncompleteReadError subclasses EOFError).
                    raise
                except EOFError:
                    break  # clean close at a frame boundary
                self._last_inbound = loop.time()
                if self._relay_raw(header, payload):
                    continue
                frame = decode_frame_payload(payload)
                await self._dispatch(frame, writer)
        except CodecError as exc:
            # Corrupt bytes poison the whole stream: the only safe
            # recovery is to abort this connection (the sender's next
            # write fails and its retry path re-establishes a clean
            # one) while this server keeps serving other connections.
            abort_connection = True
            self.cluster.note_codec_fault(exc)
        except (asyncio.IncompleteReadError, OSError) as exc:
            self.cluster.note_stream_break(exc)
        finally:
            self._inbound.discard(writer)
            if task is not None:
                self._serve_tasks.discard(task)
            if abort_connection and writer.transport is not None:
                writer.transport.abort()
            else:
                writer.close()
                with suppress(OSError, ConnectionError):
                    await writer.wait_closed()

    async def _dispatch(self, frame, writer: asyncio.StreamWriter) -> None:
        kind = type(frame)
        if kind is Heartbeat:
            if self.detector is not None:
                self.detector.note_alive(frame.sender)
            return
        if self.crashed:
            self._settle_lost(frame)
            return
        if kind is RouteFrame:
            self.route(frame)
        elif kind is MultiFrame:
            self.route_multi(frame)
        elif kind is DirectFrame:
            self.handle_delivery(frame.message)
        elif kind is JoinRequest:
            writer.write(encode_frame(self.admit(frame.info)))
            await writer.drain()
        elif kind is MemberUpdate:
            for info in frame.members:
                old = self.book.get(info.ident)
                self.book[info.ident] = info
                if old is not None and old != info:
                    # The peer moved (crash/restart): drop the stale
                    # pooled connection so the next write dials the
                    # fresh address.
                    self.reset_connection(info.ident)
            self.cluster.in_flight.dec("control")
        else:
            self.cluster.handler_failed(
                CodecError(f"unexpected top-level frame {kind.__name__}")
            )

    def _settle_lost(self, frame) -> None:
        """A frame reached this peer after it crashed: it dies here.

        Its in-flight credits are settled (so the cluster can quiesce)
        and the loss is recorded; the soft-state lease refresh is what
        brings the data back, exactly as in the simulator's recovery
        model.
        """
        kind = type(frame)
        if kind is MemberUpdate:
            self.cluster.in_flight.dec("control")
            return
        if kind is JoinRequest or kind is JoinReply:
            return
        weight = 1
        if kind is MultiFrame:
            weight = len(frame.pairs)
        self.cluster.frame_lost(
            f"delivered to crashed node {self.node.ident}",
            _frame_labels(frame, weight),
        )

    def admit(self, info: PeerInfo) -> JoinReply:
        """Bootstrap-side join: register the newcomer, reply with the
        membership, and fan a :class:`MemberUpdate` out to the peers
        that joined earlier so every address book converges.  A
        *returning* peer (same ident, new address after a crash) is
        fanned out too, overwriting the stale address everywhere."""
        changed = self.book.get(info.ident) != info
        self.book[info.ident] = info
        if changed:
            update = MemberUpdate(members=(info,))
            for member_ident in list(self.book):
                if member_ident in (info.ident, self.node.ident):
                    continue
                if self.cluster.is_dead(member_ident):
                    continue
                self.cluster.in_flight.inc("control")
                self.post(member_ident, update, weight=1)
        return JoinReply(
            members=tuple(self.book[ident] for ident in sorted(self.book))
        )


class SocketTransport(Transport):
    """:class:`~repro.transport.Transport` over live :class:`NetPeer` s."""

    def __init__(self, cluster: "LiveCluster"):
        self.cluster = cluster

    # -- Transport API -------------------------------------------------
    def send(self, source: "ChordNode", message: Message, ident: int) -> "ChordNode":
        cluster = self.cluster
        owner = cluster.network.responsible_node(ident)
        cluster.stats.record(message.type, 0)  # hops billed per forward
        cluster.in_flight.inc(message.type)
        cluster.peer_for(source).route(RouteFrame(target_ident=ident, message=message))
        return owner

    def send_direct(
        self, source: "ChordNode", message: Message, target: "ChordNode"
    ) -> None:
        cluster = self.cluster
        cluster.stats.record(message.type, 0 if source is target else 1)
        cluster.in_flight.inc(message.type)
        peer = cluster.peer_for(source)
        if target is source:
            peer.handle_delivery(message)
        else:
            peer.post(target.ident, DirectFrame(message=message), weight=1)

    def multisend(
        self,
        source: "ChordNode",
        messages: Sequence[Message] | Message,
        idents: Sequence[int],
        *,
        recursive: bool = True,
    ) -> list["ChordNode"]:
        cluster = self.cluster
        message_list = Router._pair_messages(messages, idents)
        owners = [cluster.network.responsible_node(ident) for ident in idents]
        if not idents:
            return owners
        if not recursive:
            for message, ident in zip(message_list, idents):
                self.send(source, message, ident)
            return owners
        size = cluster.network.space.size
        start = source.ident
        pairs = tuple(
            sorted(
                zip(idents, message_list),
                key=lambda pair: (pair[0] - start) % size,
            )
        )
        type_counts: dict[str, int] = {}
        for message in message_list:
            type_counts[message.type] = type_counts.get(message.type, 0) + 1
        for message_type, count in type_counts.items():
            cluster.stats.record_batch(message_type, count, 0)
            cluster.in_flight.inc(message_type, count)
        cluster.peer_for(source).route_multi(MultiFrame(pairs=pairs))
        return owners

    def lookup(
        self, origin: "ChordNode", ident: int, *, account: str = "lookup"
    ) -> "ChordNode":
        """A local finger-table walk via the in-process router.

        Rate probes (Section 4.3.6) read the probed node's arrival
        statistics in place, as in the simulator; a wire request/reply
        probe is future work (DESIGN.md §11).
        """
        return self.cluster.network.router.lookup(origin, ident, account=account)
