"""Tests for the live-throughput path: structural peeks, raw relay
splicing, batched stream decode, and outbox batching.

The zero-copy relay never materializes the messages it forwards, so
every structural helper here is proven byte-exact against the full
decode/encode round trip: a peek must read exactly what decode reads, a
splice must produce exactly the bytes a re-encode would, and the hop
bump must equal re-encoding the frame with ``hops + 1``.  The wire
bytes themselves are pinned by golden vectors in ``test_wire_vectors``.
"""

import asyncio
import dataclasses
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.cluster import ClusterConfig, LiveCluster
from repro.net.codec import (
    HEADER_SIZE,
    decode_frame,
    decode_value_at,
    encode,
    encode_frame,
    skip_value,
)
from repro.net.frames import (
    DirectFrame,
    MultiFrame,
    RouteFrame,
    bump_route_hops,
    peek_multi,
    peek_route,
    splice_multi,
)
from repro.net.peer import NetConfig
from repro.sim.messages import ALIndexMessage, UnsubscribeMessage
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

COMMON = settings(max_examples=50, deadline=None)
R = Relation("R", ("A", "B"))

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=12,
)


def data_tuple(a, b):
    return DataTuple.make(R, {"A": a, "B": b}, pub_time=1.0)


def message_for(n: int):
    """A deterministic, codec-registered application message."""
    if n % 2:
        return UnsubscribeMessage(query_key=f"probe-{n}")
    return ALIndexMessage(tuple=data_tuple(n, n * 7), index_attribute="B")


class TestStructuralSkip:
    @COMMON
    @given(value=values)
    def test_skip_matches_decode_span(self, value):
        payload = encode(value)
        assert skip_value(payload, 0) == len(payload)
        decoded, end = decode_value_at(payload, 0)
        assert end == len(payload)
        assert repr(decoded) == repr(value)  # repr: 1.0 != 1 distinction

    @COMMON
    @given(value=values, n=st.integers(min_value=0, max_value=40))
    def test_skip_rejects_truncation(self, value, n):
        payload = encode(value)
        if n >= len(payload):
            return
        with pytest.raises(Exception):
            if skip_value(payload[:n], 0) > n:
                raise ValueError("skipped past the truncation point")

    def test_skip_over_registered_records(self):
        payload = encode(message_for(2))
        assert skip_value(payload, 0) == len(payload)


class TestRoutePeek:
    @COMMON
    @given(
        target=st.integers(min_value=0, max_value=2**160 - 1),
        hops=st.integers(min_value=0, max_value=63),
        n=st.integers(min_value=0, max_value=5),
    )
    def test_peek_route_matches_decode(self, target, hops, n):
        frame = RouteFrame(target_ident=target, message=message_for(n), hops=hops)
        payload = encode(frame)
        peeked = peek_route(payload)
        assert peeked is not None
        got_target, got_tag, got_hops = peeked
        assert got_target == target
        assert got_hops == hops
        assert got_tag == encode(frame.message)[0]

    def test_peek_route_declines_wide_hop_counters(self):
        # hops >= 64 zigzags to a multi-byte varint: the relay must
        # fall back to the decoded path, never misread the tail.
        payload = encode(RouteFrame(1, message_for(1), hops=64))
        assert peek_route(payload) is None
        decoded, _ = decode_frame(encode_frame(RouteFrame(1, message_for(1), 64)))
        assert decoded.hops == 64

    @COMMON
    @given(junk=st.binary(max_size=24))
    def test_peek_route_never_raises_on_junk(self, junk):
        assert peek_route(junk) is None or isinstance(peek_route(junk), tuple)

    @COMMON
    @given(
        target=st.integers(min_value=0, max_value=2**160 - 1),
        hops=st.integers(min_value=0, max_value=61),
    )
    def test_bump_equals_reencode(self, target, hops):
        frame = RouteFrame(target_ident=target, message=message_for(1), hops=hops)
        data = encode_frame(frame)
        bumped = bump_route_hops(data[:HEADER_SIZE], data[HEADER_SIZE:])
        assert bumped == encode_frame(dataclasses.replace(frame, hops=hops + 1))


class TestMultiPeekAndSplice:
    @COMMON
    @given(
        idents=st.lists(
            st.integers(min_value=0, max_value=2**160 - 1),
            min_size=1,
            max_size=6,
        ),
        hops=st.integers(min_value=0, max_value=61),
        data=st.data(),
    )
    def test_peek_splice_and_bump(self, idents, hops, data):
        pairs = tuple(
            (ident, message_for(i)) for i, ident in enumerate(idents)
        )
        frame = MultiFrame(pairs=pairs, hops=hops)
        wire = encode_frame(frame)
        payload = wire[HEADER_SIZE:]

        peeked = peek_multi(payload)
        assert peeked is not None
        got_idents, tags, message_starts, pair_starts, got_hops = peeked
        assert got_idents == list(idents)
        assert got_hops == hops
        for i, start in enumerate(message_starts):
            message, _ = decode_value_at(payload, start)
            assert message == pairs[i][1]
            assert tags[i] == encode(pairs[i][1])[0]

        # A pure relay forwards the identical bytes with hops + 1.
        bumped = bump_route_hops(wire[:HEADER_SIZE], payload)
        assert bumped == encode_frame(dataclasses.replace(frame, hops=hops + 1))

        # A delivering hop splices out any kept subset verbatim.
        keep = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=0, max_value=len(pairs) - 1),
                    min_size=1,
                )
            )
        )
        spliced = splice_multi(payload, pair_starts, keep, hops)
        expected = MultiFrame(
            pairs=tuple(pairs[i] for i in keep), hops=hops + 1
        )
        assert spliced == encode(expected)

    def test_peek_multi_declines_wide_hop_counters(self):
        frame = MultiFrame(pairs=((1, message_for(1)),), hops=64)
        assert peek_multi(encode(frame)) is None

    @COMMON
    @given(junk=st.binary(max_size=24))
    def test_peek_multi_never_raises_on_junk(self, junk):
        peek_multi(junk)  # must not raise


def make_cluster():
    return LiveCluster(
        ClusterConfig(
            n_nodes=2,
            quiesce_timeout=10.0,
            net=NetConfig(connect_timeout=0.5, io_timeout=2.0, backoff_base=0.01),
        )
    )


async def blast_frames(cluster, payload_chunks, n_frames):
    """Write pre-framed bytes to one live peer in the given chunks and
    wait until every frame was handled."""
    received = []
    for node in cluster.network.nodes:
        node.register_handler(
            "unsubscribe", lambda node, message: received.append(message.query_key)
        )
    target = next(iter(cluster.peers.values()))
    for _ in range(n_frames):
        cluster.in_flight.inc("unsubscribe")
    reader, writer = await asyncio.open_connection(
        target.info.host, target.info.port
    )
    try:
        for chunk in payload_chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0)
        await cluster.drain()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass
    return received


class TestCoalescedStream:
    """The receive loop must split any batching the sender (or the
    kernel) performed: frame boundaries exist only in the length
    prefixes, never in packet boundaries."""

    def test_many_frames_in_one_write(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                frames = [
                    encode_frame(
                        DirectFrame(message=UnsubscribeMessage(query_key=f"q{i}"))
                    )
                    for i in range(8)
                ]
                return await blast_frames(cluster, [b"".join(frames)], 8)
            finally:
                await cluster.stop()

        received = asyncio.run(scenario())
        assert received == [f"q{i}" for i in range(8)]

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_arbitrary_chunk_boundaries(self, data):
        frames = [
            encode_frame(
                DirectFrame(message=UnsubscribeMessage(query_key=f"q{i}"))
            )
            for i in range(4)
        ]
        stream = b"".join(frames)
        cuts = sorted(
            data.draw(
                st.sets(
                    st.integers(min_value=1, max_value=len(stream) - 1),
                    max_size=6,
                )
            )
        )
        bounds = [0] + cuts + [len(stream)]
        chunks = [
            stream[a:b] for a, b in zip(bounds, bounds[1:]) if a != b
        ]

        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                return await blast_frames(cluster, chunks, 4)
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) == [f"q{i}" for i in range(4)]


class TestBatchingAndNodelay:
    def test_rapid_posts_coalesce_into_batches(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                received = []
                for node in cluster.network.nodes:
                    node.register_handler(
                        "unsubscribe",
                        lambda node, message: received.append(message.query_key),
                    )
                sender, target = list(cluster.peers.values())
                # Synchronous enqueue of a burst: the outbox task wakes
                # once and must ship the backlog as coalesced writes.
                for i in range(12):
                    cluster.in_flight.inc("unsubscribe")
                    sender.post(
                        target.node.ident,
                        DirectFrame(
                            message=UnsubscribeMessage(query_key=f"q{i}")
                        ),
                        weight=1,
                    )
                await cluster.drain()
                batches = sender.batches_sent
                frames = sender.frames_sent
                return received, batches, frames
            finally:
                await cluster.stop()

        received, batches, frames = asyncio.run(scenario())
        assert sorted(received) == sorted(f"q{i}" for i in range(12))
        assert frames >= 12
        assert 1 <= batches < frames

    def test_tcp_nodelay_set_on_outbox_sockets(self):
        async def scenario():
            cluster = make_cluster()
            await cluster.start()
            try:
                sender, target = list(cluster.peers.values())
                cluster.in_flight.inc("unsubscribe")
                sender.post(
                    target.node.ident,
                    DirectFrame(message=UnsubscribeMessage(query_key="q")),
                    weight=1,
                )
                await cluster.drain()
                outbox = next(iter(sender._outboxes.values()))
                sock = outbox.writer.get_extra_info("socket")
                return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) != 0
