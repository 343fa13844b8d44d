"""Golden wire vectors: the codec's output is pinned byte for byte.

Every sample below is deterministic, and ``wire_vectors.json`` holds the
hex frame each one encoded to when the vectors were recorded.  A codec
change that alters a single byte on the wire — a tag, a varint width, a
field order — fails here, so peers running different builds of this
package keep understanding each other.  Decoding a vector and encoding
the result must reproduce it exactly, which pins the decoder too.

The samples cover the frames live traffic is made of: plain overlay
messages, a routed envelope with a full-width identifier, a multisend
sweep, a mixed scalar/container value, and the three frame shapes the
codec micro-benchmark times (``benchmarks/micro/test_codec_encode.py``).

To re-record after an intentional wire change (bump ``PROTOCOL_VERSION``
first), run this module as a script: ``PYTHONPATH=src python
tests/net/test_wire_vectors.py``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.notifications import Notification
from repro.net.codec import decode_frame, encode_frame
from repro.net.frames import MultiFrame, RouteFrame
from repro.sim.messages import (
    ALIndexMessage,
    JoinMessage,
    NotificationMessage,
    UnsubscribeMessage,
    VLIndexMessage,
)
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, Subscriber, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

VECTORS_PATH = Path(__file__).with_name("wire_vectors.json")

R2 = Relation("R", ("A", "B"))
R3 = Relation("R", ("A", "B", "C"))


def message_for(n: int):
    """A deterministic, codec-registered application message."""
    if n % 2:
        return UnsubscribeMessage(query_key=f"probe-{n}")
    return ALIndexMessage(
        tuple=DataTuple.make(R2, {"A": n, "B": n * 7}, pub_time=1.0),
        index_attribute="B",
    )


def micro_frames() -> dict:
    """The codec micro-benchmark's three representative frame shapes."""
    rng = random.Random(23)
    subscriber = Subscriber("bench", 1, "10.0.0.1")
    query = parse_query(
        "SELECT R.A, S.D FROM R, S WHERE R.B = S.E"
    ).with_subscription("bench#0", 0.0, subscriber)
    tuples = [
        DataTuple(
            R3,
            (rng.randrange(900), rng.randrange(900), rng.randrange(900)),
            float(i),
        )
        for i in range(8)
    ]
    join = JoinMessage(
        rewritten=tuple(rewrite(query, LEFT, tup) for tup in tuples[:4]),
        projections=(),
    )
    notifications = tuple(
        Notification(
            query_key="bench#0",
            subscriber_ident=1,
            row=(tup.values[0], tup.values[1]),
            join_value_repr=repr(tup.values[1]),
            trigger_pub_time=tup.pub_time,
            match_pub_time=0.5,
            created_at=1.5,
        )
        for tup in tuples[:4]
    )
    return {
        "join_routed": RouteFrame(target_ident=2**120, message=join, hops=2),
        "vl_index_sweep": MultiFrame(
            pairs=tuple(
                (
                    rng.randrange(2**160),
                    VLIndexMessage(tuple=tup, index_attribute="B"),
                )
                for tup in tuples
            ),
            hops=1,
        ),
        "notification_batch": NotificationMessage(
            notifications=notifications, subscriber_ident=1
        ),
    }


def samples() -> dict:
    named = {f"message_for_{n}": message_for(n) for n in range(4)}
    named["route_frame_2_159"] = RouteFrame(2**159, message_for(1), hops=3)
    named["multi_frame_two_pairs"] = MultiFrame(
        ((5, message_for(2)), (9, message_for(3))), hops=1
    )
    named["mixed_value"] = ("mixed", (1, 2.5, None), {"k": [True, b"x"]})
    named.update(micro_frames())
    return named


SAMPLES = samples()


@pytest.fixture(scope="module")
def vectors() -> dict:
    return json.loads(VECTORS_PATH.read_text())


def test_every_sample_has_a_vector(vectors):
    assert sorted(SAMPLES) == sorted(vectors)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_encoding_matches_golden_vector(name, vectors):
    assert encode_frame(SAMPLES[name]).hex() == vectors[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_decoding_then_reencoding_reproduces_vector(name, vectors):
    wire = bytes.fromhex(vectors[name])
    decoded, consumed = decode_frame(wire)
    assert consumed == len(wire)
    assert encode_frame(decoded) == wire


if __name__ == "__main__":
    VECTORS_PATH.write_text(
        json.dumps(
            {name: encode_frame(obj).hex() for name, obj in samples().items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(SAMPLES)} vectors to {VECTORS_PATH}")
