"""Property-based differential check: RingSnapshot ≡ the object ring.

The large-scale fast path (DESIGN.md §14) rests on one claim: bisect
arithmetic over the sorted identifier array reproduces the object
ring's routing *exactly* — same successor, same forwarding choice at
every node, same hop counts.  Hypothesis drives random memberships
and wrap-around targets through both implementations side by side; any
divergence is a routing bug, not a tolerance issue.  Routers take the
snapshot on every exact ring, so these tests reach the object walk by
patching ``ChordNetwork.ring_snapshot`` to return ``None``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chord.network import ChordNetwork
from repro.chord.snapshot import RingSnapshot

#: Cached exact rings per size: examples only ever *read* them, and
#: building the ring (not checking it) dominates each example.
_RINGS: dict[int, ChordNetwork] = {}


def ring_of(n_nodes: int) -> ChordNetwork:
    network = _RINGS.get(n_nodes)
    if network is None:
        network = ChordNetwork.build(n_nodes)
        _RINGS[n_nodes] = network
    return network


def snapshot_of(network: ChordNetwork) -> RingSnapshot:
    snapshot = network.ring_snapshot()
    assert snapshot is not None
    return snapshot


@st.composite
def ring_and_targets(draw):
    """A ring size plus targets biased toward ownership boundaries."""
    n_nodes = draw(st.integers(min_value=1, max_value=24))
    network = ring_of(n_nodes)
    idents = snapshot_of(network).idents
    size = network.space.size
    boundary = st.builds(
        lambda ident, offset: (ident + offset) % size,
        st.sampled_from(idents),
        st.integers(min_value=-2, max_value=2),
    )
    anywhere = st.integers(min_value=0, max_value=size - 1)
    targets = draw(
        st.lists(st.one_of(boundary, anywhere), min_size=1, max_size=8)
    )
    source = idents[draw(st.integers(min_value=0, max_value=n_nodes - 1))]
    return n_nodes, source, targets


@settings(max_examples=200, deadline=None)
@given(ring_and_targets())
def test_successor_matches_global_oracle(case):
    n_nodes, _, targets = case
    network = ring_of(n_nodes)
    snapshot = snapshot_of(network)
    for target in targets:
        expected = network._oracle_successor(target).ident
        assert snapshot.idents[snapshot.owner_pos(target)] == expected
        assert snapshot.owns(snapshot.position(expected), target)


@settings(max_examples=200, deadline=None)
@given(ring_and_targets())
def test_closest_preceding_finger_matches_object_scan(case):
    n_nodes, source, targets = case
    network = ring_of(n_nodes)
    snapshot = snapshot_of(network)
    # The object scan is called directly; it needs the fingers filled.
    network.materialize_fingers()
    node = network._nodes[source]
    pos = snapshot.position(source)
    for target in targets:
        expected = node.closest_preceding_finger(target).ident
        got = snapshot.idents[snapshot.closest_preceding_finger_pos(pos, target)]
        assert got == expected, (
            f"cpf({source}, {target}) diverged: snapshot {got}, object {expected}"
        )


@settings(max_examples=200, deadline=None)
@given(ring_and_targets())
def test_find_successor_and_walk_match_hop_for_hop(case):
    n_nodes, source, targets = case
    network = ring_of(n_nodes)
    snapshot = snapshot_of(network)
    router = network.router
    network.materialize_fingers()
    node = network._nodes[source]
    pos = snapshot.position(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ChordNetwork, "ring_snapshot", lambda self: None)
        for target in targets:
            expected_node, expected_hops = router.find_successor(node, target)
            got_pos, got_hops = snapshot.find_successor(source, target)
            assert snapshot.idents[got_pos] == expected_node.ident
            assert got_hops == expected_hops
            walk_node, walk_hops = router._walk(node, target)
            got_pos, got_hops = snapshot.walk_pos(pos, target)
            assert snapshot.idents[got_pos] == walk_node.ident
            assert got_hops == walk_hops
