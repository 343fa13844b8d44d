"""Hot path 6: ring-snapshot lookups vs per-hop object walks.

The large-scale path (DESIGN.md §14) replaces ``find_successor``'s
node-by-node finger walk with closed-form bisect resolution over a
:class:`~repro.chord.snapshot.RingSnapshot`.  Both variants run over the
identical ring and lookup set, so the speedup is directly visible; the
hop counts are asserted equal (the Hypothesis differential test covers
the full equivalence).
"""

from __future__ import annotations

import random
import time

from repro.chord.network import ChordNetwork

from _common import report


def run(n_nodes: int = 4096, lookups: int = 5_000) -> list[dict]:
    rng = random.Random(13)
    network = ChordNetwork.build(n_nodes)
    snapshot = network.ring_snapshot()
    targets = [rng.randrange(network.space.size) for _ in range(lookups)]
    sources = [network.random_node(rng) for _ in range(lookups)]
    router = network.router
    rows = []

    start = time.perf_counter()
    snapshot_hops = 0
    for source, target in zip(sources, targets):
        _, cost = snapshot.find_successor(source.ident, target)
        snapshot_hops += cost
    elapsed = time.perf_counter() - start
    rows.append(
        report(
            "snapshot.bisect_lookup",
            elapsed / lookups * 1e9,
            n_nodes=n_nodes,
            mean_hops=round(snapshot_hops / lookups, 2),
        )
    )

    # Hide the snapshot so the router takes the object walk; fill the
    # fingers it reads outside the timed loop.
    network.ring_snapshot = lambda: None
    network.materialize_fingers()
    start = time.perf_counter()
    walk_hops = 0
    for source, target in zip(sources, targets):
        _, cost = router.find_successor(source, target)
        walk_hops += cost
    elapsed = time.perf_counter() - start
    if walk_hops != snapshot_hops:
        raise AssertionError(
            f"snapshot/object hop divergence: {snapshot_hops} != {walk_hops}"
        )
    rows.append(
        report(
            "snapshot.object_walk_reference",
            elapsed / lookups * 1e9,
            n_nodes=n_nodes,
            mean_hops=round(walk_hops / lookups, 2),
        )
    )
    return rows


if __name__ == "__main__":
    for row in run():
        print(row)
