"""Ring set-up: build a stable ring, then one full garbage collection.

Informational.  A full collection rescans every GC-tracked object, so
what a built ring keeps alive per node (DESIGN.md §14, "What a node
allocates") shows up both in the collection that follows the build and
in every later one.  The row reports the build plus one
``gc.collect()`` per node, and the tracked objects the ring added per
node.
"""

from __future__ import annotations

import gc
import time

from repro.chord.network import ChordNetwork

from _common import report


def run(n_nodes: int = 20_000) -> list[dict]:
    ChordNetwork.build(8)  # first-use allocations outside the count
    gc.collect()
    before = len(gc.get_objects())
    start = time.perf_counter()
    network = ChordNetwork.build(n_nodes)
    gc.collect()
    elapsed = time.perf_counter() - start
    tracked = len(gc.get_objects()) - before
    row = report(
        "ring.build_and_collect",
        elapsed / n_nodes * 1e9,
        n_nodes=len(network),
        tracked_per_node=round(tracked / n_nodes, 3),
    )
    return [row]


if __name__ == "__main__":
    for row in run():
        print(row)
