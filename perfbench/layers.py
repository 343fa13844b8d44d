"""Which public functions the traced run wraps, and the per-layer metrics.

Each entry of :func:`targets` names the object a caller resolves the
function through -- a class attribute, or the global of the module that
imported it -- so patching it intercepts every call.  Several functions
may share one span name when they do one job (the codec's decoders).

Every per-layer metric is printed on every workload; a layer a workload
does not exercise reads 0 calls.  Busy time is reported as a share of
the traced round's wall (``self_pct``) so that it is comparable across
workloads of different length; the absolute self seconds are in the
span file and in the printed table.
"""

from __future__ import annotations

from repro.chord import ChordNetwork, ConsistentHash, Router
from repro.chord.snapshot import RingSnapshot
from repro.core import ALGORITHMS, ContinuousQueryEngine
from repro.core import base as core_base
from repro.core.tables import ProjectionStore, ValueLevelQueryTable, ValueLevelTupleTable
from repro.net import cluster as net_cluster
from repro.net import peer as net_peer
from repro.sim import shard as sim_shard
from repro.bench import harness

#: Root span: the benchmark's own driver loop.  Its self time
#: (``driver.self_pct``) is the untraced remainder -- time inside no
#: wrapped layer.
ROOT = "driver"

#: Garbage collections, wherever they interrupt (see
#: :meth:`spans.Tracer.track_gc`).  On ``sim-ring`` full collections
#: rescan the 10^5 live node objects and land in whichever layer
#: allocates at the time.
GC = "python.gc"


def targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped function."""
    found = [
        (ChordNetwork, "build", "chord.network.build"),
        (Router, "send", "chord.routing.send"),
        (Router, "send_direct", "chord.routing.send"),
        (Router, "multisend", "chord.routing.multisend"),
        (Router, "find_successor", "chord.routing.find_successor"),
        (RingSnapshot, "find_successor", "chord.snapshot.route"),
        (RingSnapshot, "walk_pos", "chord.snapshot.route"),
        (ConsistentHash, "hash_parts", "chord.hashing.hash_parts"),
        (core_base, "rewrite", "sql.query.rewrite"),
        (ValueLevelQueryTable, "add", "core.tables.vlqt.add"),
        (ValueLevelQueryTable, "candidates", "core.tables.vlqt.candidates"),
        (ValueLevelQueryTable, "evict_older_than", "core.tables.evict"),
        (ValueLevelTupleTable, "add", "core.tables.vltt.add"),
        (ValueLevelTupleTable, "candidates", "core.tables.vltt.candidates"),
        (ValueLevelTupleTable, "evict_older_than", "core.tables.evict"),
        # DAI-V's store; the benchmark's workloads run SAI and DAI-T, so
        # these read 0 calls until a DAI-V workload is added.
        (ProjectionStore, "add", "core.tables.projection.add"),
        (ProjectionStore, "candidates", "core.tables.projection.candidates"),
        (ProjectionStore, "evict_older_than", "core.tables.evict"),
        (ContinuousQueryEngine, "subscribe", "core.engine.subscribe"),
        (ContinuousQueryEngine, "publish", "core.engine.publish"),
        (ContinuousQueryEngine, "evict_expired", "core.engine.evict_expired"),
        (ContinuousQueryEngine, "deliver_notifications", "core.engine.deliver_notifications"),
        (harness, "run_workload", "bench.harness.run_workload"),
        (sim_shard, "run_sharded", "sim.shard.run_sharded"),
        (net_peer.SocketTransport, "send", "net.transport.send"),
        (net_peer.SocketTransport, "send_direct", "net.transport.send"),
        (net_peer.SocketTransport, "multisend", "net.transport.send"),
        (net_peer.NetPeer, "post", "net.peer.post"),
        (net_peer.NetPeer, "post_raw", "net.peer.post"),
        (net_peer.NetPeer, "route", "net.peer.route"),
        (net_peer.NetPeer, "route_multi", "net.peer.route"),
        (net_peer.NetPeer, "handle_delivery", "net.peer.handle_delivery"),
        (net_peer, "encode_frame", "net.codec.encode"),
        (net_peer, "frame_for_payload", "net.codec.encode"),
        (net_cluster, "encode_frame", "net.codec.encode"),
        (net_peer, "decode", "net.codec.decode"),
        (net_peer, "decode_frame_payload", "net.codec.decode"),
        (net_peer, "decode_value_at", "net.codec.decode"),
        (net_peer, "peek_route", "net.codec.peek"),
        (net_peer, "peek_multi", "net.codec.peek"),
        (net_peer, "splice_multi", "net.codec.peek"),
        (net_peer, "bump_route_hops", "net.codec.peek"),
    ]
    # Handlers are looked up on the concrete algorithm class each time a
    # message arrives; wrapping each class's own attribute (not the base
    # class) records one span per handler call, even when it calls super().
    for algorithm in ALGORITHMS.values():
        for handler in ("on_query", "on_al_index", "on_vl_index", "on_join"):
            found.append((algorithm, handler, f"core.algorithm.{handler}"))
    return found


#: Every span name, in the order of :func:`targets`, then the root and
#: the collector.
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in targets())) + (ROOT, GC)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: dict, perf: dict, extra: dict) -> dict[str, float]:
    """Per-layer metric values from tracer totals, PERF counters and the
    workload's own measurements (``extra``); ``run.py`` checks the names
    against ``BENCHMARK.json``."""
    wall = totals[ROOT][2]
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s, _span = totals.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_pct"] = 100.0 * self_s / wall
    counters = perf.get("counters", {})
    hits = counters.get("hash.parts_hit", 0)
    values["chord.hashing.hit_ratio"] = _ratio(hits, hits + counters.get("hash.parts_miss", 0))
    values["sql.query.rewrites_per_al_index"] = _ratio(
        values["sql.query.rewrite.calls"], values["core.algorithm.on_al_index.calls"]
    )
    values["sim.shard.epochs"] = counters.get("shard.epochs", 0)
    values["net.peer.frames_per_batch"] = _ratio(
        counters.get("net.frames_flushed", 0), counters.get("net.batches", 0)
    )
    raw = counters.get("net.frames_relayed_raw", 0)
    values["net.peer.raw_relay_ratio"] = _ratio(raw, raw + counters.get("codec.frames_decoded", 0))
    values.update(extra)
    return values
