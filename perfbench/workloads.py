"""The benchmark's three workloads and the run that measures one of them.

``sim-fanout``
    The serial simulator on the ``run_standard`` path (object-finger
    routing), SAI with a sliding window, replicated rewriters and JFRT.
    Many queries share each attribute, so one tuple fans out into many
    rewritten queries: the rewriter, its VLQT inserts and hashing do
    most of the work, and windowed eviction does real work too.
``sim-ring``
    The staged executor in-process (``run_sharded``, one shard) on a
    10^5-node snapshot-routed ring, DAI-T, unbounded window.  Few
    queries and many tuples bypass the rewriter; routing is the largest
    layer of the program in the stream, garbage collection over the
    ring's objects takes more, and the ring build is the set-up.
``live-open``
    A 16-node ``LiveCluster`` over localhost TCP running SAI, fed by an
    open-loop generator that steps through a fixed rate ladder.  The
    codec, the peer outboxes and the event loop sit on the path a user
    waits on.

A run draws several inputs from its seed (:func:`input_seeds`) and
measures each in a process of its own (:func:`measure_input`): the
primary path once, then, outside the timed region and after peak RSS
was read, a second execution path as the reference its answers, hops
and messages are checked against.  :func:`pool` combines the inputs.
Timed regions are reported in reference seconds (:class:`measure.Pace`).
A traced run measures its first input twice, untraced and then traced
(:func:`trace_input`), each in a fresh process, and :func:`traced_result`
compares the two.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.bench import harness
from repro.chord import ChordNetwork
from repro.chord.hashing import hash_key_cache_clear
from repro.core import ContinuousQueryEngine, EngineConfig
from repro.core.tables import ValueLevelQueryTable
from repro.net.cluster import ClusterConfig, LiveCluster
from repro.perf import PERF
from repro.sim import shard as sim_shard
from repro.workload import WorkloadParams, build_workload

import layers
from measure import PERCENTILES, Pace, highest_supported, peak_rss_mb, percentile
from openloop import OpenLoop, Rung
from spans import Tracer

#: The simulator runs on one thread, so its wall time is its CPU time
#: plus whatever the host took away: on a shared 2-core box a fixed loop
#: read 0.29-0.44 s wall but 0.28-0.29 s CPU.  Set-up and stream are
#: therefore timed on the process CPU clock (through :class:`Pace`), and
#: so is the simulator's printed notification latency.  The live
#: workload's latency waits on sockets and a schedule, so it is wall time.
CPU_CLOCK = time.process_time

#: Where traced runs write their span files (inside the checkout).
TRACE_DIR = Path(__file__).resolve().parent / "traces"

#: Tuples whose stream index is a multiple of this keep full spans.
SPAN_SAMPLE_EVERY = 64

#: Fewest inputs a run pools.
MIN_INPUTS = 3


@dataclass
class Outcome:
    """What a run produced that the reference must reproduce."""

    digest: str
    hops: int
    messages: int
    evictions: int
    answers: frozenset


def answer_set(engine) -> frozenset:
    """Every delivered answer as a ``(query key, answer)`` pair."""
    return frozenset(
        (key, pair)
        for key, pairs in sim_shard.delivered_pairs(engine).items()
        for pair in pairs
    )


def state_entries(engine) -> int:
    """Stored items (query- and value-level) over every adopted node."""
    return sum(state.storage_breakdown().total for _, state in engine.adopted_states())


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------


class Feed:
    """The workload's events as an executor pulls them, timestamped.

    The instant the executor takes a stream tuple stands in for its
    publish time: the serial driver publishes it right away, the staged
    executor takes a whole epoch and publishes it before its stages
    run, so a notification's latency includes the epoch it waited in.
    """

    def __init__(self, events, engine, pace: Pace, tracer: Optional[Tracer] = None):
        self.events = events
        self.engine = engine
        self.pace = pace
        self.tracer = tracer
        self.stream_start = None
        self.stream_events = 0
        self.latencies: list[float] = []
        self._pulled: dict[float, float] = {}

    def _on_notification(self, notification) -> None:
        completed_by = max(notification.trigger_pub_time, notification.match_pub_time)
        self.latencies.append(CPU_CLOCK() - self._pulled[completed_by])

    def __iter__(self):
        engine = self.engine
        for event in self.events:
            if event.kind == "tuple" and engine.queries:
                if self.stream_start is None:
                    for key in engine.queries:
                        engine.add_notification_listener(key, self._on_notification)
                    self.stream_start = self.pace.mark()
                self.stream_events += 1
                if self.tracer is not None:
                    self.tracer.event = self.stream_events
                self._pulled[event.time] = CPU_CLOCK()
            yield event


@dataclass
class Round:
    """One measured round; times are reference seconds."""

    setup_s: float
    stream_s: float
    events: int
    latencies: list
    outcome: Outcome
    state_entries: int


class SimWorkload:
    """A simulator workload: inputs, primary path and reference path."""

    name = ""
    #: Inputs per run: ``--seconds`` over this, at least
    #: :data:`MIN_INPUTS`.  It is about the wall seconds one input costs
    #: a run (measured round and reference) on a 2-core x86-64 box, set
    #: lower where a workload needs more inputs to pool (``sim-ring``).
    seconds_per_input = 1.0
    n_nodes = 0
    params: dict = {}
    engine_options: dict = {}

    def inputs(self, seed: int):
        return build_workload(WorkloadParams(seed=seed, **self.params))

    def config(self, seed: int) -> EngineConfig:
        return EngineConfig(seed=seed, **self.engine_options)

    def build(self, seed: int) -> ContinuousQueryEngine:
        raise NotImplementedError

    def execute(self, engine, feed, seed: int):
        raise NotImplementedError

    def outcome(self, engine, result) -> Outcome:
        raise NotImplementedError

    def reference(self, workload, seed: int) -> Outcome:
        raise NotImplementedError

    def round(self, workload, seed: int, pace: Pace, tracer: Optional[Tracer] = None) -> Round:
        """Build the ring, install the queries, stream every tuple."""
        hash_key_cache_clear()
        gc.collect()
        with tracer.span(layers.ROOT) if tracer is not None else nullcontext():
            start = pace.mark()
            engine = self.build(seed)
            feed = Feed(workload, engine, pace, tracer)
            result = self.execute(engine, feed, seed)
            end = pace.mark()
        if feed.stream_start is None:
            raise RuntimeError(f"{self.name}: the workload streamed no tuples")
        return Round(
            setup_s=pace.seconds(start, feed.stream_start),
            stream_s=pace.seconds(feed.stream_start, end),
            events=feed.stream_events,
            latencies=feed.latencies,
            outcome=self.outcome(engine, result),
            state_entries=state_entries(engine),
        )


class SimFanout(SimWorkload):
    name = "sim-fanout"
    n_nodes = 2048
    params = {"n_queries": 1000, "n_tuples": 200, "domain_size": 2000, "zipf_s": 0.9}
    engine_options = {
        "algorithm": "sai",
        "window": 128.0,
        "replication_factor": 2,
        "jfrt_capacity": 128,
    }
    evict_every = 64
    seconds_per_input = 6.0

    def build(self, seed):
        return ContinuousQueryEngine(ChordNetwork.build(self.n_nodes), self.config(seed))

    def execute(self, engine, feed, seed):
        return harness.run_workload(engine, feed, seed=seed, evict_every=self.evict_every)

    def outcome(self, engine, result):
        return _serial_outcome(engine, result)

    def reference(self, workload, seed):
        """The staged executor on a snapshot-routed ring."""
        engine = ContinuousQueryEngine(
            ChordNetwork.build(self.n_nodes, fast_routing=True), self.config(seed)
        )
        result = sim_shard.run_sharded(
            engine, workload, shards=1, seed=seed, evict_every=self.evict_every
        )
        return _shard_outcome(engine, result)


class SimRing(SimWorkload):
    name = "sim-ring"
    n_nodes = 100_000
    params = {"n_queries": 24, "n_tuples": 1000, "domain_size": 900, "zipf_s": 0.75}
    engine_options = {"algorithm": "dai-t"}
    #: An input costs about 9 s; four inputs rather than three, because
    #: one draw's hops per tuple, and with them its throughput, move by
    #: up to 12% from the next.
    seconds_per_input = 6.0

    def build(self, seed):
        network = ChordNetwork.build(self.n_nodes, fast_routing=True)
        return ContinuousQueryEngine(network, self.config(seed))

    def execute(self, engine, feed, seed):
        return sim_shard.run_sharded(engine, feed, shards=1, seed=seed)

    def outcome(self, engine, result):
        return _shard_outcome(engine, result)

    def reference(self, workload, seed):
        """The serial driver over the same snapshot-routed ring."""
        engine = self.build(seed)
        return _serial_outcome(engine, harness.run_workload(engine, workload, seed=seed))


def _serial_outcome(engine, result) -> Outcome:
    return Outcome(
        digest=result.notification_digest(),
        hops=result.stream_traffic.hops,
        messages=result.stream_traffic.messages,
        evictions=result.evictions,
        answers=answer_set(engine),
    )


def _shard_outcome(engine, result) -> Outcome:
    return Outcome(
        digest=result.notification_digest,
        hops=result.stream_traffic.hops,
        messages=result.stream_traffic.messages,
        evictions=result.evictions,
        answers=answer_set(engine),
    )


# ----------------------------------------------------------------------
# Live workload
# ----------------------------------------------------------------------


@dataclass
class Session:
    """One live cluster run: set-ups, then the ladder on the last one.
    Set-up and ladder times are reference seconds."""

    setup_s: list = field(default_factory=list)
    rungs: list = field(default_factory=list)
    digest: str = ""
    answers: frozenset = frozenset()
    hops: int = 0
    messages: int = 0
    wire_bytes: int = 0
    tuples: int = 0
    ladder_s: float = 0.0
    inflight_peak: int = 0
    frames_shed: int = 0
    state_entries: int = 0


class LiveOpen:
    name = "live-open"
    n_nodes = 16
    params = {"n_queries": 30, "domain_size": 200}
    algorithm = "sai"
    #: Rates in tuples/s.  The first rung only warms the cluster up
    #: (peers open their connections lazily) and reports nothing.
    #: Latency is reported at the second, the reference rate.  The last
    #: rungs offer more than the cluster can take; their delivered
    #: rates are printed, while ``events_per_s`` is every ladder tuple
    #: per reference second of the one thread all peers share -- the
    #: rate the cluster would sustain if it were never idle, read without
    #: the host's CPU steal that makes delivered rates swing.
    ladder = (
        Rung(100.0, 30),
        Rung(50.0, 200),
        Rung(100.0, 100),
        Rung(200.0, 100),
        Rung(800.0, 200),
    )
    reference_rung = 1
    #: Cluster start-ups timed per input (the last one runs the ladder).
    setups = 5
    #: p99 notification latency a rung must meet to count as sustained.
    latency_limit_ms = 200.0
    #: See :attr:`SimWorkload.seconds_per_input`.
    seconds_per_input = 7.5

    def inputs(self, seed: int):
        n_tuples = sum(rung.tuples for rung in self.ladder)
        return build_workload(WorkloadParams(n_tuples=n_tuples, seed=seed, **self.params))

    def reference(self, workload, seed: int) -> Outcome:
        """The serial simulator, run as ``simulate_reference`` runs it;
        its digest is ``simulate_reference``'s."""
        engine = ContinuousQueryEngine(
            ChordNetwork.build(self.n_nodes), EngineConfig(algorithm=self.algorithm, seed=seed)
        )
        return _serial_outcome(engine, harness.run_workload(engine, workload, seed=seed))

    async def session(self, workload, seed: int, setups: int, pace: Pace) -> Session:
        """Start the cluster ``setups`` times (timing each start and query
        install), then run the whole ladder on the last one."""
        gc.collect()
        queries = [event for event in workload if event.kind == "query"]
        tuples = [event for event in workload if event.kind == "tuple"]
        out = Session(tuples=len(tuples))
        for cycle in range(setups):
            hash_key_cache_clear()
            start = pace.mark()
            cluster = LiveCluster(
                ClusterConfig(algorithm=self.algorithm, n_nodes=self.n_nodes, seed=seed)
            )
            await cluster.start()
            engine = cluster.engine
            rng = random.Random(seed)
            bound = []
            for event in queries:
                engine.clock.advance_to(event.time)
                bound.append(engine.subscribe(cluster.network.random_node(rng), event.payload))
            await cluster.drain()
            out.setup_s.append(pace.seconds(start, pace.mark()))
            if cycle < setups - 1:
                await cluster.stop()
        try:

            def publish(event) -> None:
                engine.clock.advance_to(event.time)
                origin = cluster.network.random_node(rng)
                relation, values = event.payload
                engine.publish(origin, relation, values)

            loop = OpenLoop(publish, lambda: cluster.in_flight.count, cluster.drain)
            for query in bound:
                engine.add_notification_listener(query.key, loop.on_notification)
            traffic_before = cluster.stats.snapshot()
            bytes_before = sum(peer.bytes_sent for peer in cluster.peers.values())
            ladder_start = pace.mark()
            offset = 0
            for rung in self.ladder:
                await loop.run_rung(rung, tuples[offset : offset + rung.tuples])
                offset += rung.tuples
            out.ladder_s = pace.seconds(ladder_start, pace.mark())
            traffic = cluster.stats.since(traffic_before)
            out.hops = traffic.hops
            out.messages = traffic.messages
            out.wire_bytes = (
                sum(peer.bytes_sent for peer in cluster.peers.values()) - bytes_before
            )
            out.rungs = loop.results
            out.digest = sim_shard.digest_of_pairs(sim_shard.delivered_pairs(engine))
            out.answers = answer_set(engine)
            out.inflight_peak = cluster.in_flight.peak
            out.frames_shed = sum(peer.frames_shed for peer in cluster.peers.values())
            out.state_entries = state_entries(engine)
        finally:
            await cluster.stop()
        return out


WORKLOADS = {spec.name: spec for spec in (SimFanout(), SimRing(), LiveOpen())}


# ----------------------------------------------------------------------
# Running one benchmark invocation
# ----------------------------------------------------------------------


def input_seeds(spec, seed: int, seconds: float) -> list[int]:
    """The seeds of the inputs one run measures.

    A run measures several independently generated inputs so that its
    figures describe the workload, not one draw of it.  Their number
    follows from ``--seconds`` and the workload's nominal cost per
    input, never from how fast this run goes, so every run with the
    same arguments does the same work.
    """
    count = max(MIN_INPUTS, round(seconds / spec.seconds_per_input))
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


@dataclass
class Check:
    """Answers checked against the reference, accumulated over inputs."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def answers(self, label: str, got: frozenset, digest: str, ref: frozenset, ref_digest: str) -> None:
        self.attempted += len(ref)
        if digest == ref_digest:
            return
        missing, extra = len(ref - got), len(got - ref)
        self.failed += max(1, missing + extra)
        self.problems.append(
            f"{label}: digest {digest[:12]} != reference {ref_digest[:12]} "
            f"({missing} missing, {extra} extra answers)"
        )

    def equal(self, label: str, what: str, got, expected) -> None:
        if got != expected:
            self.problems.append(f"{label}: {what} {got} != reference {expected}")

    def outcome(self, label: str, got: Outcome, ref: Outcome) -> None:
        self.answers(label, got.answers, got.digest, ref.answers, ref.digest)
        self.equal(label, "hops", got.hops, ref.hops)
        self.equal(label, "messages", got.messages, ref.messages)
        self.equal(label, "evictions", got.evictions, ref.evictions)


def measure_input(name: str, input_seed: int, say=print) -> dict:
    """Measure one input on the workload's primary path, then check it
    against the reference path; returns plain data for :func:`pool`.

    A run measures each input in a process of its own, so that no input
    inherits the heap, and with it the collector's schedule, of another.
    """
    PERF.disable()
    spec = WORKLOADS[name]
    workload = spec.inputs(input_seed)
    check = Check()
    label = f"input seed {input_seed}"
    if isinstance(spec, LiveOpen):
        with Pace() as pace:
            session = asyncio.run(spec.session(workload, input_seed, spec.setups, pace))
        peak = peak_rss_mb()
        _ladder_report(spec, input_seed, session, say)
        check.answers(label, session.answers, session.digest, *_answers(spec.reference(workload, input_seed)))
        part = {
            "setup_s": session.setup_s,
            "measured_s": session.ladder_s,
            "rate_events": session.tuples,
            "rate_seconds": session.ladder_s,
            "latencies": session.rungs[spec.reference_rung].latencies,
            "tuples": session.tuples,
            "digest": session.digest,
            "hops": session.hops,
            "messages": session.messages,
        }
    else:
        with Pace() as pace:
            measured = spec.round(workload, input_seed, pace)
        peak = peak_rss_mb()
        say(
            f"{label}: setup {measured.setup_s:.3f} s, stream {measured.stream_s:.3f} s "
            f"(reference seconds) for {measured.events} tuples, "
            f"{len(measured.latencies)} notifications"
        )
        check.outcome(label, measured.outcome, spec.reference(workload, input_seed))
        part = {
            "setup_s": [measured.setup_s],
            "measured_s": measured.setup_s + measured.stream_s,
            "rate_events": measured.events,
            "rate_seconds": measured.stream_s,
            "latencies": measured.latencies,
            "tuples": measured.events,
            "digest": measured.outcome.digest,
            "hops": measured.outcome.hops,
            "messages": measured.outcome.messages,
        }
    part.update(
        peak_rss_mb=peak, attempted=check.attempted, failed=check.failed, problems=check.problems
    )
    return part


def _answers(outcome: Outcome) -> tuple[frozenset, str]:
    return outcome.answers, outcome.digest


def pool(parts: list[dict], say) -> dict:
    """One run's result from its measured inputs.

    Throughput is pooled over the summed measured time, traffic over
    every tuple, printed latency percentiles over every notification;
    the set-up time is the median start-up and the peak RSS the largest.
    """
    _print_latency([x for part in parts for x in part["latencies"]], say)
    tuples = sum(part["tuples"] for part in parts)
    metrics = {
        "setup_s": statistics.median(s for part in parts for s in part["setup_s"]),
        "events_per_s": sum(p["rate_events"] for p in parts) / sum(p["rate_seconds"] for p in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "hops_per_event": sum(part["hops"] for part in parts) / tuples,
        "messages_per_event": sum(part["messages"] for part in parts) / tuples,
    }
    check = Check(
        attempted=sum(part["attempted"] for part in parts),
        failed=sum(part["failed"] for part in parts),
        problems=[problem for part in parts for problem in part["problems"]],
    )
    say(f"answer_error_ratio {check.failed / max(1, check.attempted):g} over {check.attempted} answers")
    return _result(check, metrics, say)


def _print_latency(latencies: list, say) -> None:
    """Print notification latency percentiles with their sample count.

    Latency is reported, not gated: on a shared 2-core VM the live p50
    of identical code moved from 6.9 to 12.2 ms over ten runs as the
    host's CPU steal came and went, and simulator tails swing with where
    a collector pause lands.
    """
    highest = highest_supported(len(latencies)) or 0.0
    shown = [
        f"p{q * 100:g} {percentile(latencies, q) * 1e3:.3f} ms" for q in PERCENTILES if q <= highest
    ]
    say(f"{len(latencies)} notification latencies: {', '.join(shown) or 'too few for a percentile'}")


def trace_input(name: str, input_seed: int, seed: int, say=print) -> dict:
    """Measure one input with every layer wrapped; check it against the
    reference path and write its spans.  A traced run calls this in a
    fresh process, after :func:`measure_input` measured the same input
    untraced in another, and joins the two with :func:`traced_result`."""
    PERF.disable()
    spec = WORKLOADS[name]
    workload = spec.inputs(input_seed)
    check = Check()
    label = f"traced input seed {input_seed}"
    if isinstance(spec, LiveOpen):
        with Pace() as pace:
            traced, tracer = _traced(
                lambda _: asyncio.run(spec.session(workload, input_seed, spec.setups, pace)), live=True
            )
        check.answers(label, traced.answers, traced.digest, *_answers(spec.reference(workload, input_seed)))
        _ladder_report(spec, input_seed, traced, say)
        measured_s, digest, hops = traced.ladder_s, traced.digest, traced.hops
        extra = {
            "core.tables.evicted": 0,
            "core.tables.state_entries": traced.state_entries,
            "net.codec.bytes_per_event": traced.wire_bytes / traced.tuples,
            "net.peer.frames_shed": traced.frames_shed,
            "net.cluster.inflight_peak": traced.inflight_peak,
            "net.cluster.drain_wait_pct": 100.0
            * sum(max(0.0, rung.overrun_s) for rung in traced.rungs)
            / tracer.totals[layers.ROOT][2],
        }
    else:
        with Pace() as pace:
            traced, tracer = _traced(lambda t: spec.round(workload, input_seed, pace, t))
        check.outcome(label, traced.outcome, spec.reference(workload, input_seed))
        measured_s = traced.setup_s + traced.stream_s
        digest, hops = traced.outcome.digest, traced.outcome.hops
        extra = {
            "core.tables.evicted": traced.outcome.evictions,
            "core.tables.state_entries": traced.state_entries,
            "net.codec.bytes_per_event": 0.0,
            "net.peer.frames_shed": 0,
            "net.cluster.inflight_peak": 0,
            "net.cluster.drain_wait_pct": 0.0,
        }
    return {
        "metrics": _layer_report(name, seed, tracer, extra, say),
        "measured_s": measured_s,
        "digest": digest,
        "hops": hops,
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
    }


def traced_result(name: str, untraced: dict, traced: dict, say=print) -> dict:
    """The per-layer result of a traced run from its two measurements of
    one input, each made in a fresh process: :func:`measure_input`
    (untraced) and :func:`trace_input`.

    Fails unless the traced run reproduces the untraced answers (and, in
    the simulator, its hops) and both match the reference.
    """
    check = Check(
        attempted=untraced["attempted"] + traced["attempted"],
        failed=untraced["failed"] + traced["failed"],
        problems=untraced["problems"] + traced["problems"],
    )
    check.equal("traced", "digest", traced["digest"], untraced["digest"])
    if not isinstance(WORKLOADS[name], LiveOpen):
        check.equal("traced", "hops", traced["hops"], untraced["hops"])
    metrics = dict(traced["metrics"])
    metrics["trace.traced_s"] = traced["measured_s"]
    metrics["trace.untraced_s"] = untraced["measured_s"]
    metrics["trace.overhead_s"] = traced["measured_s"] - untraced["measured_s"]
    say(
        f"traced {traced['measured_s']:.3f} s, untraced {untraced['measured_s']:.3f} s "
        f"(reference seconds, each in a fresh process)"
    )
    return _result(check, metrics, say)


def _ladder_report(spec: LiveOpen, input_seed: int, session: Session, say) -> None:
    sustained = 0.0
    for rung in session.rungs[spec.reference_rung :]:
        count = len(rung.latencies)
        q = highest_supported(count)
        if q is None:
            latency = "too few for a percentile"
        else:
            latency = (
                f"p50 {percentile(rung.latencies, 0.5) * 1e3:.2f} ms, "
                f"p{q * 100:g} {percentile(rung.latencies, q) * 1e3:.2f} ms"
            )
        meets = (
            q is not None
            and q >= 0.99
            and percentile(rung.latencies, 0.99) * 1e3 <= spec.latency_limit_ms
        )
        if meets and not rung.backlog:
            sustained = max(sustained, rung.rate)
        say(
            f"seed {input_seed} rate {rung.rate:g}/s: {rung.sent} tuples, {count} notifications, "
            f"{latency}, "
            f"gen_lag_p99 {percentile(rung.lags, 0.99) * 1e3:.2f} ms, "
            f"overrun {rung.overrun_s * 1e3:.1f} ms, delivered {rung.delivered_eps:.1f}/s, "
            f"backlog {'yes' if rung.backlog else 'no'}"
        )
    say(
        f"seed {input_seed} sustained_eps {sustained:g} (p99 <= {spec.latency_limit_ms:g} ms, "
        f"no backlog); wire_bytes_per_event {session.wire_bytes / session.tuples:.1f}; "
        f"setups {', '.join(f'{s:.4f}' for s in session.setup_s)} s"
    )


def _traced(run, live: bool = False):
    """Run ``run(tracer)`` with every layer wrapped and PERF counting."""
    tracer = Tracer(sample_every=0 if live else SPAN_SAMPLE_EVERY)
    PERF.reset()
    PERF.enable()
    tracer.install(layers.targets())
    tracer.track_gc(layers.GC)
    tracer.hook(
        sim_shard.ShardTransport, "begin", lambda _self, ts, _time: setattr(tracer, "event", ts[0])
    )
    tracer.tally(ValueLevelQueryTable, "add", "vlqt.new", lambda result: result[1])
    try:
        if live:
            with tracer.span(layers.ROOT):
                outcome = run(tracer)
        else:
            outcome = run(tracer)
    finally:
        tracer.uninstall()
        PERF.disable()
    return outcome, tracer


def _layer_report(name: str, seed: int, tracer: Tracer, extra: dict, say) -> dict:
    perf = PERF.snapshot()
    adds = tracer.totals.get("core.tables.vlqt.add", (0,))[0]
    extra["core.tables.vlqt.new_ratio"] = tracer.counters["vlqt.new"] / adds if adds else 0.0
    metrics = layers.layer_metrics(tracer.totals, perf, extra)
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{name}-seed{seed}.json"
    tracer.write(str(path), {"workload": name, "seed": seed, "perf": perf, "metrics": metrics})
    wall = tracer.totals[layers.ROOT][2]
    say(f"traced wall {wall:.3f} s; spans written to {os.path.relpath(path)}")
    ranked = sorted(tracer.totals.items(), key=lambda item: -item[1][1])
    for span, (calls, self_s, _) in ranked:
        say(f"  {span:36s} calls {calls:>9d}  self {self_s:8.3f} s  {100 * self_s / wall:5.1f}%")
    return metrics


def _result(check: Check, metrics: dict, say) -> dict:
    for problem in check.problems:
        say(f"MISMATCH {problem}")
    return {
        "correct": not check.problems and check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
