"""Latency-gated live load generator (``python -m repro.net.loadgen``).

The cluster driver (:meth:`repro.net.cluster.LiveCluster.run`) proves
*correctness*: it drains the whole cluster after every workload event,
so each event's causal cascade lands before the next fires — faithful
to the simulator, and deliberately slow.  This module measures
*throughput*: the same seeded workload is pushed through the same live
cluster **pipelined**, gated only by the in-flight credit budget, while
every delivered notification is timestamped against the wall-clock
instant its triggering tuple was published.

What it records, per algorithm:

* **notifications/sec** and events/sec over the tuple-stream phase
  (monotonic clocks, installs excluded);
* **p50/p95/p99 end-to-end latency** — tuple publish to subscriber
  notification, measured at the moment the subscriber-side handler
  records the delivery.  A join answer needs *two* tuples; latency is
  measured from the publish of the **later** one (the publish that
  completed the answer), which is the instant the system could first
  have known it;
* wire/frame/batch counters and the delivered-notification digest.

Why pipelining cannot change the answers: the digest is a *set* digest
(:func:`repro.bench.macro.notification_digest`), queries are fully
installed (and drained) before the stream starts, and every tuple
carries its own ``pub_time``, so answer identity never depends on
arrival order.  One wrinkle remains: DAI-Q and DAI-T each disable one
of the two value-level match directions to keep notifications
exactly-once (see :mod:`repro.core.dai_base`), which makes a *pair*
race possible under pipelining — both tuples' one-shot probes can
overtake the other tuple's store, and the match is found by neither
side.  The drain-per-event driver serializes publishes and never hits
this; the pipelined driver closes it the way the paper's soft-state
model does, with one anti-entropy pass (``refresh_leases`` replays the
tuples, re-probing with full duplicate suppression) after the stream
drains.  The settle is timed separately and the handful of recovered
answers is reported.  ``--compare-sim`` asserts the resulting set is
digest-identical to the simulator oracle.

There is one transport path: the outbox coalesces queued frames into
multi-frame writes with one drain per batch, pure relays forward raw
wire bytes, and the driver pipelines events up to the in-flight credit
budget.  Reports store it under the ``batched`` key.

The CI gate (``--compare``) checks every digest against the committed
``BENCH_net_seed.json`` and holds the stream wall under that file's
recorded per-frame wall (the pre-batching transport, measured when
the batching landed) plus a threshold, mirroring the macro-benchmark's
wall-drift gate.  Those walls are a fixed historical reference; A/B
timing against an earlier commit comes from the ``perfbench`` harness
(its ``live-open`` workload), not from this module.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..workload.generator import Workload, WorkloadParams, build_workload
from .cluster import ClusterConfig, LiveCluster, simulate_reference
from .loop import loop_label, maybe_install_uvloop
from .peer import NetConfig

#: Algorithms measured by the committed baseline, in presentation order.
ALGORITHMS = ("sai", "dai-q", "dai-t", "dai-v")

#: Name recorded in the JSON so unrelated baselines never compare.
BASELINE_NAME = "net-loadgen-v1"

#: Allowed fractional wall regression of the live path versus the
#: committed pre-batching wall before the gate fails.  That recorded
#: wall is ≥2x slower than the path it gates, so — exactly like the
#: macro-benchmark gate — the alarm only sounds once the entire
#: batching speedup has been eaten back, and runner-speed variance
#: alone cannot trip it.
DEFAULT_THRESHOLD = 0.25

#: Latency percentiles reported, as fractions.
PERCENTILES = (0.50, 0.95, 0.99)


@dataclass
class LoadgenConfig:
    """Shape of one load-generator run."""

    algorithm: str = "sai"
    n_nodes: int = 4
    n_queries: int = 15
    n_tuples: int = 80
    domain_size: int = 40
    #: Zipf exponent of the generated values (the WorkloadParams
    #: default, so committed baselines are unaffected).
    zipf_s: float = 0.9
    seed: int = 1
    #: Credit budget gating the pipelined driver; smaller = saner
    #: latency tails, larger = deeper pipelining.
    inflight_budget: int = 256
    quiesce_timeout: float = 60.0
    host: str = "127.0.0.1"
    engine_overrides: dict = field(default_factory=dict)

    def workload(self) -> Workload:
        return build_workload(
            WorkloadParams(
                n_queries=self.n_queries,
                n_tuples=self.n_tuples,
                domain_size=self.domain_size,
                zipf_s=self.zipf_s,
                seed=self.seed,
            )
        )

    def net_config(self) -> NetConfig:
        return NetConfig(credit_budget=self.inflight_budget)


@dataclass
class LatencySummary:
    """Wall-clock publish-to-notification latency, in milliseconds."""

    samples: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float

    @classmethod
    def of(cls, seconds: list[float]) -> "LatencySummary":
        if not seconds:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(seconds)
        p50, p95, p99 = (_percentile(ordered, q) for q in PERCENTILES)
        return cls(
            samples=len(ordered),
            p50_ms=round(p50 * 1e3, 3),
            p95_ms=round(p95 * 1e3, 3),
            p99_ms=round(p99 * 1e3, 3),
            mean_ms=round(sum(ordered) / len(ordered) * 1e3, 3),
            max_ms=round(ordered[-1] * 1e3, 3),
        )

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
        }


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile of a sorted sample."""
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass
class LoadReport:
    """One algorithm's measured run."""

    algorithm: str
    n_nodes: int
    n_queries: int
    n_tuples: int
    seed: int
    install_seconds: float
    stream_seconds: float
    settle_seconds: float
    notifications: int
    recovered_notifications: int
    notifications_per_sec: float
    events_per_sec: float
    frames_sent: int
    bytes_sent: int
    batches_sent: int
    frames_shed: int
    peak_in_flight: int
    digest: str
    latency: LatencySummary

    def as_dict(self) -> dict:
        return {
            "wall_seconds": round(self.stream_seconds, 4),
            "install_seconds": round(self.install_seconds, 4),
            "settle_seconds": round(self.settle_seconds, 4),
            "recovered_notifications": self.recovered_notifications,
            "notifications_per_sec": round(self.notifications_per_sec, 1),
            "events_per_sec": round(self.events_per_sec, 1),
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "batches_sent": self.batches_sent,
            "frames_shed": self.frames_shed,
            "peak_in_flight": self.peak_in_flight,
            "latency_ms": self.latency.as_dict(),
        }

    def to_row(self) -> dict:
        """Stable JSON-safe dict shared with the :mod:`repro.expdb`
        writer: the invariant answer-set columns under the same names
        as the simulator rows, the live-only measurements nested."""
        from ..bench.rows import ROW_VERSION

        return {
            "row_version": ROW_VERSION,
            "kind": "live",
            "notifications_delivered": self.notifications,
            "notification_digest": self.digest,
            "mode": "batched",
            "live": self.as_dict(),
        }

    def summary(self) -> str:
        lat = self.latency
        return (
            f"{self.algorithm:6s} "
            f"{self.notifications_per_sec:9.1f} notif/s  "
            f"{self.events_per_sec:8.1f} events/s  "
            f"p50 {lat.p50_ms:7.2f}ms  p95 {lat.p95_ms:7.2f}ms  "
            f"p99 {lat.p99_ms:7.2f}ms  "
            f"({self.notifications} notifications, "
            f"{self.frames_sent} frames, {self.batches_sent} batches, "
            f"{self.stream_seconds:.3f}s)"
        )


async def run_load(config: LoadgenConfig) -> LoadReport:
    """Drive one pipelined load run; returns the measured report."""
    workload = config.workload()
    cluster = LiveCluster(
        ClusterConfig(
            algorithm=config.algorithm,
            n_nodes=config.n_nodes,
            seed=config.seed,
            host=config.host,
            quiesce_timeout=config.quiesce_timeout,
            engine_overrides=dict(config.engine_overrides),
            net=config.net_config(),
        )
    )
    await cluster.start()
    try:
        return await _drive(cluster, workload, config)
    finally:
        await cluster.stop()


async def _drive(
    cluster: LiveCluster, workload: Workload, config: LoadgenConfig
) -> LoadReport:
    engine = cluster.engine
    rng = random.Random(config.seed)
    clock = time.perf_counter

    query_events = [event for event in workload if event.kind == "query"]
    tuple_events = [event for event in workload if event.kind == "tuple"]

    # Publish wall times by sim pub_time; a notification's latency is
    # measured from the *later* of its two contributing publishes.
    publish_wall: dict[float, float] = {}
    latencies: list[float] = []

    def on_notification(notification) -> None:
        started = publish_wall.get(
            max(
                notification.trigger_pub_time, notification.match_pub_time
            )
        )
        if started is not None:
            latencies.append(clock() - started)

    # -- install phase: queries land (and drain) before the stream -----
    install_start = clock()
    for event in query_events:
        await cluster.in_flight.wait_below_budget(config.quiesce_timeout)
        engine.clock.advance_to(event.time)
        origin = cluster.network.random_node(rng)
        bound = engine.subscribe(origin, event.payload)
        engine.add_notification_listener(bound.key, on_notification)
    await cluster.drain()
    install_seconds = clock() - install_start

    # -- stream phase: the measured tuple stream ------------------------
    stream_start = clock()
    for event in tuple_events:
        await cluster.in_flight.wait_below_budget(config.quiesce_timeout)
        engine.clock.advance_to(event.time)
        origin = cluster.network.random_node(rng)
        relation, values = event.payload
        publish_wall[event.time] = clock()
        engine.publish(origin, relation, values)
    await cluster.drain()
    stream_seconds = clock() - stream_start

    stream_notifications = sum(
        len(batch) for batch in engine.delivered.values()
    )

    # -- settle phase: one anti-entropy pass closes pipeline races ------
    # DAI-Q/DAI-T probe each value node exactly once per pair side, so
    # two pipelined publishes can both probe before the other's store
    # lands and the answer is created by neither.  Replaying the soft
    # state (the paper's lease/republish model) re-probes with full
    # duplicate suppression: raced pairs surface, everything else is a
    # no-op.
    settle_start = clock()
    for _, replay in engine.lease_refresh_steps():
        await cluster.in_flight.wait_below_budget(config.quiesce_timeout)
        replay()
    await cluster.drain()
    settle_seconds = clock() - settle_start

    from ..bench.macro import notification_digest

    notifications = sum(len(batch) for batch in engine.delivered.values())
    peers = cluster.peers.values()
    return LoadReport(
        algorithm=config.algorithm,
        n_nodes=config.n_nodes,
        n_queries=workload.n_queries,
        n_tuples=workload.n_tuples,
        seed=config.seed,
        install_seconds=install_seconds,
        stream_seconds=stream_seconds,
        settle_seconds=settle_seconds,
        notifications=notifications,
        recovered_notifications=notifications - stream_notifications,
        notifications_per_sec=(
            stream_notifications / stream_seconds if stream_seconds > 0 else 0.0
        ),
        events_per_sec=(
            len(tuple_events) / stream_seconds if stream_seconds > 0 else 0.0
        ),
        frames_sent=sum(peer.frames_sent for peer in peers),
        bytes_sent=sum(peer.bytes_sent for peer in peers),
        batches_sent=sum(peer.batches_sent for peer in peers),
        frames_shed=sum(peer.frames_shed for peer in peers),
        peak_in_flight=cluster.in_flight.peak,
        digest=notification_digest(engine),
        latency=LatencySummary.of(latencies),
    )


def run_load_sync(config: LoadgenConfig) -> LoadReport:
    """:func:`run_load` under ``asyncio.run`` (convenience for tests)."""
    return asyncio.run(run_load(config))


# ----------------------------------------------------------------------
# Baseline reports and the CI gate
# ----------------------------------------------------------------------

def build_report(
    point: LoadgenConfig,
    *,
    algorithms: Sequence[str] = ALGORITHMS,
    check_sim: bool = False,
    repeats: int = 1,
) -> dict:
    """Measure ``algorithms`` at one point; returns the JSON-ready
    report (the ``BENCH_net_seed.json`` shape, run stats under each
    algorithm's ``batched`` key).

    ``repeats`` runs each algorithm that many times and keeps the
    fastest stream wall — live localhost runs are noisy, and best-of-N
    measures the code, not the machine's mood (same policy as the
    micro-benchmark harness).  With ``check_sim`` every measured digest
    is additionally compared against the simulator oracle; a mismatch
    raises ``RuntimeError`` (throughput work must never change
    semantics).
    """
    entries: dict[str, dict] = {}
    for algorithm in algorithms:
        config = replace(point, algorithm=algorithm)
        report = run_load_sync(config)
        for _ in range(max(0, repeats - 1)):
            candidate = run_load_sync(config)
            if candidate.digest != report.digest:
                raise RuntimeError(
                    f"{algorithm}: repeated runs disagree on the "
                    f"notification digest — the live path is not "
                    f"deterministic"
                )
            if candidate.stream_seconds < report.stream_seconds:
                report = candidate
        entry: dict = {
            "batched": report.as_dict(),
            "notifications": report.notifications,
            "digest": report.digest,
        }
        if check_sim:
            sim_digest, sim_delivered = simulate_reference(
                point.workload(),
                algorithm=algorithm,
                n_nodes=point.n_nodes,
                seed=point.seed,
            )
            entry["sim_digest"] = sim_digest
            if sim_digest != report.digest:
                raise RuntimeError(
                    f"{algorithm}: live loadgen digest {report.digest[:12]} "
                    f"!= simulator digest {sim_digest[:12]}"
                )
            if sim_delivered != report.notifications:
                raise RuntimeError(
                    f"{algorithm}: live delivered {report.notifications} "
                    f"!= simulator {sim_delivered}"
                )
        entries[algorithm] = entry
    return {
        "name": BASELINE_NAME,
        "point": {
            "n_nodes": point.n_nodes,
            "n_queries": point.n_queries,
            "n_tuples": point.n_tuples,
            "domain_size": point.domain_size,
            "seed": point.seed,
            "inflight_budget": point.inflight_budget,
        },
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "loop": loop_label(),
        "algorithms": entries,
    }


def compare_reports(
    current: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[str]:
    """Gate ``current`` against a committed baseline; [] means green.

    Semantics gate: every algorithm's digest must match the baseline's
    exactly (the workload point and seed are pinned, so the digest is
    machine-independent).  Drift gate: the current batched wall may not
    exceed the baseline's **per-frame** wall by more than ``threshold``
    — i.e. the gate trips only once the entire batching speedup has
    regressed away, mirroring the macro-benchmark gate's headroom.
    """
    problems: list[str] = []
    if current.get("name") != baseline.get("name"):
        problems.append(
            f"benchmark mismatch: {current.get('name')!r} vs "
            f"{baseline.get('name')!r} — refusing to compare"
        )
        return problems
    if current.get("point") != baseline.get("point"):
        problems.append(
            "workload point mismatch — baselines are only comparable on "
            "the identical seeded point"
        )
        return problems
    for algorithm, base_entry in baseline.get("algorithms", {}).items():
        entry = current.get("algorithms", {}).get(algorithm)
        if entry is None:
            problems.append(f"algorithm {algorithm!r} missing from current run")
            continue
        if entry.get("digest") != base_entry.get("digest"):
            problems.append(
                f"{algorithm}: notification digest changed: "
                f"{base_entry.get('digest')!r} -> {entry.get('digest')!r} "
                f"— the live path no longer reproduces the recorded "
                f"answer set"
            )
        if entry.get("notifications") != base_entry.get("notifications"):
            problems.append(
                f"{algorithm}: delivered notification count changed: "
                f"{base_entry.get('notifications')} -> "
                f"{entry.get('notifications')}"
            )
        reference = base_entry.get("per_frame") or base_entry.get("batched")
        measured = entry.get("batched") or entry.get("per_frame")
        if not reference or not measured:
            continue
        budget = reference["wall_seconds"] * (1.0 + threshold)
        if measured["wall_seconds"] > budget:
            problems.append(
                f"{algorithm}: throughput regression: batched stream "
                f"took {measured['wall_seconds']:.3f}s > per-frame "
                f"baseline {reference['wall_seconds']:.3f}s * "
                f"(1 + {threshold:.0%}) = {budget:.3f}s"
            )
    return problems


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.loadgen",
        description="Pipelined live-cluster load generator: "
        "notifications/sec + p50/p95/p99 latency per algorithm, with "
        "an optional digest/throughput gate against a committed "
        "baseline (BENCH_net_seed.json).",
    )
    parser.add_argument(
        "--algorithms",
        default="all",
        help="comma-separated subset of sai,dai-q,dai-t,dai-v or 'all'",
    )
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--domain-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--inflight-budget",
        type=int,
        default=None,
        help="credit budget gating the pipelined driver (default 256)",
    )
    parser.add_argument(
        "--compare-sim",
        action="store_true",
        help="fail unless every live digest matches the simulator's",
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="PATH",
        help="gate digests and throughput drift against a committed "
        "baseline JSON; its recorded point supplies any unset "
        "point parameters",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional wall drift vs the baseline's recorded "
        "pre-batching wall (default 0.25)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH", help="write the report JSON"
    )
    parser.add_argument(
        "--uvloop",
        action="store_true",
        help="use uvloop if installed (falls back to asyncio silently)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="best-of-N stream walls per algorithm "
        "(default 1; baseline generation should use 3+)",
    )
    parser.add_argument("--json", action="store_true", help="print raw JSON")
    args = parser.parse_args(argv)

    maybe_install_uvloop(True if args.uvloop else None)

    baseline = None
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    defaults = LoadgenConfig()
    base_point = (baseline or {}).get("point", {})

    def pick(cli_value, key, fallback):
        if cli_value is not None:
            return cli_value
        if key in base_point:
            return base_point[key]
        return fallback

    point = LoadgenConfig(
        n_nodes=pick(args.nodes, "n_nodes", defaults.n_nodes),
        n_queries=pick(args.queries, "n_queries", defaults.n_queries),
        n_tuples=pick(args.tuples, "n_tuples", defaults.n_tuples),
        domain_size=pick(
            args.domain_size, "domain_size", defaults.domain_size
        ),
        seed=pick(args.seed, "seed", defaults.seed),
        inflight_budget=pick(
            args.inflight_budget, "inflight_budget", defaults.inflight_budget
        ),
    )

    if args.algorithms.strip().lower() == "all":
        algorithms: Sequence[str] = ALGORITHMS
    else:
        algorithms = tuple(
            name.strip() for name in args.algorithms.split(",") if name.strip()
        )
        unknown = set(algorithms) - set(ALGORITHMS)
        if unknown:
            parser.error(f"unknown algorithm(s): {sorted(unknown)}")

    try:
        report = build_report(
            point,
            algorithms=algorithms,
            check_sim=args.compare_sim,
            repeats=max(1, args.repeats),
        )
    except RuntimeError as exc:
        print(f"LOADGEN FAIL: {exc}", file=sys.stderr)
        return 1

    rendered = json.dumps(report, indent=2, sort_keys=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if args.json:
        print(rendered)
    else:
        for algorithm, entry in report["algorithms"].items():
            stats = entry["batched"]
            lat = stats["latency_ms"]
            print(
                f"{algorithm:6s} "
                f"{stats['notifications_per_sec']:9.1f} notif/s  "
                f"p50 {lat['p50_ms']:7.2f}ms  "
                f"p95 {lat['p95_ms']:7.2f}ms  "
                f"p99 {lat['p99_ms']:7.2f}ms  "
                f"({stats['wall_seconds']:.3f}s stream, "
                f"{stats['frames_sent']} frames, "
                f"{stats['batches_sent']} batches)"
            )

    if baseline is not None:
        problems = compare_reports(report, baseline, args.threshold)
        if problems:
            for problem in problems:
                print(f"NET PERF GATE FAIL: {problem}", file=sys.stderr)
            return 1
        print(
            "net perf gate: OK (digests identical, wall within budget)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
