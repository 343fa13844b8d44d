"""Large-scale sweep points through the sharded simulator, with a gate.

The E14 scaling study tops out where the serial simulator becomes the
bottleneck.  This benchmark pushes the network-size axis into the
10^5-node range by combining the three scaling mechanisms of
DESIGN.md §14:

* snapshot routing (:class:`~repro.chord.snapshot.RingSnapshot`, taken
  by every exact ring, with finger tables and engine state built on
  demand),
* streaming workload generation (:func:`iter_workload_events`), and
* sharded staged execution of the stream (:func:`repro.sim.shard.run_sharded`).

Two modes:

``python -m repro.bench.scale --verify``
    Differential check at a small ring: the staged executor —
    in-process *and* forked — must produce **bit-identical** simulated
    metrics (hops, messages, per-type traffic, notification digest,
    eviction counts) to the serial
    :func:`~repro.bench.harness.run_standard` reference for all four
    algorithms, in **two configurations**: the stripped engine, and
    the full feature set (sliding window + replication + JFRT)
    exercising the lifted sharded modes of DESIGN.md §15.  Exits
    non-zero on any difference.

``python -m repro.bench.scale --nodes 100000 [--output/--compare]``
    Run one sweep point and (optionally) gate it against a committed
    baseline, mirroring :mod:`repro.bench.macro`: simulated metrics
    must match exactly, wall-clock may drift at most ``--threshold``.
    ``--window/--replication/--jfrt/--evict-every`` compose with the
    scale axes; every report carries a ``resources`` section (peak
    RSS via ``getrusage`` — self *and* forked children — plus
    events/sec and cross-shard exchange records) next to the
    simulated metrics.  ``--append-extra BENCH_sim_scale.json``
    records a one-off large point under the baseline's
    ``extra_points`` list, which the CI gate ignores (EXPERIMENTS
    X3 documents the committed 10^6-node point).

Shard count follows ``REPRO_BENCH_PROCS`` (see
:mod:`repro.bench.parallel`); ``--shards`` overrides it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from typing import Optional, Sequence

from ..chord.hashing import hash_key_cache_clear
from ..chord.network import ChordNetwork
from ..core.engine import ContinuousQueryEngine, EngineConfig
from ..sim.shard import ShardRunResult, run_sharded
from ..workload.generator import iter_workload_events
from ..workload.schema_gen import synthetic_schema
from .configs import Scale
from .harness import run_standard, workload_for, workload_params_for
from .macro import (
    DEFAULT_THRESHOLD,
    HEADLINE_ALGORITHMS,
    compare_reports,
    speedup_versus,
)
from .rows import SCALE_METRIC_FIELDS, metric_summary
from .parallel import configured_processes, fork_available

#: Name recorded in the JSON so unrelated baselines never compare.
SCALE_BENCH_NAME = "sim-scale-point"

#: Default sweep point: large enough that the serial simulator hurts,
#: small enough for a CI smoke job.
DEFAULT_NODES = 20_000

#: Ring size of the ``--verify`` differential check.
VERIFY_NODES = 512

#: Events per staged epoch (driver → workers → barrier → repeat).
DEFAULT_BATCH_SIZE = 512

#: Serial eviction schedule (events per sweep), matching
#: :func:`repro.bench.harness.run_workload`.
DEFAULT_EVICT_EVERY = 64

#: The ``--verify`` configuration exercising every lifted mode at once:
#: sliding window + replicated rewriters + JFRT (see
#: :func:`repro.sim.shard.shard_capabilities`).
VERIFY_FEATURED = {"window": 240.0, "replication_factor": 2, "jfrt_capacity": 8}


def peak_rss_kb() -> int:
    """Lifetime peak resident set size of this process tree, in KiB.

    ``getrusage`` is zero-dependency and monotone: the max of SELF and
    CHILDREN covers both in-process and forked shard runs.  Linux
    reports ``ru_maxrss`` in KiB; macOS reports bytes.
    """
    self_max = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_max = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak = max(self_max, children_max)
    if sys.platform == "darwin":  # pragma: no cover - platform dependent
        peak //= 1024
    return peak


def scale_point(
    n_nodes: int,
    n_queries: int = 400,
    n_tuples: int = 800,
    domain_size: int = 900,
    zipf_s: float = 0.75,
) -> Scale:
    """A sweep point: the network-size axis moves, the workload holds.

    Keeping the workload fixed isolates what the large rings cost
    (longer routes, bigger build) from what more work costs — the same
    shape as E14's network-size sweep.
    """
    return Scale(
        name=f"scale-{n_nodes}",
        n_nodes=n_nodes,
        n_queries=n_queries,
        n_tuples=n_tuples,
        domain_size=domain_size,
        zipf_s=zipf_s,
    )


def default_shards() -> int:
    """Shard count from ``REPRO_BENCH_PROCS`` (1 = staged in-process)."""
    if not fork_available():  # pragma: no cover - platform dependent
        return 1
    return configured_processes(os.cpu_count() or 1)


def _result_metrics(result: ShardRunResult) -> dict:
    """The invariant-metrics dict, in macro-benchmark vocabulary."""
    return metric_summary(result.to_row(), SCALE_METRIC_FIELDS)


def run_scale_point(
    algorithm: str,
    point: Scale,
    *,
    seed: int = 1,
    shards: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    config_overrides: Optional[dict] = None,
    evict_every: int = DEFAULT_EVICT_EVERY,
) -> dict:
    """One algorithm at one sweep point through the full fast path.

    Wall-clock covers everything a bigger ring makes slower — network
    build, query install, sharded stream — reported per phase.
    ``config_overrides`` opens the lifted modes (``window``,
    ``replication_factor``, ``jfrt_capacity``); peak RSS and events/sec
    ride along as *resource* columns, deliberately outside the
    bit-compared metrics (they are machine-dependent).
    """
    if shards is None:
        shards = default_shards()
    params = workload_params_for(point)
    schema = synthetic_schema(params.n_relations, params.attributes_per_relation)
    start = time.perf_counter()
    network = ChordNetwork.build(point.n_nodes)
    built = time.perf_counter()
    engine = ContinuousQueryEngine(
        network,
        EngineConfig(
            algorithm=algorithm,
            index_choice="random",
            seed=seed,
            **dict(config_overrides or {}),
        ),
    )
    result = run_sharded(
        engine,
        iter_workload_events(params, schema),
        shards=shards,
        batch_size=batch_size,
        seed=seed,
        evict_every=evict_every,
    )
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        "build_seconds": built - start,
        "shards": result.shards,
        "metrics": _result_metrics(result),
        "row": result.to_row(),
        "resources": {
            "peak_rss_kb": peak_rss_kb(),
            "events_per_sec": round(result.events / wall, 1) if wall else 0.0,
            "exchange_records": result.exchange_records,
        },
        "features": list(result.features),
    }


def run_scale(
    point: Scale,
    *,
    algorithms: Sequence[str] = HEADLINE_ALGORITHMS,
    seed: int = 1,
    repeats: int = 1,
    shards: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    config_overrides: Optional[dict] = None,
    evict_every: int = DEFAULT_EVICT_EVERY,
) -> dict:
    """Run the sweep point for every algorithm; returns the report dict.

    Repeats keep the minimum wall-clock but must agree on the simulated
    metrics, as in :func:`repro.bench.macro.run_macro`.  The engine
    feature knobs are recorded in the report's ``point`` so a baseline
    generated under one configuration can never silently gate another;
    the ``resources`` section (peak RSS, events/sec) is informational
    and excluded from the exact compare.
    """
    overrides = dict(config_overrides or {})
    per_algorithm: dict[str, dict] = {}
    for algorithm in algorithms:
        hash_key_cache_clear()
        best: Optional[dict] = None
        for _ in range(max(1, repeats)):
            sample = run_scale_point(
                algorithm,
                point,
                seed=seed,
                shards=shards,
                batch_size=batch_size,
                config_overrides=overrides,
                evict_every=evict_every,
            )
            if best is None:
                best = sample
            else:
                if sample["metrics"] != best["metrics"]:
                    raise RuntimeError(
                        f"scale benchmark is non-deterministic for "
                        f"{algorithm!r}: repeated runs disagree"
                    )
                if sample["wall_seconds"] < best["wall_seconds"]:
                    best["wall_seconds"] = sample["wall_seconds"]
                    best["build_seconds"] = sample["build_seconds"]
                    best["resources"] = sample["resources"]
            hash_key_cache_clear()
        per_algorithm[algorithm] = best
    total_wall = sum(entry["wall_seconds"] for entry in per_algorithm.values())
    features = next(iter(per_algorithm.values()))["features"] if per_algorithm else []
    return {
        "name": SCALE_BENCH_NAME,
        "point": {
            "n_nodes": point.n_nodes,
            "n_queries": point.n_queries,
            "n_tuples": point.n_tuples,
            "domain_size": point.domain_size,
            "zipf_s": point.zipf_s,
            "batch_size": batch_size,
            "window": overrides.get("window"),
            "replication_factor": overrides.get("replication_factor", 1),
            "jfrt_capacity": overrides.get("jfrt_capacity", 0),
            "evict_every": evict_every,
        },
        "seed": seed,
        "features": features,
        "shards": {name: entry["shards"] for name, entry in per_algorithm.items()},
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "wall_seconds": {
            **{
                name: round(entry["wall_seconds"], 4)
                for name, entry in per_algorithm.items()
            },
            "total": round(total_wall, 4),
        },
        "resources": {
            name: entry["resources"] for name, entry in per_algorithm.items()
        },
        "metrics": {name: entry["metrics"] for name, entry in per_algorithm.items()},
    }


def verify_equivalence(
    *,
    n_nodes: int = VERIFY_NODES,
    algorithms: Sequence[str] = HEADLINE_ALGORITHMS,
    seed: int = 1,
    batch_size: int = 64,
    config_overrides: Optional[dict] = None,
    evict_every: int = DEFAULT_EVICT_EVERY,
) -> list[str]:
    """Differential check: fast path ≡ serial reference, bit for bit.

    For each algorithm the identical seeded workload is replayed three
    ways — serial :func:`run_standard`, staged in-process, staged over
    forked shards — and every simulated metric must agree, including
    the sliding-window eviction count when ``config_overrides`` opens a
    window.  Returns failure messages (empty = equivalent).
    """
    overrides = dict(config_overrides or {})
    point = scale_point(n_nodes)
    workload = workload_for(point)
    problems: list[str] = []
    for algorithm in algorithms:
        reference = run_standard(
            algorithm,
            point,
            config_overrides={"index_choice": "random", **overrides},
            workload=workload,
            seed=seed,
            evict_every=evict_every,
        )
        expected = metric_summary(reference.to_row(), SCALE_METRIC_FIELDS)
        modes = [("staged", 1)]
        if fork_available():
            modes.append(("forked", 4))
        for label, shards in modes:
            network = ChordNetwork.build(point.n_nodes)
            engine = ContinuousQueryEngine(
                network,
                EngineConfig(
                    algorithm=algorithm, index_choice="random", seed=seed, **overrides
                ),
            )
            result = run_sharded(
                engine,
                workload,
                shards=shards,
                batch_size=batch_size,
                seed=seed,
                evict_every=evict_every,
            )
            got = _result_metrics(result)
            for metric in expected:
                if got[metric] != expected[metric]:
                    problems.append(
                        f"{algorithm}/{label}: {metric} diverged: "
                        f"serial {expected[metric]!r} != fast {got[metric]!r}"
                    )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.scale",
        description="Large-scale sweep point through the sharded simulator.",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=f"differential check vs the serial simulator at {VERIFY_NODES} nodes",
    )
    parser.add_argument(
        "--nodes", type=int, default=DEFAULT_NODES, help="ring size of the point"
    )
    parser.add_argument("--queries", type=int, default=400)
    parser.add_argument("--tuples", type=int, default=800)
    parser.add_argument(
        "--domain", type=int, default=900, help="join-value domain size"
    )
    parser.add_argument(
        "--window",
        type=float,
        default=None,
        help="sliding window (simulated time units; default unbounded)",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=1,
        help="attribute-level replication factor (paper §4.7)",
    )
    parser.add_argument(
        "--jfrt",
        type=int,
        default=0,
        help="JFRT cache capacity per rewriter (0 = disabled)",
    )
    parser.add_argument(
        "--evict-every",
        type=int,
        default=DEFAULT_EVICT_EVERY,
        help="events per barrier-aligned eviction sweep (windowed runs)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard workers (default: REPRO_BENCH_PROCS; 1 = in-process)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=DEFAULT_BATCH_SIZE,
        help="stream events per staged epoch",
    )
    parser.add_argument(
        "--algorithms",
        default=",".join(HEADLINE_ALGORITHMS),
        help="comma-separated algorithm subset",
    )
    parser.add_argument(
        "--output", default=None, help="write the JSON report to this path"
    )
    parser.add_argument(
        "--compare",
        default=None,
        help="gate against a committed baseline JSON (e.g. BENCH_sim_scale.json)",
    )
    parser.add_argument(
        "--append-extra",
        default=None,
        metavar="PATH",
        help=(
            "record this run under the named baseline's 'extra_points' "
            "list (replacing an entry with the same point), so committed "
            "sweeps can carry large one-off points the CI gate ignores"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional wall-clock regression (default 0.25)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, help="timing repeats (min is kept)"
    )
    parser.add_argument("--seed", type=int, default=1, help="workload/engine seed")
    args = parser.parse_args(argv)
    algorithms = tuple(name for name in args.algorithms.split(",") if name)

    if args.verify:
        configurations = [
            ("stripped", {}),
            ("windowed+replicated+jfrt", dict(VERIFY_FEATURED)),
        ]
        for label, overrides in configurations:
            problems = verify_equivalence(
                algorithms=algorithms, seed=args.seed, config_overrides=overrides
            )
            if problems:
                for problem in problems:
                    print(f"VERIFY FAIL [{label}]: {problem}", file=sys.stderr)
                return 1
            print(
                f"verify[{label}]: OK — staged/forked metrics identical to "
                f"serial at {VERIFY_NODES} nodes ({', '.join(algorithms)})",
                file=sys.stderr,
            )
        return 0

    config_overrides = {}
    if args.window is not None:
        config_overrides["window"] = args.window
    if args.replication != 1:
        config_overrides["replication_factor"] = args.replication
    if args.jfrt != 0:
        config_overrides["jfrt_capacity"] = args.jfrt
    point = scale_point(
        args.nodes,
        n_queries=args.queries,
        n_tuples=args.tuples,
        domain_size=args.domain,
    )
    report = run_scale(
        point,
        algorithms=algorithms,
        seed=args.seed,
        repeats=args.repeats,
        shards=args.shards,
        batch_size=args.batch_size,
        config_overrides=config_overrides,
        evict_every=args.evict_every,
    )
    rendered = json.dumps(report, indent=2, sort_keys=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(rendered)

    if args.append_extra:
        with open(args.append_extra, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        extra = baseline.setdefault("extra_points", [])
        extra[:] = [entry for entry in extra if entry.get("point") != report["point"]]
        extra.append(report)
        with open(args.append_extra, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(baseline, indent=2, sort_keys=False) + "\n")
        print(f"appended extra point to {args.append_extra}", file=sys.stderr)

    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_reports(report, baseline, args.threshold)
        ratio = speedup_versus(report, baseline)
        if ratio is not None:
            print(
                f"wall-clock: {report['wall_seconds']['total']:.3f}s vs "
                f"baseline {baseline['wall_seconds']['total']:.3f}s "
                f"({ratio:.2f}x)",
                file=sys.stderr,
            )
        if problems:
            for problem in problems:
                print(f"SCALE GATE FAIL: {problem}", file=sys.stderr)
            return 1
        print(
            "scale gate: OK (metrics identical, wall within threshold)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
