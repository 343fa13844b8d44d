"""Load-generator correctness: pipelining must never change answers.

The pipelined driver removes the per-event drain, so DAI-Q/DAI-T pair
races become possible (both one-shot probes overtake the other tuple's
store); the settle pass — a paced soft-state replay — must close them.
These tests pin the whole contract on a small point: the live path
produces the simulator's exact notification set, the raw relay and the
decoded relay it bypasses agree, the committed gate's wall budget is
unchanged, and the engine's stepwise lease refresh is equivalent to the
one-shot form.
"""

import asyncio
import copy
import json
from pathlib import Path

from repro.bench.harness import run_workload
from repro.bench.macro import notification_digest
from repro.chord.network import ChordNetwork
from repro.core.engine import ContinuousQueryEngine, EngineConfig
from repro.faults.plan import FaultPlan
from repro.net.chaos import LiveChaos
from repro.net.cluster import ClusterConfig, LiveCluster, simulate_reference
from repro.net.loadgen import (
    DEFAULT_THRESHOLD,
    LoadgenConfig,
    build_report,
    compare_reports,
)
from repro.perf import PERF
from repro.workload.generator import WorkloadParams, build_workload

POINT = LoadgenConfig(n_nodes=6, n_queries=8, n_tuples=48, domain_size=16, seed=3)

NET_BASELINE = Path(__file__).resolve().parents[2] / "BENCH_net_seed.json"


def test_live_path_matches_simulator():
    # build_report itself raises on any digest disagreement: between
    # repeated runs and against the simulator oracle.
    report = build_report(POINT, algorithms=("dai-t",), check_sim=True)
    entry = report["algorithms"]["dai-t"]
    assert entry["digest"] == entry["sim_digest"]
    assert entry["batched"]["batches_sent"] > 0
    # The settle pass may legitimately recover nothing at this size,
    # but must never *lose* notifications.
    assert entry["batched"]["recovered_notifications"] >= 0
    assert entry["batched"]["settle_seconds"] >= 0.0

    # The report gates green against itself.
    assert compare_reports(report, report) == []

    # ... and trips loudly when the recorded answers change.
    tampered = {
        **report,
        "algorithms": {
            "dai-t": {**entry, "digest": "0" * 40, "notifications": 1}
        },
    }
    problems = compare_reports(report, tampered)
    assert any("digest changed" in problem for problem in problems)


def test_committed_wall_budget_gates_the_live_path():
    """The wall half of the ``net-perf-smoke`` gate: the live stream
    wall is held to the committed pre-batching (``per_frame``) wall
    times (1 + threshold), read straight from BENCH_net_seed.json."""
    baseline = json.loads(NET_BASELINE.read_text())
    algorithm = "sai"
    budget = baseline["algorithms"][algorithm]["per_frame"]["wall_seconds"] * (
        1.0 + DEFAULT_THRESHOLD
    )

    def current_with_wall(wall: float) -> dict:
        current = copy.deepcopy(baseline)
        for entry in current["algorithms"].values():
            entry.pop("per_frame")
            entry.pop("batched_speedup")
        current["algorithms"][algorithm]["batched"]["wall_seconds"] = wall
        return current

    assert compare_reports(current_with_wall(budget * 0.999), baseline) == []
    problems = compare_reports(current_with_wall(budget * 1.001), baseline)
    assert len(problems) == 1
    assert problems[0].startswith(f"{algorithm}: throughput regression")


def test_raw_relay_is_digest_neutral():
    """The zero-copy relay is the default path and forwards original
    bytes; a zero-fault chaos layer forces the decoded relay instead,
    and both must deliver the simulator's answer set."""
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=30, domain_size=12, seed=5)
    )

    async def run_with(chaos):
        cluster = LiveCluster(
            ClusterConfig(algorithm="sai", n_nodes=6, seed=5)
        )
        if chaos is not None:
            cluster.install_chaos(chaos)
        await cluster.start()
        try:
            report = await cluster.run(workload)
        finally:
            await cluster.stop()
        return report.notification_digest

    def digest_and_counters(chaos) -> tuple[str, dict]:
        PERF.reset()
        PERF.enable()
        try:
            digest = asyncio.run(run_with(chaos))
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        return digest, counters

    raw, raw_counters = digest_and_counters(None)
    assert raw == simulate_reference(
        workload, algorithm="sai", n_nodes=6, seed=5
    )[0]
    assert raw_counters.get("net.frames_relayed_raw", 0) > 0

    decoded, decoded_counters = digest_and_counters(LiveChaos(FaultPlan()))
    assert decoded == raw
    assert decoded_counters.get("net.frames_relayed_raw", 0) == 0


def _sim_engine():
    workload = build_workload(
        WorkloadParams(n_queries=6, n_tuples=30, domain_size=12, seed=9)
    )
    engine = ContinuousQueryEngine(
        ChordNetwork.build(8), EngineConfig(algorithm="dai-q", seed=9)
    )
    run_workload(engine, workload, seed=9)
    return engine


def test_stepwise_lease_refresh_equals_one_shot():
    one_shot = _sim_engine()
    counts = one_shot.refresh_leases()

    stepwise = _sim_engine()
    kinds = []
    for kind, replay in stepwise.lease_refresh_steps():
        kinds.append(kind)
        replay()

    assert counts == {
        "queries": kinds.count("query"),
        "tuples": kinds.count("tuple"),
    }
    assert notification_digest(stepwise) == notification_digest(one_shot)


def test_lease_refresh_is_idempotent_on_answers():
    engine = _sim_engine()
    before = notification_digest(engine)
    delivered_before = sum(len(b) for b in engine.delivered.values())
    engine.refresh_leases()
    assert notification_digest(engine) == before
    assert sum(len(b) for b in engine.delivered.values()) == delivered_before
    assert engine.duplicate_deliveries == 0
