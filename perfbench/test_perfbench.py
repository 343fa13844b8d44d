"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import harness  # noqa: E402
from repro.chord import ChordNetwork  # noqa: E402
from repro.core import ContinuousQueryEngine, EngineConfig  # noqa: E402
from repro.core import base as core_base  # noqa: E402
from repro.sim import shard as sim_shard  # noqa: E402
from repro.sql import rewrite  # noqa: E402
from repro.workload import WorkloadParams, build_workload  # noqa: E402

import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from measure import Pace, highest_supported  # noqa: E402
from openloop import OpenLoop, Rung, RungResult  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


# -- self-time arithmetic ------------------------------------------------


def test_self_times_subtract_direct_children_only():
    spans = [
        (1, 0, 64, "root", 0.0, 10.0),
        (2, 1, 64, "a", 1.0, 4.0),
        (3, 2, 64, "b", 2.0, 3.0),
        (4, 1, 64, "c", 5.0, 9.0),
    ]
    assert self_times(spans) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}


def test_tracer_self_time_matches_span_arithmetic():
    clock = FakeClock()
    tracer = Tracer(clock=clock, sample_every=2)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        traced_leaf()
        clock.now += 0.5
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.event = 2  # sampled
    with tracer.span("root"):
        clock.now += 0.25
        traced_middle()
    tracer.event = 3  # aggregated only
    with tracer.span("root"):
        traced_leaf()

    assert tracer.totals["leaf"] == [3, 3.0, 3.0]
    assert tracer.totals["middle"] == [1, 2.5, 4.5]
    assert tracer.totals["root"] == [2, 0.25, 5.75]
    # Only the sampled event keeps full spans, all under its index.
    assert {span[2] for span in tracer.spans} == {2}
    by_name = {}
    for span_id, self_s in self_times(tracer.spans).items():
        name = next(span[3] for span in tracer.spans if span[0] == span_id)
        by_name[name] = by_name.get(name, 0.0) + self_s
    assert by_name == {"root": 0.25, "middle": 2.5, "leaf": 2.0}


def test_garbage_collection_gets_its_own_span():
    import gc

    tracer = Tracer(sample_every=0)
    tracer.track_gc("gc")

    def allocate():
        for _ in range(2000):
            cycle = []
            cycle.append(cycle)
        gc.collect()

    try:
        with tracer.span("root"):
            tracer.wrap("allocate", allocate)()
    finally:
        tracer.uninstall()
    calls, gc_self, gc_span = tracer.totals["gc"]
    assert calls >= 1 and gc_self == gc_span > 0
    _, allocate_self, allocate_span = tracer.totals["allocate"]
    # The collection is billed to its own span, not to the caller's.
    assert allocate_self == pytest.approx(allocate_span - gc_span)
    assert tracer._gc_callback is None and tracer._stack == []


def test_tracer_records_span_when_wrapped_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.totals["boom"][0] == 1
    assert tracer._stack == []


# -- percentile support --------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (999, 0.9), (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert highest_supported(count) == expected


# -- reference seconds ---------------------------------------------------


def test_pace_scales_work_by_probe_speed_and_drops_probe_time():
    clock = FakeClock(0.0)
    slice_s = [measure.PROBE_REFERENCE_S]

    def probe():
        clock.now += slice_s[0]

    pace = Pace(clock=clock, probe=probe)
    start = pace.mark()
    for _ in range(10):
        clock.now += 0.1
        pace.tick()
    at_reference_speed = pace.mark()
    # The host slows to half speed: work and probe both take twice as long.
    slice_s[0] *= 2
    for _ in range(10):
        clock.now += 0.2
        pace.tick()
    end = pace.mark()
    assert pace.seconds(start, at_reference_speed) == pytest.approx(1.0)
    assert pace.seconds(at_reference_speed, end) == pytest.approx(1.0)
    assert end.probe_s == pytest.approx(60 * measure.PROBE_REFERENCE_S)


def test_pace_leaves_out_outlying_slices():
    clock = FakeClock(0.0)
    slowdown = {5: 20.0}

    def probe():
        clock.now += measure.PROBE_REFERENCE_S * slowdown.get(pace.slices, 1.0)

    pace = Pace(clock=clock, probe=probe)
    start = pace.mark()
    for _ in range(10):
        clock.now += 0.1
        pace.tick()
    # One slice in ten ran 20 times slower (an interrupt landed in it);
    # its time is still subtracted, but it does not set the pace.
    assert pace.seconds(start, pace.mark()) == pytest.approx(1.0)


def test_pace_refuses_an_interval_without_a_probe_slice():
    pace = Pace(clock=FakeClock(0.0))
    with pytest.raises(ValueError):
        pace.seconds(pace.mark(), pace.mark())


def test_pace_timer_runs_the_probe_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with Pace() as pace:
        start = pace.mark()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        end = pace.mark()
    assert end.slices - start.slices >= 5
    assert end.probe_s > start.probe_s
    assert pace.seconds(start, end) > 0
    assert signal.getsignal(signal.SIGALRM) is before


# -- traced against untraced ---------------------------------------------


def _part(digest="d", hops=10, measured_s=2.0):
    return {
        "metrics": {"driver.calls": 1},
        "measured_s": measured_s,
        "digest": digest,
        "hops": hops,
        "attempted": 5,
        "failed": 0,
        "problems": [],
    }


def test_traced_result_reports_overhead_and_demands_equal_answers():
    same = workloads.traced_result("sim-ring", _part(), _part(measured_s=2.5), say=lambda _: None)
    assert same["correct"]
    assert same["metrics"]["trace.overhead_s"] == pytest.approx(0.5)
    other_hops = workloads.traced_result("sim-ring", _part(), _part(hops=11), say=lambda _: None)
    assert not other_hops["correct"]
    # Live hop counts depend on delivery timing; only the answers must match.
    live = workloads.traced_result("live-open", _part(), _part(hops=11), say=lambda _: None)
    assert live["correct"]
    other_digest = workloads.traced_result("live-open", _part(), _part(digest="e"), say=lambda _: None)
    assert not other_digest["correct"]


# -- wrapper transparency ------------------------------------------------


def _run_small(staged: bool):
    workload = build_workload(WorkloadParams(n_queries=40, n_tuples=120, domain_size=30, seed=5))
    config = EngineConfig(algorithm="sai", seed=5, window=40.0, replication_factor=2, jfrt_capacity=8)
    engine = ContinuousQueryEngine(ChordNetwork.build(64, fast_routing=staged), config)
    if staged:
        result = sim_shard.run_sharded(engine, workload, shards=1, seed=5, batch_size=16)
        return result.notification_digest, result.stream_traffic.hops, result.stream_traffic.messages
    result = harness.run_workload(engine, workload, seed=5)
    return result.notification_digest(), result.stream_traffic.hops, result.stream_traffic.messages


@pytest.mark.parametrize("staged", [False, True])
def test_wrappers_change_no_answer_and_restore_originals(staged):
    originals = {
        (id(owner), attribute): vars(owner).get(attribute) for owner, attribute, _ in layers.targets()
    }
    untraced = _run_small(staged)
    tracer = Tracer(sample_every=4)
    tracer.install(layers.targets())
    tracer.hook(sim_shard.ShardTransport, "begin", lambda _self, ts, _time: setattr(tracer, "event", ts[0]))
    try:
        traced = _run_small(staged)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.totals["sql.query.rewrite"][0] > 0
    assert tracer.totals["chord.hashing.hash_parts"][0] > 0
    after = {(id(owner), attribute): vars(owner).get(attribute) for owner, attribute, _ in layers.targets()}
    assert after == originals
    assert core_base.rewrite is rewrite
    assert _run_small(staged) == untraced


# -- open-loop timing ----------------------------------------------------


class FakeCluster:
    """Answers each tuple ``service`` seconds after it was published."""

    def __init__(self, clock: FakeClock, service: float):
        self.clock = clock
        self.service = service
        self.published: list[tuple[float, object]] = []
        self.loop: OpenLoop | None = None

    def publish(self, event) -> None:
        self.published.append((self.clock.now, event))

    async def drain(self) -> None:
        finished = self.clock.now
        for sent, event in self.published:
            self.clock.now = sent + self.service
            self.loop.on_notification(
                SimpleNamespace(trigger_pub_time=event.time, match_pub_time=event.time - 0.5)
            )
            finished = max(finished, self.clock.now)
        self.clock.now = finished
        self.published.clear()


def test_latency_is_timed_from_due_time_not_send_time():
    clock = FakeClock()
    late = {3: 0.2}  # publishing tuple 3 stalls the generator 0.2 s

    async def sleep(seconds):
        clock.now += seconds

    cluster = FakeCluster(clock, service=0.010)

    def publish(event):
        cluster.publish(event)
        clock.now += late.get(int(event.time), 0.0)

    loop = OpenLoop(publish, lambda: len(cluster.published), cluster.drain, clock=clock, sleep=sleep)
    cluster.loop = loop
    events = [SimpleNamespace(time=float(i)) for i in range(8)]
    result = asyncio.run(loop.run_rung(Rung(rate=10.0, tuples=8), events))

    # The stall makes tuple 4 leave 0.1 s late; the schedule, not the
    # stall, sets every due time, so tuple 5 is on time again.
    assert result.lags == pytest.approx([0.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
    # Each answer waits its own lag plus the service time...
    assert result.latencies == pytest.approx([0.01 + lag for lag in result.lags])
    # ...which is more than the 10 ms a send-time clock would report.
    assert max(result.latencies) == pytest.approx(0.11)
    assert result.sent == 8


def test_backlog_detects_growing_depth_and_overrun():
    level = RungResult(rate=50.0, depths=[8] * 40, overrun_s=0.01)
    growing = RungResult(rate=200.0, depths=list(range(0, 400, 10)), overrun_s=0.01)
    overrun = RungResult(rate=200.0, depths=[8] * 40, overrun_s=0.5)
    assert not level.backlog
    assert growing.backlog
    assert overrun.backlog
