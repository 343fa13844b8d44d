"""Tests for the opt-in perf instrumentation registry."""

from __future__ import annotations

import time

from repro.perf import PERF, PerfRegistry


class TestDisabled:
    def test_disabled_by_default(self):
        assert PerfRegistry().enabled is False

    def test_count_is_noop(self):
        registry = PerfRegistry()
        registry.count("x", 5)
        assert registry.counter("x") == 0
        assert registry.snapshot()["counters"] == {}

    def test_timer_is_shared_null_object(self):
        registry = PerfRegistry()
        first, second = registry.timer("t"), registry.timer("t")
        assert first is second  # no per-call allocation while disabled
        with first:
            pass
        assert registry.seconds("t") == 0.0
        assert registry.calls("t") == 0


class TestEnabled:
    def test_counters_accumulate(self):
        registry = PerfRegistry(enabled=True)
        registry.count("evictions")
        registry.count("evictions", 4)
        registry.count("other", 2)
        assert registry.counter("evictions") == 5
        assert registry.snapshot()["counters"] == {"evictions": 5, "other": 2}

    def test_timer_accumulates_seconds_and_calls(self):
        registry = PerfRegistry(enabled=True)
        for _ in range(3):
            with registry.timer("sleepy"):
                time.sleep(0.002)
        assert registry.calls("sleepy") == 3
        assert registry.seconds("sleepy") >= 0.006
        snap = registry.snapshot()["timers"]["sleepy"]
        assert snap["calls"] == 3
        assert snap["seconds"] == registry.seconds("sleepy")

    def test_timer_records_on_exception(self):
        registry = PerfRegistry(enabled=True)
        try:
            with registry.timer("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert registry.calls("failing") == 1

    def test_reset_clears_values_not_flag(self):
        registry = PerfRegistry(enabled=True)
        registry.count("x")
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.enabled is True
        assert registry.counter("x") == 0
        assert registry.calls("t") == 0

    def test_enable_disable_round_trip(self):
        registry = PerfRegistry()
        registry.enable()
        registry.count("x")
        registry.disable()
        registry.count("x")
        assert registry.counter("x") == 1


class TestInstrumentedSites:
    def test_eviction_and_rewrite_counters_record(self):
        from repro.bench.configs import Scale
        from repro.bench.harness import run_standard

        tiny = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=30)
        PERF.reset()
        PERF.enable()
        try:
            run_standard("dai-t", tiny, config_overrides={"window": 10.0})
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        assert counters.get("sql.rewrites", 0) > 0
        assert "vlqt.evicted" in counters
        assert counters.get("hash.parts_hit", 0) > 0

    def test_scale_counters_record(self):
        """The §14 fast-path sites: snapshot rebuilds, epochs, batches."""
        from repro.bench.configs import Scale
        from repro.bench.harness import workload_for
        from repro.chord.network import ChordNetwork
        from repro.core.engine import ContinuousQueryEngine, EngineConfig
        from repro.sim.shard import run_sharded

        tiny = Scale("tiny", n_nodes=24, n_queries=8, n_tuples=20, domain_size=30)
        workload = workload_for(tiny)
        network = ChordNetwork.build(tiny.n_nodes)
        engine = ContinuousQueryEngine(
            network, EngineConfig(algorithm="sai", index_choice="random", seed=1)
        )
        PERF.reset()
        PERF.enable()
        try:
            run_sharded(engine, workload, shards=1, batch_size=8)
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        assert counters.get("snapshot.rebuilds", 0) >= 1
        assert counters.get("shard.epochs", 0) >= tiny.n_tuples // 8
        assert counters.get("shard.batch.events", 0) == tiny.n_tuples

    def test_barrier_counters_record(self):
        """The §15 lifted-mode sites: eviction replay + owner exchange."""
        from repro.bench.configs import Scale
        from repro.bench.harness import workload_for
        from repro.bench.parallel import fork_available
        from repro.chord.network import ChordNetwork
        from repro.core.engine import ContinuousQueryEngine, EngineConfig
        from repro.sim.shard import run_sharded

        tiny = Scale("tiny", n_nodes=24, n_queries=8, n_tuples=20, domain_size=30)
        workload = workload_for(tiny)
        shards = 2 if fork_available() else 1
        network = ChordNetwork.build(tiny.n_nodes)
        engine = ContinuousQueryEngine(
            network,
            EngineConfig(
                algorithm="sai",
                index_choice="random",
                seed=1,
                window=10.0,
                replication_factor=2,
                jfrt_capacity=4,
            ),
        )
        PERF.reset()
        PERF.enable()
        try:
            result = run_sharded(
                engine, workload, shards=shards, batch_size=8, evict_every=8
            )
        finally:
            PERF.disable()
        counters = PERF.snapshot()["counters"]
        PERF.reset()
        # One eviction replay per barrier-aligned boundary + final sweep.
        expected_replays = tiny.n_queries + tiny.n_tuples
        assert counters.get("shard.evictions.replayed", 0) >= expected_replays // 8
        if shards > 1:
            assert counters.get("shard.exchange.records", 0) == (
                result.exchange_records
            )
            assert result.exchange_records > 0

    def test_scale_counters_zero_overhead_when_disabled(self):
        """Disabled registry: the same run records nothing at all."""
        from repro.bench.configs import Scale
        from repro.bench.harness import workload_for
        from repro.chord.network import ChordNetwork
        from repro.core.engine import ContinuousQueryEngine, EngineConfig
        from repro.sim.shard import run_sharded

        tiny = Scale("tiny", n_nodes=24, n_queries=8, n_tuples=20, domain_size=30)
        network = ChordNetwork.build(tiny.n_nodes)
        # The featured configuration drives the §15 sites too (barrier
        # eviction replay, owner-aware exchange) — still zero recording.
        engine = ContinuousQueryEngine(
            network,
            EngineConfig(
                algorithm="sai",
                index_choice="random",
                seed=1,
                window=10.0,
                replication_factor=2,
                jfrt_capacity=4,
            ),
        )
        assert PERF.enabled is False
        run_sharded(engine, workload_for(tiny), shards=1, batch_size=8, evict_every=8)
        assert PERF.snapshot()["counters"] == {}
        assert PERF.snapshot()["timers"] == {}

    def test_global_registry_disabled_in_tests(self):
        # REPRO_PERF is not set for the suite, so instrumented hot paths
        # must run with the zero-overhead branch.
        assert PERF.enabled is False
