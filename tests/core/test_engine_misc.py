"""Miscellaneous engine behaviour: adoption, accounting, config."""

from dataclasses import fields

import pytest

from repro import ChordNetwork, ContinuousQueryEngine, EngineConfig
from repro.errors import QueryError
from repro.core.engine import make_algorithm
from repro.sim.messages import UnsubscribeMessage


class TestConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(QueryError):
            make_algorithm("turbo-join")

    def test_all_registered_algorithms_instantiate(self):
        from repro.core.engine import ALGORITHMS

        for name in ALGORITHMS:
            assert make_algorithm(name).name == name

    def test_unknown_strategy_rejected(self, small_network):
        with pytest.raises(QueryError):
            ContinuousQueryEngine(
                small_network, EngineConfig(index_choice="clairvoyant")
            )


class TestAdoption:
    def test_adopt_idempotent(self, engine_factory):
        engine = engine_factory()
        node = engine.network.nodes[0]
        state = engine.state(node)
        assert engine.adopt(node) is state
        assert engine.state(node) is state

    def test_nodes_adopted_on_first_delivery(self, engine_factory):
        engine = engine_factory()
        network = engine.network
        assert list(engine.adopted_states()) == []
        assert all(node.app is None for node in network)
        source, destination = network.nodes[0], network.nodes[5]
        message = UnsubscribeMessage(query_key="absent")
        target = network.router.send(source, message, destination.ident)
        assert target is destination
        assert [ident for ident, _ in engine.adopted_states()] == [target.ident]
        assert [node for node in network if node.app is not None] == [target]
        load = engine.load_snapshot()
        members = {node.ident for node in network}
        for vector in fields(load):
            column = getattr(load, vector.name)
            assert set(column) == members
            assert all(column[ident] == 0 for ident in members - {target.ident})

    def test_late_joiner_adopted_lazily(self, engine_factory):
        engine = engine_factory()
        newcomer = engine.network.join("latecomer")
        # The join handoff already attached state via the transfer hook.
        assert engine.state(newcomer) is newcomer.app


class TestTrafficAccounting:
    def test_message_types_attributed(
        self, engine_factory, two_relation_schema, simple_join_sql
    ):
        engine = engine_factory(algorithm="sai", index_choice="left")
        R = two_relation_schema.relation("R")
        S = two_relation_schema.relation("S")
        engine.subscribe(engine.network.nodes[0], simple_join_sql, two_relation_schema)
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        by_type = engine.traffic.messages_by_type
        assert by_type["query"] == 1
        # 2 tuples x 3 attributes, at both levels.
        assert by_type["al-index"] == 6
        assert by_type["vl-index"] == 6
        assert by_type["join"] >= 1
        assert by_type["notification"] == 1

    def test_daiv_skips_value_level_tuple_indexing(
        self, engine_factory, two_relation_schema
    ):
        engine = engine_factory(algorithm="dai-v")
        R = two_relation_schema.relation("R")
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        assert engine.traffic.messages_by_type.get("vl-index", 0) == 0
        assert engine.traffic.messages_by_type["al-index"] == 3

    def test_traffic_property_is_network_stats(self, engine_factory):
        engine = engine_factory()
        assert engine.traffic is engine.network.stats


class TestDeliveredBookkeeping:
    def test_delivered_rows_empty_for_unknown_query(self, engine_factory):
        engine = engine_factory()
        assert engine.delivered_rows("nope") == set()

    def test_listener_fires_once_per_identity(
        self, engine_factory, two_relation_schema, simple_join_sql
    ):
        engine = engine_factory(algorithm="sai", index_choice="left")
        R = two_relation_schema.relation("R")
        S = two_relation_schema.relation("S")
        query = engine.subscribe(
            engine.network.nodes[0], simple_join_sql, two_relation_schema
        )
        seen = []
        engine.add_notification_listener(query.key, lambda n: seen.append(n.row))
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        engine.clock.advance(1)
        # An identical S tuple: same row identity, listener must not refire.
        engine.publish(engine.network.nodes[3], S, {"D": 2, "E": 7, "F": 0})
        assert seen == [(1, 2)]

    def test_notifications_carry_query_key(
        self, engine_factory, two_relation_schema, simple_join_sql
    ):
        engine = engine_factory(algorithm="dai-t")
        R = two_relation_schema.relation("R")
        S = two_relation_schema.relation("S")
        query = engine.subscribe(
            engine.network.nodes[0], simple_join_sql, two_relation_schema
        )
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        engine.clock.advance(1)
        engine.publish(engine.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert all(
            n.query_key == query.key for n in engine.delivered[query.key]
        )


class TestMixedAlgorithmIsolation:
    def test_two_engines_on_separate_networks_do_not_interact(
        self, two_relation_schema, simple_join_sql
    ):
        first = ContinuousQueryEngine(
            ChordNetwork.build(16), EngineConfig(algorithm="sai", index_choice="left")
        )
        second = ContinuousQueryEngine(
            ChordNetwork.build(16), EngineConfig(algorithm="dai-t", index_choice="left")
        )
        R = two_relation_schema.relation("R")
        S = two_relation_schema.relation("S")
        query = first.subscribe(
            first.network.nodes[0], simple_join_sql, two_relation_schema
        )
        first.clock.advance(1)
        second.clock.advance(1)
        second.publish(second.network.nodes[1], R, {"A": 1, "B": 7, "C": 0})
        second.publish(second.network.nodes[2], S, {"D": 2, "E": 7, "F": 0})
        assert first.delivered_rows(query.key) == set()
