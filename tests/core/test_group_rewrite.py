"""Group-level rewriting equals per-query rewriting (Section 4.3.5).

``Algorithm._rewrite_group`` binds one trigger tuple to a query group
once (required value, dis value, evaluator identifier, shared select
tuples) and then rewrites each query against that binding.  The
reference below is the per-query loop it replaced: every query is
checked, rewritten on its own with :func:`rewrite` and placed with
:meth:`evaluator_ident`.  Both must produce the same rewritten queries,
in the same evaluator batches, in the same order, and remember the same
keys as sent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chord import ChordNetwork
from repro.core import ContinuousQueryEngine, EngineConfig
from repro.core.tables import QueryGroup, StoredQuery
from repro.errors import QueryError
from repro.sql.parser import parse_query
from repro.sql.query import LEFT, RIGHT, Subscriber, TriggerBinding, rewrite
from repro.sql.schema import Relation
from repro.sql.tuples import DataTuple

R = Relation("R", ("A", "B", "C"))
S = Relation("S", ("D", "E", "F"))
SUB = Subscriber("sub", 7, "10.0.0.7")

#: Join conditions with R on the left; the mirrored text (with ``FROM
#: S, R``) puts R on the right, so one group can hold both index labels
#: for an R trigger.
CONDITIONS = {
    "T1": ("R.B = S.E", "S.E = R.B"),
    "linear": ("2 * R.B + 1 = S.E - 3", "S.E - 3 = 2 * R.B + 1"),
    "scaled": ("R.B = 2 * S.E + 1", "2 * S.E + 1 = R.B"),
    # Type T2 (DAI-V only): the dis side is not invertible.
    "T2": ("R.B + R.C = S.E + S.F", "S.E + S.F = R.B + R.C"),
}
SELECTS = ("R.A, S.D", "S.D, R.A", "S.D, R.A, R.C", "R.A", "S.F", "R.C, R.A", "R.A, R.C")
#: (algorithm, keyed DAI-V, windowed): DAI-T remembers sent keys only
#: without a window, and keyed DAI-V places every query on its own.
CONFIGS = [
    (algorithm, keyed, windowed)
    for algorithm in ("sai", "dai-q", "dai-t", "dai-v")
    for keyed in ((False, True) if algorithm == "dai-v" else (False,))
    for windowed in (False, True)
]

small = st.integers(min_value=0, max_value=3)
entry_spec = st.fixed_dictionaries(
    {
        "select": st.sampled_from(SELECTS),
        "mirrored": st.booleans(),
        "r_filter": st.one_of(st.none(), small),
        "s_filter": st.one_of(st.none(), small),
        "insertion_time": st.sampled_from([0.0, 4.0, 5.0, 9.0]),
        "key": st.integers(min_value=0, max_value=5),
    }
)
trigger = st.tuples(small, small, small, st.sampled_from([3.0, 5.0, 8.0]))


def _query(condition: str, spec: dict):
    left, right = CONDITIONS[condition]
    where = right if spec["mirrored"] else left
    if spec["r_filter"] is not None:
        where += f" AND R.C = {spec['r_filter']}"
    if spec["s_filter"] is not None:
        where += f" AND S.F = {spec['s_filter']}"
    relations = "S, R" if spec["mirrored"] else "R, S"
    query = parse_query(f"SELECT {spec['select']} FROM {relations} WHERE {where}")
    return query.with_subscription(f"q{spec['key']}", spec["insertion_time"], SUB)


def _group(condition: str, specs: list[dict]) -> QueryGroup:
    group = QueryGroup("sig")
    for spec in specs:
        label = RIGHT if spec["mirrored"] else LEFT
        group.entries.append(StoredQuery(_query(condition, spec), label, 0))
    return group


def _per_query_reference(engine, group, tup, sent: set, force_resend: bool):
    """The per-query loop: ``rewrite()`` and ``evaluator_ident()`` per entry."""
    algorithm = engine.algorithm
    remembers = algorithm.remembers_sent_keys(engine)
    batches: dict[int, list] = {}
    sent_keys, seen = [], set()
    for entry in group.entries:
        query = entry.query
        if tup.pub_time < query.insertion_time:
            continue
        if not query.side(entry.index_label).accepts(tup):
            continue
        rewritten = rewrite(query, entry.index_label, tup)
        if rewritten.key in seen:
            continue
        seen.add(rewritten.key)
        if remembers and not force_resend and rewritten.key in sent:
            continue
        batches.setdefault(algorithm.evaluator_ident(engine, rewritten), []).append(rewritten)
        sent_keys.append(rewritten.key)
    return batches, (sent_keys if remembers else [])


def _fields(ident: int, rewritten) -> tuple:
    return (
        rewritten.key,
        ident,
        rewritten.original_key,
        rewritten.relation,
        rewritten.dis_attribute,
        repr(rewritten.dis_value),
        repr(rewritten.required_value),
        repr(rewritten.select),
        rewritten.filters,
        rewritten.insertion_time,
        rewritten.trigger_pub_time,
    )


def _flatten(batches: dict) -> list:
    return [
        (ident, [_fields(ident, rewritten) for rewritten in rewritten_list])
        for ident, rewritten_list in batches.items()
    ]


@pytest.mark.parametrize("algorithm,keyed,windowed", CONFIGS)
@settings(max_examples=60, deadline=None)
@given(
    condition=st.sampled_from(sorted(CONDITIONS)),
    specs=st.lists(entry_spec, min_size=1, max_size=8),
    triggers=st.lists(st.tuples(trigger, st.booleans()), min_size=1, max_size=3),
)
def test_group_rewrite_equals_per_query_rewrite(
    algorithm, keyed, windowed, condition, specs, triggers
):
    if condition == "T2" and algorithm != "dai-v":
        return  # T2 queries are DAI-V's alone
    network = ChordNetwork.build(8)
    config = EngineConfig(
        algorithm=algorithm, daiv_keyed=keyed, window=10.0 if windowed else None
    )
    engine = ContinuousQueryEngine(network, config)
    state = engine.state(network.nodes[0])
    group = _group(condition, specs)
    reference_sent: set[str] = set()
    # The first trigger comes back last: DAI-T's memory must suppress
    # every key it already sent, unless the replay forces a resend.
    for (a, b, c, pub), force_resend in triggers + [(triggers[0][0], False)]:
        tup = DataTuple(R, (a, b, c), pub)
        expected, expected_keys = _per_query_reference(
            engine, group, tup, reference_sent, force_resend
        )
        batches: dict = {}
        keys = engine.algorithm._rewrite_group(
            engine, state, group, tup, batches, force_resend=force_resend
        )
        assert _flatten({ident: pair[0] for ident, pair in batches.items()}) == _flatten(expected)
        assert keys == expected_keys
        if algorithm == "dai-v":
            assert all(len(pair[1]) == len(pair[0]) for pair in batches.values())
        # on_al_index remembers what was sent (DAI-T, unbounded window).
        group.sent_rewritten_keys.update(keys)
        reference_sent.update(expected_keys)


def _plain(key: int, select: str, **overrides) -> dict:
    spec = {
        "select": select,
        "mirrored": False,
        "r_filter": None,
        "s_filter": None,
        "insertion_time": 0.0,
        "key": key,
    }
    spec.update(overrides)
    return spec


def test_binding_shares_select_tuples_between_equal_select_lists():
    tup = DataTuple(R, (1, 2, 3), 5.0)
    first = _query("T1", _plain(1, "R.A, S.D"))
    second = _query("T1", _plain(2, "R.A, S.D", s_filter=2))
    other = _query("T1", _plain(3, "R.C, R.A"))
    binding = TriggerBinding(first, LEFT, tup)
    a, b, c = (rewrite(q, LEFT, tup, binding) for q in (first, second, other))
    assert a.select is b.select
    assert a.select is not c.select
    assert (a.key, b.key, c.key) == ("q1+1+2", "q2+1+2", "q3+3+1+2")
    alone = [rewrite(q, LEFT, tup).key for q in (first, second, other)]
    assert [r.key for r in (a, b, c)] == alone


def test_binding_rejects_a_tuple_of_the_wrong_relation():
    query = _query("T1", _plain(0, "R.A"))
    with pytest.raises(QueryError):
        TriggerBinding(query, LEFT, DataTuple(S, (1, 2, 3), 0.0))
