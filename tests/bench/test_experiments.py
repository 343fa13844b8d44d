"""Smoke tests: every experiment function runs and has the right shape.

The *quantitative* shape assertions (who wins, by what factor) live in
``benchmarks/``; here we verify that every experiment produces
well-formed rows at a tiny scale, so a refactor cannot silently break
the harness.
"""

import pytest

from repro.bench.comparison import run_t1, trace_canonical_example
from repro.bench.configs import Scale
from repro.bench.experiments import EXPERIMENTS

TINY = Scale("tiny", n_nodes=24, n_queries=12, n_tuples=40, domain_size=12)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_runs_and_is_well_formed(name):
    result = EXPERIMENTS[name](TINY)
    assert result.experiment == name
    assert result.rows, f"{name} produced no rows"
    assert result.columns
    for row in result.rows:
        for column in result.columns:
            assert column in row, f"{name}: row missing column {column!r}"
    # Rendering must not crash.
    assert name in result.to_text()
    assert result.to_markdown().startswith(f"### {name}")


class TestT1Comparison:
    def test_rows_for_all_algorithms(self):
        result = run_t1(n_nodes=32)
        assert [row["algorithm"] for row in result.rows] == [
            "sai",
            "dai-q",
            "dai-t",
            "dai-v",
        ]

    def test_every_algorithm_answers_the_example(self):
        result = run_t1(n_nodes=32)
        assert all(row["rows_delivered"] == 1 for row in result.rows)

    def test_rewriter_counts(self):
        result = run_t1(n_nodes=32)
        by_name = {row["algorithm"]: row for row in result.rows}
        assert by_name["sai"]["rewriter_copies"] == 1
        for name in ("dai-q", "dai-t", "dai-v"):
            assert by_name[name]["rewriter_copies"] == 2

    def test_dai_t_reindexes_once(self):
        trace = trace_canonical_example("dai-t", n_nodes=32)
        assert trace["join_msgs_duplicate_trigger"] == 0

    def test_others_reindex_every_trigger(self):
        for algorithm in ("sai", "dai-q", "dai-v"):
            trace = trace_canonical_example(algorithm, n_nodes=32)
            assert trace["join_msgs_duplicate_trigger"] >= 1, algorithm

    def test_value_level_storage_split(self):
        """DAI-T stores queries, not tuples; DAI-Q the reverse."""
        dai_t = trace_canonical_example("dai-t", n_nodes=32)
        assert dai_t["value_level_tuples"] == 0
        assert dai_t["value_level_queries"] > 0
        dai_q = trace_canonical_example("dai-q", n_nodes=32)
        assert dai_q["value_level_queries"] == 0
        assert dai_q["value_level_tuples"] > 0

    def test_measured_rows_pinned(self):
        """The measured columns, as counted over every ring member before
        the count moved to the adopted nodes only (64-node ring)."""
        expected = {
            "sai": (1, 1, 1, 6, 1, 1),
            "dai-q": (2, 1, 1, 6, 0, 1),
            "dai-t": (2, 1, 0, 0, 2, 1),
            "dai-v": (2, 1, 1, 2, 0, 1),
        }
        columns = (
            "rewriter_copies",
            "join_msgs_first_trigger",
            "join_msgs_duplicate_trigger",
            "value_level_tuples",
            "value_level_queries",
            "rows_delivered",
        )
        for algorithm, values in expected.items():
            row = trace_canonical_example(algorithm)
            assert row == {"algorithm": algorithm, **dict(zip(columns, values))}
