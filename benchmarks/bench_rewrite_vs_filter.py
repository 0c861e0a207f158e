"""Experiment A1: rewrite-then-execute vs execute-then-filter (paper §4).

The paper chooses rewriting: "by preprocessing the query we shall be able
to reduce the cost of execution as it will operate on a smaller set of
data".  Both strategies must produce the *same* privacy-processed output
(ages generalized to ranges, only consented rows disclosed):

* **rewrite-then-execute** folds the consent policy into the WHERE clause,
  so generalization and tagging run over the small disclosable set;
* **execute-then-filter** runs the raw query (plus the consent column the
  post-filter needs), privacy-processes the full intermediate, then drops
  non-disclosable rows.

Expected shape: rewrite always wins and its advantage grows as the consent
predicate becomes more selective.
"""

import time

import pytest

from repro.anonymity import interval_hierarchy
from repro.relational import Comparison, SelectQuery, Table, execute

N_ROWS = 20000
SELECTIVITIES = {"90pct": 90, "50pct": 50, "10pct": 10}

_AGE_HIERARCHY = interval_hierarchy("age", [10])


@pytest.fixture(scope="module")
def table():
    rows = [
        {"id": i, "age": 20 + i % 60, "hba1c": 60.0 + i % 30,
         "consent_bucket": i % 100}
        for i in range(N_ROWS)
    ]
    return Table.from_dicts("patients", rows)


def consent_predicate(percent):
    return Comparison("consent_bucket", "<", percent)


def base_query(extra_columns=()):
    return SelectQuery(
        "patients", columns=["age", "hba1c", *extra_columns],
        where=Comparison("age", ">", 40),
    )


def privacy_process(rows):
    """The per-row disclosure work both strategies must perform."""
    return [
        {"age": _AGE_HIERARCHY.generalize(row["age"], 1),
         "hba1c": row["hba1c"]}
        for row in rows
    ]


def rewrite_then_execute(table, percent):
    query = base_query()
    query = query.replace(where=query.where.and_(consent_predicate(percent)))
    result = execute(query, table)
    return privacy_process(result.rows_as_dicts())


def execute_then_filter(table, percent):
    raw = base_query(extra_columns=("consent_bucket",))
    interim = execute(raw, table)
    processed = privacy_process(interim.rows_as_dicts())
    return [processed[i] for i in interim.select(consent_predicate(percent))]


@pytest.mark.parametrize("label", list(SELECTIVITIES))
def test_rewrite_then_execute(benchmark, label, table):
    result = benchmark(rewrite_then_execute, table, SELECTIVITIES[label])
    assert result


@pytest.mark.parametrize("label", list(SELECTIVITIES))
def test_execute_then_filter(benchmark, label, table):
    result = benchmark(execute_then_filter, table, SELECTIVITIES[label])
    assert result


def test_strategies_agree_and_report(benchmark, report, table):
    def compare_all():
        rows = []
        for label, percent in SELECTIVITIES.items():
            start = time.perf_counter()
            rewritten = rewrite_then_execute(table, percent)
            rewrite_seconds = time.perf_counter() - start
            start = time.perf_counter()
            filtered = execute_then_filter(table, percent)
            filter_seconds = time.perf_counter() - start
            assert rewritten == filtered  # identical disclosed output
            rows.append((label, rewrite_seconds, filter_seconds))
        return rows

    rows = benchmark.pedantic(compare_all, rounds=1, iterations=1)
    report(
        f"=== A1: rewrite-then-execute vs execute-then-filter "
        f"({N_ROWS} rows) ===",
        f"{'selectivity':>12s} {'rewrite (ms)':>13s} {'filter (ms)':>12s} "
        f"{'speedup':>8s}",
    )
    speedups = {}
    for label, rewrite_seconds, filter_seconds in rows:
        speedups[label] = filter_seconds / rewrite_seconds
        report(
            f"{label:>12s} {rewrite_seconds * 1e3:13.2f} "
            f"{filter_seconds * 1e3:12.2f} {speedups[label]:7.2f}x"
        )
    assert speedups["10pct"] > 1.0
    assert speedups["10pct"] > speedups["90pct"] * 0.9
