"""Experiment A2: feature-based cluster matching vs execute-and-analyze.

Paper §4 argues for selecting preservation techniques "by analyzing only
the features of the query … without executing the query".  We compare:

* **cluster matching** — extract features, match against the cluster KB;
* **execute-and-analyze** — run the query, inspect the result rows, then
  infer breach types from what actually came back.

Expected shape: near-total technique agreement at orders-of-magnitude
lower cost, with the gap growing with table size.
"""

import pytest

from repro.policy import DisclosureForm, PrivacyView
from repro.query import extract_features, parse_piql
from repro.relational import Table
from repro.source import (
    PathMapping,
    PreservationKnowledgeBase,
    QueryClusterer,
    QueryTransformer,
)
from repro.source.knowledge import BreachType
from repro.relational.engine import execute

N_ROWS = 10000

QUERY_MIX = [
    "SELECT //patient/id, //patient/hba1c PURPOSE research",
    "SELECT //patient/age PURPOSE research",
    "SELECT AVG(//patient/hba1c) WHERE //patient/hmo = 'HMO1' PURPOSE research",
    "SELECT COUNT(*) PURPOSE research",
    "SELECT SUM(//patient/hba1c) WHERE //patient/age > 50 PURPOSE research",
    "SELECT //patient/id PURPOSE research",
]


@pytest.fixture(scope="module")
def table():
    rows = [
        {"id": i, "age": 20 + i % 60, "hba1c": 60.0 + i % 30,
         "hmo": f"HMO{i % 4}"}
        for i in range(N_ROWS)
    ]
    return Table.from_dicts("patients", rows)


@pytest.fixture(scope="module")
def view():
    return PrivacyView("v", [("//hba1c", DisclosureForm.AGGREGATE)])


def feature_based(texts, view):
    clusterer = QueryClusterer(PreservationKnowledgeBase())
    assignments = []
    for text in texts:
        features = extract_features(parse_piql(text), view)
        cluster = clusterer.match(features)
        assignments.append(frozenset(t.name for t in cluster.techniques))
    return assignments


def execute_and_analyze(texts, view, table):
    """The baseline the paper rejects: run each query, study the answer."""
    kb = PreservationKnowledgeBase()
    transformer = QueryTransformer(PathMapping(table))
    assignments = []
    for text in texts:
        piql = parse_piql(text)
        local = transformer.transform(piql).query
        result = execute(local, table)
        breaches = set()
        rows = list(result.rows_as_dicts())
        if not piql.is_aggregate:
            breaches.add(BreachType.REIDENTIFICATION)
            if any("id" in c for c in result.schema.column_names()):
                breaches.add(BreachType.LINKAGE)
            if any(
                view.is_private(f"//{c}")
                for c in result.schema.column_names()
            ):
                breaches.add(BreachType.ATTRIBUTE_DISCLOSURE)
        else:
            if len(table.select(local.where)) < len(table) / 4:
                breaches.add(BreachType.SMALL_SET_AGGREGATE)
            if piql.where:
                breaches.add(BreachType.TRACKER_SEQUENCE)
        del rows
        assignments.append(
            frozenset(t.name for t in kb.techniques_for(breaches))
        )
    return assignments


def test_cluster_matching_speed(benchmark, view):
    benchmark(feature_based, QUERY_MIX, view)


def test_execute_and_analyze_speed(benchmark, view, table):
    benchmark.pedantic(
        execute_and_analyze, args=(QUERY_MIX, view, table),
        rounds=3, iterations=1,
    )


def test_agreement_and_report(benchmark, report, view, table):
    import time

    def run_both():
        start = time.perf_counter()
        fast = feature_based(QUERY_MIX, view)
        fast_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        slow = execute_and_analyze(QUERY_MIX, view, table)
        slow_elapsed = time.perf_counter() - start
        return fast, fast_elapsed, slow, slow_elapsed

    fast, fast_seconds, slow, slow_seconds = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )

    agreements = sum(1 for a, b in zip(fast, slow) if a == b)
    report(
        f"=== A2: technique selection over {len(QUERY_MIX)} queries, "
        f"{N_ROWS}-row table ===",
        f"cluster matching:    {fast_seconds * 1e3:8.2f} ms",
        f"execute-and-analyze: {slow_seconds * 1e3:8.2f} ms",
        f"speedup:             {slow_seconds / fast_seconds:8.1f}x",
        f"technique agreement: {agreements}/{len(QUERY_MIX)}",
    )
    assert agreements >= len(QUERY_MIX) - 1
    assert slow_seconds > fast_seconds
