"""Unit tests for table statistics and selectivity estimation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.relational import (
    And,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    Table,
    TRUE,
)
from repro.source import TableStatistics


def table(n=1000, seed=5):
    rng = random.Random(seed)
    rows = [
        {"age": rng.randint(0, 99),
         "dept": rng.choice(["sales"] * 6 + ["eng"] * 3 + ["hr"]),
         "bonus": rng.uniform(0, 100) if rng.random() > 0.2 else None}
        for _ in range(n)
    ]
    return Table.from_dicts("staff", rows, types={"bonus": "float"})


@pytest.fixture(scope="module")
def stats():
    return TableStatistics(table())


class TestColumnStats:
    def test_true_is_everything(self, stats):
        assert stats.selectivity(TRUE) == 1.0

    def test_uniform_range(self, stats):
        estimate = stats.selectivity(Comparison("age", "<", 50))
        assert estimate == pytest.approx(0.5, abs=0.08)

    def test_range_extremes(self, stats):
        assert stats.selectivity(Comparison("age", "<", -5)) == pytest.approx(0.0, abs=0.01)
        assert stats.selectivity(Comparison("age", "<", 500)) == pytest.approx(1.0, abs=0.01)
        assert stats.selectivity(Comparison("age", ">", 500)) == pytest.approx(0.0, abs=0.01)

    def test_categorical_equality_uses_value_counts(self, stats):
        sales = stats.selectivity(Comparison("dept", "=", "sales"))
        hr = stats.selectivity(Comparison("dept", "=", "hr"))
        assert sales == pytest.approx(0.6, abs=0.06)
        assert hr == pytest.approx(0.1, abs=0.04)
        assert stats.selectivity(Comparison("dept", "=", "ghost")) == 0.0

    def test_numeric_equality_uses_distinct_count(self, stats):
        estimate = stats.selectivity(Comparison("age", "=", 40))
        assert estimate == pytest.approx(1.0 / 100, abs=0.01)

    def test_not_equal_complements(self, stats):
        eq = stats.selectivity(Comparison("dept", "=", "sales"))
        ne = stats.selectivity(Comparison("dept", "!=", "sales"))
        assert eq + ne == pytest.approx(1.0)

    def test_null_fraction(self, stats):
        estimate = stats.selectivity(IsNull("bonus"))
        assert estimate == pytest.approx(0.2, abs=0.05)
        assert stats.selectivity(IsNull("bonus", negated=True)) == pytest.approx(
            0.8, abs=0.05
        )

    def test_in_list_sums(self, stats):
        estimate = stats.selectivity(InList("dept", ["sales", "hr"]))
        assert estimate == pytest.approx(0.7, abs=0.06)

    def test_and_multiplies(self, stats):
        conjunct = And([Comparison("age", "<", 50),
                        Comparison("dept", "=", "sales")])
        assert stats.selectivity(conjunct) == pytest.approx(0.3, abs=0.08)

    def test_or_union(self, stats):
        disjunct = Or([Comparison("dept", "=", "sales"),
                       Comparison("dept", "=", "eng")])
        assert stats.selectivity(disjunct) == pytest.approx(
            0.6 + 0.3 - 0.18, abs=0.08
        )

    def test_not_complements(self, stats):
        estimate = stats.selectivity(Not(Comparison("age", "<", 50)))
        assert estimate == pytest.approx(0.5, abs=0.08)

    def test_unknown_column_falls_back(self, stats):
        assert 0.0 < stats.selectivity(Comparison("ghost", "=", 1)) <= 0.2

    def test_estimated_rows(self, stats):
        rows = stats.estimated_rows(Comparison("age", "<", 50))
        assert rows == pytest.approx(500, abs=80)

    def test_bad_expr_rejected(self, stats):
        with pytest.raises(ReproError):
            stats.selectivity("age < 5")


class TestAccuracy:
    def test_estimates_track_truth(self):
        t = table(2000, seed=9)
        stats = TableStatistics(t)
        for predicate in (
            Comparison("age", ">", 70),
            Comparison("age", "<=", 25),
            And([Comparison("age", ">", 30), Comparison("dept", "=", "eng")]),
        ):
            truth = len(t.select(predicate)) / len(t)
            estimate = stats.selectivity(predicate)
            assert estimate == pytest.approx(truth, abs=0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-20, max_value=120),
       st.sampled_from(["<", "<=", ">", ">="]))
def test_selectivity_bounds_property(threshold, op):
    """Selectivity is always within [0, 1]."""
    stats = TableStatistics(table(300, seed=1))
    estimate = stats.selectivity(Comparison("age", op, threshold))
    assert 0.0 <= estimate <= 1.0
