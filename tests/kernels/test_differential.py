"""Differential tests: vectorized kernels vs their scalar references.

Every hot kernel is run on the same seeded inputs through its production
(vectorized) implementation and through its scalar reference in
:mod:`tests.kernels.oracles` — the executable specification — and the
outputs are compared.  Seeds are fixed, so a divergence is a
reproducible counterexample, not a flake.  Across the parametrized
cases this file pins ~470 seeded inputs.
"""

import math
import random

import numpy as np
import pytest

from repro.anonymity.hierarchy import interval_hierarchy
from repro.anonymity.kanonymity import (
    FullDomainGeneralizer,
    class_sizes,
    is_k_anonymous,
    measured_k,
)
from repro.anonymity.mondrian import anonymized_records, mondrian_partition
from repro.inference.bounds import AggregateConstraints, cell_bounds
from repro.metrics.privacy_loss import budget_fixed_point
from repro.statdb.laplace import LaplaceMechanism, PrivacyBudget
from tests.kernels.oracles import (
    oracle_anonymize,
    oracle_budget_fixed_point,
    oracle_cell_bounds,
    oracle_class_sizes,
    oracle_laplace_answers,
    oracle_mondrian_partition,
    oracle_satisfying_nodes,
)


def loss_profile(rng, n_sources):
    names = [f"s{i}" for i in range(n_sources)]
    losses = {name: round(rng.random(), 6) for name in names}
    budgets = {
        name: round(rng.random(), 6)
        for name in names
        if rng.random() < 0.7
    }
    return losses, budgets


def assert_fixed_points_match(losses, budgets):
    s_part, s_agg, s_withheld = oracle_budget_fixed_point(
        dict(losses), dict(budgets)
    )
    v_part, v_agg, v_withheld = budget_fixed_point(dict(losses), dict(budgets))
    assert v_part == s_part
    assert v_agg == pytest.approx(s_agg, abs=1e-12)
    assert [w[0] for w in v_withheld] == [w[0] for w in s_withheld]
    for (_, s_at, s_budget), (_, v_at, v_budget) in zip(
        s_withheld, v_withheld
    ):
        assert v_at == pytest.approx(s_at, abs=1e-12)
        assert v_budget == pytest.approx(s_budget, abs=1e-12)


class TestBudgetFixedPoint:
    """160 seeded loss/budget profiles: production vs scalar oracle."""

    @pytest.mark.parametrize("seed", range(150))
    def test_fixed_point_matches_reference(self, seed):
        rng = random.Random(seed)
        assert_fixed_points_match(*loss_profile(rng, rng.randint(2, 8)))

    @pytest.mark.parametrize("seed", range(10))
    def test_empty_and_single_source_match_reference(self, seed):
        rng = random.Random(9000 + seed)
        assert_fixed_points_match(*loss_profile(rng, seed % 2))

    def test_out_of_range_loss_raises_identically(self):
        from repro.errors import ReproError

        losses = {"a": 0.3, "b": 1.5, "c": 0.2}
        with pytest.raises(ReproError) as scalar:
            oracle_budget_fixed_point(losses, {})
        with pytest.raises(ReproError) as vectorized:
            budget_fixed_point(losses, {})
        assert str(vectorized.value) == str(scalar.value)


def random_table(rng, n_rows, attributes, cardinality):
    return [
        {attr: rng.randrange(cardinality) for attr in attributes}
        for _ in range(n_rows)
    ]


class TestKAnonymityCounting:
    """100 seeded QI tables: production counting vs scalar oracle."""

    @pytest.mark.parametrize("seed", range(100))
    def test_counting_matches_reference(self, seed):
        rng = random.Random(1000 + seed)
        attributes = [f"q{i}" for i in range(rng.randint(1, 4))]
        records = random_table(
            rng, rng.randint(1, 60), attributes, rng.randint(2, 5)
        )
        k = rng.randint(1, 5)

        sizes = oracle_class_sizes(records, attributes)
        assert np.array_equal(class_sizes(records, attributes), sizes)
        assert is_k_anonymous(records, attributes, k) == (
            int(sizes.min()) >= k
        )
        assert measured_k(records, attributes) == int(sizes.min())


def assert_search_matches(generalizer, records, k, max_suppressed, **diverse):
    result = generalizer.anonymize(
        records, k, max_suppressed=max_suppressed, **diverse
    )
    reference = oracle_anonymize(
        generalizer, records, k, max_suppressed, **diverse
    )
    assert (result.node, result.records, result.suppressed) == (
        reference.node, reference.records, reference.suppressed
    )
    assert generalizer.satisfying_nodes(
        records, k, max_suppressed=max_suppressed, **diverse
    ) == oracle_satisfying_nodes(
        generalizer, records, k, max_suppressed, **diverse
    )


class TestLatticeSearch:
    """80 seeded tables: screened lattice search vs trying every node."""

    @pytest.mark.parametrize("seed", range(50))
    def test_anonymize_matches_reference(self, seed):
        rng = random.Random(2000 + seed)
        generalizer = FullDomainGeneralizer([
            interval_hierarchy("age", [5, 10, 20]),
            interval_hierarchy("visits", [2, 4]),
        ])
        records = [
            {"age": rng.randrange(20, 80), "visits": rng.randrange(8)}
            for _ in range(rng.randint(4, 40))
        ]
        k = rng.randint(2, 4)
        max_suppressed = rng.randrange(4)

        assert_search_matches(generalizer, records, k, max_suppressed)

    @pytest.mark.parametrize("seed", range(30))
    def test_diverse_anonymize_matches_reference(self, seed):
        rng = random.Random(3000 + seed)
        generalizer = FullDomainGeneralizer([
            interval_hierarchy("age", [5, 10, 20]),
        ])
        records = [
            {"age": rng.randrange(20, 80),
             "diagnosis": rng.choice("abcd")}
            for _ in range(rng.randint(6, 30))
        ]

        assert_search_matches(
            generalizer, records, 2, 3, l=2, sensitive="diagnosis"
        )


class TestMondrian:
    """60 seeded numeric tables: index-array recursion vs scalar oracle."""

    @pytest.mark.parametrize("seed", range(60))
    def test_partitions_match_reference(self, seed):
        rng = random.Random(4000 + seed)
        attributes = [f"q{i}" for i in range(rng.randint(1, 3))]
        k = rng.randint(2, 5)
        records = [
            {attr: rng.randrange(100) for attr in attributes}
            for _ in range(rng.randint(k, 80))
        ]

        partitions = mondrian_partition(records, attributes, k)
        reference = oracle_mondrian_partition(records, attributes, k)
        assert partitions == reference
        assert anonymized_records(partitions, attributes) == (
            anonymized_records(reference, attributes)
        )


class TestLaplace:
    """Seeded noise streams: batch = sequential, draws match the oracle."""

    @pytest.mark.parametrize("seed", range(40))
    def test_batch_equals_sequential_draws(self, seed):
        values = [float(i) for i in range(12)]
        fingerprints = [f"fp{i % 8}" for i in range(12)]  # dupes replay
        one = LaplaceMechanism(0.5, rng=seed)
        many = LaplaceMechanism(0.5, rng=seed)
        sequential = [
            one.answer(v, fp) for v, fp in zip(values, fingerprints)
        ]
        batched = many.answer_many(values, fingerprints)
        assert batched == sequential

    @pytest.mark.parametrize("seed", range(20))
    def test_scalar_and_vectorized_quantiles_agree(self, seed):
        values = [0.0] * 2000
        fingerprints = [f"fp{i}" for i in range(2000)]
        scalar = np.asarray(oracle_laplace_answers(
            LaplaceMechanism(1.0, rng=5000 + seed), values, fingerprints
        ))
        vectorized = np.asarray(LaplaceMechanism(
            1.0, rng=5000 + seed
        ).answer_many(values, fingerprints))
        # Same generator stream, one uniform per draw: the batch inverse
        # CDF must reproduce each scalar draw up to float rounding.
        np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=1e-12)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert np.quantile(vectorized, q) == pytest.approx(
                np.quantile(scalar, q), abs=0.25
            )
        # Median |noise| estimates b·ln 2 for Laplace(b); b = 1 here.
        for samples in (scalar, vectorized):
            assert np.median(np.abs(samples)) == pytest.approx(
                math.log(2), abs=0.15
            )

    def test_budget_exhaustion_state_matches_sequential(self):
        from repro.errors import PrivacyViolation

        def exercise(answer_all):
            budget = PrivacyBudget(1.0)
            mechanism = LaplaceMechanism(0.4, budget=budget, rng=77)
            with pytest.raises(PrivacyViolation):
                answer_all(mechanism)
            return budget.spent("anonymous"), dict(mechanism._memo)

        def sequential(mechanism):
            for i in range(4):
                mechanism.answer(float(i), f"fp{i}")

        def batched(mechanism):
            mechanism.answer_many(
                [float(i) for i in range(4)],
                [f"fp{i}" for i in range(4)],
            )

        assert exercise(sequential) == exercise(batched)


class TestBoundsSolver:
    """Seeded bound problems through both SLSQP constraint encodings."""

    @pytest.mark.parametrize("seed", range(12))
    def test_cell_bounds_match_reference(self, seed):
        rng = random.Random(6000 + seed)
        n_rows, n_cols = rng.randint(1, 3), rng.randint(2, 4)
        table = [
            [rng.uniform(0.0, 100.0) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        known = {0: [row[0] for row in table]}
        constraints = AggregateConstraints(
            n_rows, n_cols, known,
            row_means=[sum(row) / n_cols for row in table],
            row_stds=(
                [np.std(row, ddof=1) for row in table]
                if n_cols >= 3 and rng.random() < 0.5 else None
            ),
            column_means=(
                {1: sum(row[1] for row in table) / n_rows}
                if rng.random() < 0.5 else None
            ),
        )

        from repro.errors import ReproError

        def run(bounds):
            # SLSQP can fail to certify a tight (stds-constrained) problem
            # from few starts; "infeasible" is then itself an output the
            # two constraint encodings must agree on.
            try:
                return bounds(constraints, starts=6, seed=seed)
            except ReproError:
                return "infeasible"

        scalar, vectorized = run(oracle_cell_bounds), run(cell_bounds)
        if scalar == "infeasible" or vectorized == "infeasible":
            assert vectorized == scalar
            return
        assert set(vectorized) == set(scalar)
        for cell in scalar:
            assert vectorized[cell][0] == pytest.approx(
                scalar[cell][0], abs=1e-6
            )
            assert vectorized[cell][1] == pytest.approx(
                scalar[cell][1], abs=1e-6
            )
