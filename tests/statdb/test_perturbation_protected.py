"""Unit tests for perturbation, the protected facade, and the tracker attack."""

import random
import statistics

import pytest

from repro.errors import PrivacyViolation, ReproError
from repro.relational import TRUE, Comparison, Not, Or, Table
from repro.statdb import (
    ProtectedStatDB,
    RandomSampleQueries,
    Rounder,
    StatQuery,
    additive_noise,
    distribution_distortion,
    individual_tracker_attack,
)
from repro.statdb.tracker import true_value
from repro.testing import salaries_table, tracker_predicate, victim_predicate


class TestInputPerturbation:
    def test_additive_noise_changes_values_preserves_mean(self):
        values = [50.0] * 2000
        noisy = additive_noise(values, 5.0, random.Random(1))
        assert noisy != values
        assert statistics.mean(noisy) == pytest.approx(50.0, abs=0.5)

    def test_zero_sigma_identity(self):
        assert additive_noise([1.0, 2.0], 0.0, random.Random(1)) == [1.0, 2.0]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ReproError):
            additive_noise([1.0], -1.0)

    def test_distortion_preserves_moments(self):
        rng = random.Random(2)
        values = [rng.gauss(70.0, 8.0) for _ in range(4000)]
        distorted = distribution_distortion(values, random.Random(3))
        assert statistics.mean(distorted) == pytest.approx(70.0, abs=1.0)
        assert statistics.stdev(distorted) == pytest.approx(8.0, abs=1.0)
        assert not set(values) & set(distorted)  # no original value survives

    def test_distortion_clip(self):
        values = [99.0, 98.0, 97.0, 96.0]
        distorted = distribution_distortion(
            values, random.Random(4), clip=(0.0, 100.0)
        )
        assert all(0.0 <= v <= 100.0 for v in distorted)

    def test_distortion_uniform_family(self):
        distorted = distribution_distortion(
            [0.0, 10.0], random.Random(5), family="uniform"
        )
        assert all(0.0 <= v <= 10.0 for v in distorted)

    def test_distortion_bad_family(self):
        with pytest.raises(ReproError):
            distribution_distortion([1.0], family="zipf")

    def test_distortion_empty_rejected(self):
        with pytest.raises(ReproError):
            distribution_distortion([])


class TestOutputPerturbation:
    def test_rsq_deterministic_per_query(self):
        rsq = RandomSampleQueries(0.8)
        values = [float(i) for i in range(50)]
        query_set = list(range(40))
        first = rsq.sampled_sum(query_set, values)
        second = rsq.sampled_sum(query_set, values)
        assert first == second  # no averaging attack

    def test_rsq_roughly_unbiased(self):
        rsq = RandomSampleQueries(0.5)
        values = [1.0] * 1000
        estimate = rsq.sampled_sum(list(range(1000)), values)
        assert estimate == pytest.approx(1000.0, rel=0.15)

    def test_rsq_full_rate_exact(self):
        rsq = RandomSampleQueries(1.0)
        values = [2.0, 3.0, 4.0]
        assert rsq.sampled_sum([0, 1, 2], values) == 9.0

    def test_rsq_bad_rate(self):
        with pytest.raises(ReproError):
            RandomSampleQueries(0.0)

    def test_rounder_deterministic(self):
        assert Rounder(5.0).round(12.4) == 10.0
        assert Rounder(5.0).round(13.0) == 15.0

    def test_rounder_random_unbiased(self):
        rounder = Rounder(10.0, mode="random", rng=random.Random(6))
        estimates = [rounder.round(14.0) for _ in range(2000)]
        assert statistics.mean(estimates) == pytest.approx(14.0, abs=0.5)

    def test_rounder_bad_args(self):
        with pytest.raises(ReproError):
            Rounder(0.0)
        with pytest.raises(ReproError):
            Rounder(5.0, mode="up")


class TestProtectedStatDB:
    def test_plain_answers(self):
        db = ProtectedStatDB(salaries_table())
        assert db.answer(StatQuery("count")) == 30.0
        total = db.answer(StatQuery("sum", "salary"))
        assert total == sum(1000.0 + 100.0 * i for i in range(30))
        avg = db.answer(StatQuery("avg", "salary"))
        assert avg == pytest.approx(total / 30)

    def test_set_size_enforced(self):
        db = ProtectedStatDB(salaries_table(), min_set_size=5)
        with pytest.raises(PrivacyViolation):
            db.answer(StatQuery("count", predicate=Comparison("id", "=", 3)))
        assert db.queries_refused == 1

    def test_audit_blocks_difference_attack(self):
        db = ProtectedStatDB(salaries_table(), audit=True)
        db.answer(StatQuery("sum", "salary", Comparison("id", "<", 10)))
        with pytest.raises(PrivacyViolation):
            db.answer(StatQuery("sum", "salary", Comparison("id", "<", 11)))

    def test_audit_ignores_counts(self):
        db = ProtectedStatDB(salaries_table(), audit=True)
        db.answer(StatQuery("count", predicate=Comparison("id", "<", 10)))
        db.answer(StatQuery("count", predicate=Comparison("id", "<", 11)))

    def test_overlap_control(self):
        db = ProtectedStatDB(salaries_table(), max_overlap=2)
        db.answer(StatQuery("count", predicate=Comparison("id", "<", 10)))
        with pytest.raises(PrivacyViolation):
            db.answer(StatQuery("count", predicate=Comparison("id", "<", 9)))

    def test_empty_query_set_refused(self):
        db = ProtectedStatDB(salaries_table())
        with pytest.raises(PrivacyViolation, match="empty"):
            db.answer(StatQuery("count", predicate=Comparison("id", "=", 999)))

    def test_perturbed_answers(self):
        db = ProtectedStatDB(
            salaries_table(), output_perturbation=Rounder(100.0)
        )
        assert db.answer(StatQuery("count")) % 100.0 == 0.0

    def test_unknown_column(self):
        db = ProtectedStatDB(salaries_table())
        with pytest.raises(ReproError):
            db.answer(StatQuery("sum", "bonus"))

    def test_statquery_validation(self):
        with pytest.raises(ReproError):
            StatQuery("median", "x")
        with pytest.raises(ReproError):
            StatQuery("sum")


class TestTrackerAttack:
    def victim(self):
        return victim_predicate()

    def tracker(self):
        return tracker_predicate()

    def test_attack_beats_bare_size_control(self):
        db = ProtectedStatDB(
            salaries_table(), min_set_size=3, restrict_complement=False
        )
        result = individual_tracker_attack(
            db, self.victim(), self.tracker(), func="sum", column="salary"
        )
        assert result.succeeded
        truth = true_value(db, self.victim(), func="sum", column="salary")
        assert result.inferred_value == pytest.approx(truth)

    def test_attack_blocked_by_audit(self):
        db = ProtectedStatDB(
            salaries_table(),
            min_set_size=3,
            restrict_complement=False,
            audit=True,
        )
        result = individual_tracker_attack(
            db, self.victim(), self.tracker(), func="sum", column="salary"
        )
        assert not result.succeeded

    def test_attack_blocked_by_overlap_control(self):
        db = ProtectedStatDB(
            salaries_table(),
            min_set_size=3,
            restrict_complement=False,
            max_overlap=2,
        )
        result = individual_tracker_attack(
            db, self.victim(), self.tracker(), func="count"
        )
        assert not result.succeeded

    def test_attack_degraded_by_sampling(self):
        db = ProtectedStatDB(
            salaries_table(),
            min_set_size=3,
            restrict_complement=False,
            output_perturbation=RandomSampleQueries(0.7, secret="s1"),
        )
        result = individual_tracker_attack(
            db, self.victim(), self.tracker(), func="sum", column="salary"
        )
        truth = true_value(db, self.victim(), func="sum", column="salary")
        assert result.succeeded  # answered, but wrong
        assert result.inferred_value != pytest.approx(truth, rel=0.001)


class TestTrackerIdentityWithNulls:
    """``q(C OR T) + q(C OR NOT T) = q(ALL) + q(C)`` holds with NULLs in T.

    ``NOT`` is a plain complement (not SQL's three-valued logic), so
    ``T`` and ``NOT T`` partition the table even where the tracker
    column is NULL — the identity the tracker attack is built on.
    """

    @staticmethod
    def table():
        rows = [
            {"id": i,
             "dept": None if i % 4 == 1 else ("sales" if i % 3 else "exec"),
             "salary": 1000.0 + 100.0 * i}
            for i in range(30)
        ]
        return Table.from_dicts("salaries", rows, types={"dept": "text"})

    def test_not_tracker_keeps_the_null_rows(self):
        db = ProtectedStatDB(self.table())
        tracker = tracker_predicate()
        nulls = {i for i in range(30) if i % 4 == 1}
        assert nulls <= set(db.query_set(Not(tracker)))
        assert sorted(db.query_set(tracker) + db.query_set(Not(tracker))) == (
            list(range(30)))

    @pytest.mark.parametrize("func, column", [("count", None),
                                              ("sum", "salary")])
    def test_identity_holds(self, func, column):
        db = ProtectedStatDB(self.table())
        target, tracker = victim_predicate(), tracker_predicate()

        def answer(predicate):
            return db.answer(StatQuery(func, column, predicate))

        left = answer(Or([target, tracker])) + answer(Or([target, Not(tracker)]))
        truth = true_value(db, target, func=func, column=column)
        assert left == pytest.approx(answer(TRUE) + truth)

    def test_attack_recovers_the_victim_past_null_trackers(self):
        db = ProtectedStatDB(self.table(), min_set_size=3,
                             restrict_complement=False)
        result = individual_tracker_attack(
            db, victim_predicate(), tracker_predicate(), func="sum",
            column="salary",
        )
        assert result.succeeded
        assert result.inferred_value == pytest.approx(
            true_value(db, victim_predicate(), func="sum", column="salary"))
