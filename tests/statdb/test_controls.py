"""Unit tests for set-size, overlap, and audit controls."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AuditRefusal, PrivacyViolation, ReproError
from repro.statdb import OverlapController, SetSizeControl, SumAuditor


class TestSetSizeControl:
    def test_small_set_refused(self):
        control = SetSizeControl(3, 20)
        with pytest.raises(PrivacyViolation, match="below minimum"):
            control.check([1, 2])

    def test_large_complement_refused(self):
        control = SetSizeControl(3, 20)
        with pytest.raises(PrivacyViolation, match="complement"):
            control.check(list(range(18)))

    def test_legal_band_passes(self):
        control = SetSizeControl(3, 20)
        control.check([1, 2, 3])
        control.check(list(range(17)))

    def test_complement_restriction_optional(self):
        control = SetSizeControl(3, 20, restrict_complement=False)
        control.check(list(range(19)))

    def test_bad_parameters(self):
        with pytest.raises(ReproError):
            SetSizeControl(0, 20)
        with pytest.raises(ReproError):
            SetSizeControl(5, 8)


class TestOverlapController:
    def test_overlap_within_limit_ok(self):
        control = OverlapController(1)
        control.check_and_record([1, 2, 3])
        control.check_and_record([3, 4, 5])  # overlap = 1

    def test_excess_overlap_refused(self):
        control = OverlapController(1)
        control.check_and_record([1, 2, 3])
        with pytest.raises(PrivacyViolation, match="overlaps"):
            control.check_and_record([2, 3, 4])

    def test_refused_query_not_recorded(self):
        control = OverlapController(0)
        control.check_and_record([1, 2])
        with pytest.raises(PrivacyViolation):
            control.check_and_record([2, 3])
        assert len(control.answered) == 1

    def test_djl_bound(self):
        assert OverlapController(1).minimum_queries_to_compromise(5) == 5.0
        assert OverlapController(0).minimum_queries_to_compromise(5) == float("inf")

    def test_concurrent_overlapping_sets_record_at_most_one(self):
        # Fan-out poses share a source: the check and the append must be
        # one step, or two overlapping sets both pass an empty history.
        query_set = list(range(40))
        for _ in range(20):
            control = OverlapController(3)
            barrier = threading.Barrier(8)
            errors = []

            def worker():
                try:
                    barrier.wait(timeout=30)
                    control.check_and_record(query_set)
                except PrivacyViolation:
                    pass  # the refusal every thread but one should get
                except Exception as error:  # reported by the assertion
                    errors.append(error)

            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(control.answered) == 1

    def test_negative_overlap_rejected(self):
        with pytest.raises(ReproError):
            OverlapController(-1)


class TestSumAuditor:
    def test_single_record_query_refused(self):
        auditor = SumAuditor(5)
        with pytest.raises(AuditRefusal):
            auditor.check_and_record([2])

    def test_difference_attack_detected(self):
        auditor = SumAuditor(5)
        auditor.check_and_record([0, 1, 2])
        # {0,1,2,3} - {0,1,2} isolates record 3
        with pytest.raises(AuditRefusal, match="expose"):
            auditor.check_and_record([0, 1, 2, 3])

    def test_three_query_linear_attack_detected(self):
        auditor = SumAuditor(4)
        auditor.check_and_record([0, 1])
        auditor.check_and_record([1, 2])
        # (q1 - q2 + q3) / ... : {0,1} - {1,2} + {2,0} = 2*record0
        with pytest.raises(AuditRefusal):
            auditor.check_and_record([2, 0])

    def test_disjoint_pairs_safe(self):
        auditor = SumAuditor(6)
        auditor.check_and_record([0, 1])
        auditor.check_and_record([2, 3])
        auditor.check_and_record([4, 5])
        assert auditor.compromised_now() == []

    def test_duplicate_query_harmless(self):
        auditor = SumAuditor(5)
        auditor.check_and_record([0, 1, 2])
        auditor.check_and_record([0, 1, 2])  # dependent, adds nothing
        assert len(auditor.answered) == 2
        assert auditor.compromised_now() == []

    def test_would_compromise_is_side_effect_free(self):
        auditor = SumAuditor(5)
        auditor.check_and_record([0, 1])
        assert auditor.would_compromise([1])  # wait: [1] is itself a unit set
        assert auditor.compromised_now() == []
        auditor.check_and_record([2, 3])  # still accepted afterwards

    def test_empty_query_set_rejected(self):
        with pytest.raises(ReproError):
            SumAuditor(5).check_and_record([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            SumAuditor(5).check_and_record([7])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=7), min_size=2, max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_audit_invariant_no_record_ever_isolated(query_sets):
    """After any accepted sequence, no unit vector is in the span."""
    auditor = SumAuditor(8)
    for query_set in query_sets:
        try:
            auditor.check_and_record(query_set)
        except AuditRefusal:
            pass
    assert auditor.compromised_now() == []
