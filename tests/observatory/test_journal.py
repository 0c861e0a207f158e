"""The hash-chained disclosure audit journal: chaining, tamper evidence."""

import json

import pytest

from repro.errors import ReproError
from repro.mediator.engine import PoseRecord
from repro.observatory.journal import (
    GENESIS_HASH,
    AuditJournal,
    canonical,
    chain_hash,
    verify_records,
)


def pose_record(requester, fingerprint, status, per_source_loss=None,
                aggregated_loss=0.0, kind=None):
    """A settled pose with the given outcome and losses, nothing else."""
    return PoseRecord(requester, fingerprint, status, kind, None, None,
                      None, dict(per_source_loss or {}), aggregated_loss,
                      (), 0, 0, 0.0)


def filled_journal():
    """Three answered poses by two requesters plus one refusal."""
    journal = AuditJournal(clock=lambda: 1000.0)
    journal.append(pose_record("epi", "fp-1", "answered",
                               per_source_loss={"clinic": 0.2, "lab": 0.3},
                               aggregated_loss=0.3))
    journal.append(pose_record("epi", "fp-2", "answered",
                               aggregated_loss=0.1))
    journal.append(pose_record("bob", "fp-3", "answered",
                               aggregated_loss=0.5))
    journal.append(pose_record("epi", "fp-4", "refused",
                               kind="PrivacyViolation"))
    return journal


class TestChaining:
    def test_first_record_links_to_genesis(self):
        journal = AuditJournal()
        record = journal.append(pose_record("epi", "fp", "answered",
                                            aggregated_loss=0.1))
        assert record.body == canonical(record.chained)
        assert record.hash == chain_hash(GENESIS_HASH, record.body)
        assert record.chained["seq"] == 1

    def test_each_record_links_to_its_predecessor(self):
        journal = filled_journal()
        records = journal.records()
        assert [r.chained["seq"] for r in records] == [1, 2, 3, 4]
        for previous, record in zip(records, records[1:]):
            assert record.hash == chain_hash(previous.hash, record.body)

    def test_intact_chain_verifies(self):
        assert filled_journal().verify_chain() == (True, None)
        assert AuditJournal().verify_chain() == (True, None)

    def test_unknown_status_rejected(self):
        with pytest.raises(ReproError, match="unknown journal status"):
            AuditJournal().append(pose_record("epi", "fp", "maybe"))


class TestCumulativeDisclosure:
    def test_answered_poses_compound(self):
        journal = filled_journal()
        # 1 − (1 − 0.3)(1 − 0.1) = 0.37
        assert journal.cumulative_loss("epi") == pytest.approx(0.37)
        assert journal.cumulative_loss("bob") == pytest.approx(0.5)
        assert journal.cumulative_loss("nobody") == 0.0
        assert journal.requesters() == {
            "epi": pytest.approx(0.37), "bob": pytest.approx(0.5),
        }

    def test_refused_pose_carries_unchanged_cumulative(self):
        journal = filled_journal()
        refusal = journal.last()
        assert refusal.status == "refused"
        assert refusal.chained["refusal_kind"] == "PrivacyViolation"
        assert refusal.cumulative_loss == pytest.approx(0.37)

    def test_record_filtering_and_last(self):
        journal = filled_journal()
        assert len(journal) == 4
        assert ([r.chained["fingerprint"] for r in journal.records("bob")]
                == ["fp-3"])
        assert journal.last().chained["fingerprint"] == "fp-4"
        assert AuditJournal().last() is None


class TestTamperEvidence:
    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    @pytest.mark.parametrize("field, value", [
        ("requester", "mallory"),
        ("aggregated_loss", 0.0),
        ("status", "answered"),
    ])
    def test_field_tamper_detected_at_first_bad_record(self, position,
                                                       field, value):
        records = [r.to_dict() for r in filled_journal().records()]
        if records[position]["chained"][field] == value:
            pytest.skip("mutation is a no-op for this record")
        records[position]["chained"][field] = value
        ok, bad_seq = verify_records(records)
        assert not ok
        assert bad_seq == position + 1

    def test_single_byte_tamper_in_serialized_journal_detected(self):
        journal = filled_journal()
        lines = journal.to_jsonl().splitlines()
        # flip one byte inside record 2's requester field: "epi" → "eqi"
        assert '"requester": "epi"' in lines[1]
        lines[1] = lines[1].replace('"requester": "epi"',
                                    '"requester": "eqi"', 1)
        tampered = [json.loads(line) for line in lines]
        assert verify_records(tampered) == (False, 2)

    def test_deleted_record_breaks_the_chain(self):
        records = [r.to_dict() for r in filled_journal().records()]
        del records[1]
        ok, bad_seq = verify_records(records)
        assert not ok
        assert bad_seq == 3  # the first survivor after the gap

    def test_reordered_records_break_the_chain(self):
        records = [r.to_dict() for r in filled_journal().records()]
        records[1], records[2] = records[2], records[1]
        ok, bad_seq = verify_records(records)
        assert not ok
        assert bad_seq == 3

    def test_missing_hash_fields_count_as_tampered(self):
        records = [r.to_dict() for r in filled_journal().records()]
        del records[0]["hash"]
        assert verify_records(records) == (False, 1)


class TestSerialization:
    def test_jsonl_round_trip_reverifies(self):
        journal = filled_journal()
        replayed = [json.loads(line)
                    for line in journal.to_jsonl().splitlines()]
        assert verify_records(replayed) == (True, None)
        assert replayed[0]["chained"]["per_source_loss"] == {
            "clinic": 0.2, "lab": 0.3,
        }

    def test_dump_writes_verifiable_file(self, tmp_path):
        from repro.telemetry.report import load_jsonl

        path = tmp_path / "journal.jsonl"
        filled_journal().dump(path)
        assert verify_records(load_jsonl(path)) == (True, None)

    def test_append_only_no_clear(self):
        assert not hasattr(AuditJournal(), "clear")
