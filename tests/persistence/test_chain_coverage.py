"""The journal is the log: what a logged pose record's chain covers.

* every chained field of a logged pose record is hash-covered — a
  doctored history entry, released cell or refusal reason fails both
  ``recover()`` and ``python -m repro.persistence verify``;
* a pose line carries the journal's canonical bytes verbatim, and a
  pose serializes its chained payload once;
* a store in an earlier layout is refused, not misread;
* a recovered long store that crossed compactions re-verifies.
"""

import json

import pytest

from repro.errors import PersistenceError, PrivacyViolation
from repro.persistence import MemoryBackend, PersistenceSink
from repro.persistence.cli import main
from repro.persistence.wal import LOG_NAME, WalBackend, _dump
from tests.mediator.test_settlement import build_system as build_bare
from tests.persistence.test_recovery import (
    AGGREGATE,
    FORBIDDEN,
    build_system,
)

CITY = ("SELECT AVG(//patient/hba1c) AS mean WHERE //patient/city = "
        "'erie' PURPOSE outbreak-surveillance MAXLOSS 0.6")


def populate(path):
    """An answered aggregate and a refused pose, logged; closed."""
    system = build_system(path)
    system.query(AGGREGATE, requester="epi")
    with pytest.raises(PrivacyViolation):
        system.query(FORBIDDEN, requester="advertiser")
    system.persistence.close()


def rewrite_pose(log_path, status, edit):
    """Apply ``edit`` to the chained payload of the first logged pose
    with ``status``, leaving its hash as it was."""
    lines = log_path.read_text().splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        if (record.get("kind") == "pose"
                and record["chained"]["status"] == status):
            edit(record["chained"])
            lines[index] = _dump(record)
            break
    else:
        raise AssertionError(f"no {status} pose record in the log")
    log_path.write_text("\n".join(lines) + "\n")


def doctor_history(pose):
    pose["history"]["requester"] = "someone-else"


def doctor_cell(pose):
    pose["cells"][0][2] = pose["cells"][0][2] + 1.0


def doctor_refusal_reason(pose):
    pose["refusal_reason"] = "nothing was refused"


class TestEveryChainedFieldIsCovered:
    @pytest.mark.parametrize("status, edit", [
        ("answered", doctor_history),
        ("answered", doctor_cell),
        ("refused", doctor_refusal_reason),
    ], ids=["history.requester", "cells", "refusal_reason"])
    def test_a_doctored_field_fails_recovery_and_verify(
            self, tmp_path, capsys, status, edit):
        path = str(tmp_path / "wal-store")
        populate(path)
        rewrite_pose(tmp_path / "wal-store" / LOG_NAME, status, edit)

        with pytest.raises(PersistenceError, match="chain"):
            build_system(path).recover()
        assert main(["verify", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["chain_valid"] is False


class TestOneSerializationPerPose:
    def test_the_line_carries_the_journal_bytes(self, tmp_path):
        path = str(tmp_path / "wal-store")
        system = build_system(path)
        system.query(AGGREGATE, requester="epi")
        journal = system.audit_journal().last()
        system.persistence.close()

        lines = (tmp_path / "wal-store" / LOG_NAME).read_text().splitlines()
        pose_lines = [line for line in lines if '"kind":"pose"' in line]
        assert len(pose_lines) == 1
        line = pose_lines[0]
        assert line.startswith('{"chained":' + journal.body + ',')
        # the hand-built envelope is what canonical serialization gives
        assert _dump(json.loads(line)) == line
        record = json.loads(line)
        assert record["hash"] == journal.hash
        assert set(record) == {"chained", "duration_ms", "hash", "kind",
                               "seq", "trace_id"}

    def test_without_an_observatory_the_chain_fields_are_null(self):
        backend = MemoryBackend()
        system = build_bare(persistence=PersistenceSink(backend))
        system.query(AGGREGATE, requester="epi")
        (record,) = [r for r in backend.load()[1] if r["kind"] == "pose"]
        assert record["hash"] is None
        chained = record["chained"]
        assert (chained["seq"], chained["ts"],
                chained["cumulative_loss"]) == (None, None, None)
        assert chained["requester"] == "epi"
        assert chained["history"]["requester"] == "epi"

    def test_a_warm_pose_serializes_its_payload_once(self, tmp_path,
                                                     monkeypatch):
        sink = PersistenceSink(WalBackend(tmp_path / "wal-store"),
                               snapshot_every=None)
        system = build_system(sink)
        system.query(AGGREGATE, requester="epi")  # epoch bumps land here
        calls = []
        dumps = json.dumps

        def counted(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counted)
        for _ in range(5):
            system.query(AGGREGATE, requester="epi")
        monkeypatch.undo()
        assert len(calls) == 5
        assert all(set(payload) >= {"seq", "history", "cells"}
                   for payload in calls)
        sink.close()


class TestEarlierLayout:
    def test_a_journal_sub_dict_is_refused(self, tmp_path, capsys):
        """The flat pose record with the chain fields under ``journal``."""
        earlier = {
            "kind": "pose", "seq": 1, "requester": "epi",
            "fingerprint": "f" * 32, "status": "answered",
            "refusal_kind": None, "refusal_reason": None,
            "trace_id": "t-1-00000001",
            "history": {"sequence": 1, "requester": "epi",
                        "attributes": ["hba1c"],
                        "predicate_signature": "<none>",
                        "is_aggregate": True, "refused": False},
            "per_source_loss": {"clinic": 0.25, "lab": 0.5},
            "aggregated_loss": 0.625,
            "cells": [["mean", "clinic", 70.0], ["mean", "lab", 75.0]],
            "rows": 2, "duplicates_removed": 0, "duration_ms": 1.0,
            "journal": {"seq": 1, "ts": 1_700_000_000.0,
                        "cumulative_loss": 0.625,
                        "prev_hash": "0" * 64, "hash": "a" * 64},
        }
        backend = MemoryBackend()
        backend.append(dict(earlier))
        backend.append({"kind": "epoch", "seq": 2, "name": "schema",
                        "value": 1})
        system = build_system(PersistenceSink(backend))
        with pytest.raises(PersistenceError, match="seq 1 "):
            system.recover()
        assert len(system.engine.history) == 0
        assert len(system.audit_journal()) == 0

        path = tmp_path / "wal-store"
        store = WalBackend(path)
        store.append(dict(earlier))
        store.close()
        assert main(["verify", str(path)]) == 1
        assert "seq 1 " in json.loads(capsys.readouterr().err)["error"]


class TestLongStoreRecovers:
    def test_a_recovered_store_across_compactions_verifies(self, tmp_path):
        path = str(tmp_path / "wal-store")
        system = build_system(path)
        requesters = ["epi", "bob", "carol"]
        for index in range(1536):
            system.query(AGGREGATE if index % 2 else CITY,
                         requester=requesters[index % 3])
        sink = system.persistence
        snapshot, _ = sink.load()
        assert snapshot["through_seq"] >= 1024   # compacted at 256, 512, 1024
        live = len(system.audit_journal())
        assert live == 1536
        cumulative = system.audit_journal().requesters()
        sink.close()

        recovered = build_system(path)
        report = recovered.recover()
        journal = recovered.audit_journal()
        assert len(journal) == live
        assert journal.verify_chain()[0]
        assert report.chain_valid
        assert journal.requesters() == pytest.approx(cumulative)
        assert len(recovered.engine.history) == len(system.engine.history)
