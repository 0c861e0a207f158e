"""Crash recovery: privacy state survives a restart of the WAL store.

The scenarios the ISSUE pins:

* a clean restart restores history, cumulative disclosure, the journal
  chain (re-verified across the boundary), watch ledgers, and epochs;
* a crash injected between the write-ahead append and answer release
  leaves the pose *charged but unreleased* — recovery accounts for it;
* a SequenceGuard refusal that was final before the crash is final
  after it;
* the Figure 1 staged-inference sequence spans the restart and the
  SnooperWatch still fires;
* the journal chain verifies across a snapshot boundary (head folded
  into the snapshot, tail in the live log);
* the default in-memory path is untouched: answers are byte-identical
  with persistence on vs off.
"""

import json

import pytest

from repro import PrivateIye
from repro.data import FIGURE1
from repro.errors import AuditRefusal, PersistenceError, PrivacyViolation
from repro.persistence import MemoryBackend, PersistenceSink
from repro.persistence.wal import LOG_NAME, WalBackend
from repro.relational import Table

POLICIES = """
VIEW clinic_private {
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
}
VIEW lab_private {
    PRIVATE //patient/ssn;
    PRIVATE //patient/hba1c FORM aggregate;
}

POLICY clinic DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/city FOR research;
}

POLICY lab DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/city FOR research;
}
"""

AGGREGATE = (
    "SELECT AVG(//patient/hba1c) AS mean "
    "PURPOSE outbreak-surveillance MAXLOSS 0.6"
)
FORBIDDEN = "SELECT AVG(//patient/hba1c) PURPOSE marketing"


class SimulatedCrash(BaseException):
    """Raised by the fault-injection hook; BaseException so nothing
    between the write-ahead append and the answer release can catch it —
    exactly like a power cut in that window."""


def crash_on_pose(n):
    """A crash hook that kills the process on the n-th *pose* record."""
    state = {"poses": 0}

    def hook(record):
        if record.get("kind") == "pose":
            state["poses"] += 1
            if state["poses"] == n:
                raise SimulatedCrash(record["seq"])

    return hook


def build_system(persistence, **kwargs):
    system = PrivateIye(telemetry=True, observatory=True,
                        persistence=persistence, **kwargs)
    system.load_policies(
        POLICIES,
        view_source={"clinic_private": "clinic", "lab_private": "lab"},
    )
    clinic_rows = [
        {"ssn": f"1-{i:03d}", "hba1c": 60.0 + i % 25,
         "city": ["pittsburgh", "butler"][i % 2]}
        for i in range(30)
    ]
    lab_rows = [
        {"ssn": f"2-{i:03d}", "hba1c": 65.0 + i % 20,
         "city": ["pittsburgh", "erie"][i % 2]}
        for i in range(20)
    ]
    system.add_relational_source(
        "clinic", Table.from_dicts("patients", clinic_rows)
    )
    system.add_relational_source(
        "lab", Table.from_dicts("patients", lab_rows)
    )
    return system


@pytest.fixture(params=["wal"])
def store(request, tmp_path):
    """A persistence target path: a WAL store directory."""
    return str(tmp_path / "wal-store")


def restart(store):
    """Rebuild the deployment against the same store — the ops protocol."""
    system = build_system(store)
    report = system.recover()
    return system, report


class TestCleanRestart:
    def test_accounting_survives_the_restart(self, store):
        system = build_system(store)
        system.query(AGGREGATE, requester="epi")
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(PrivacyViolation):
            system.query(FORBIDDEN, requester="advertiser")
        journal = system.audit_journal()
        before = {
            "cumulative": journal.cumulative_loss("epi"),
            "records": len(journal),
            "history": len(system.engine.history),
            "cells": set(
                system.observatory.watch._knowledge["epi"].cells
            ),
            "epochs": system.engine.cache.epochs.to_dict(),
        }
        system.persistence.close()

        recovered, report = restart(store)
        assert report.chain_valid is True
        assert report.journal_records == before["records"]
        assert report.cumulative_loss["epi"] == pytest.approx(
            before["cumulative"]
        )
        journal = recovered.audit_journal()
        assert len(journal) == before["records"]
        assert journal.cumulative_loss("epi") == pytest.approx(
            before["cumulative"]
        )
        assert journal.verify_chain() == (True, None)
        assert len(recovered.engine.history) == before["history"]
        assert set(
            recovered.observatory.watch._knowledge["epi"].cells
        ) == before["cells"]
        # epoch floors: the rebuilt counters are >= every pre-crash value
        epochs = recovered.engine.cache.epochs.to_dict()
        for name, value in before["epochs"].items():
            assert epochs.get(name, 0) >= value

    def test_disclosure_keeps_compounding_after_recovery(self, store):
        system = build_system(store)
        first = system.query(AGGREGATE, requester="epi")
        loss = first.aggregated_loss
        system.query(AGGREGATE, requester="epi")
        system.persistence.close()

        recovered, _ = restart(store)
        recovered.query(AGGREGATE, requester="epi")
        assert recovered.audit_journal().cumulative_loss(
            "epi"
        ) == pytest.approx(1.0 - (1.0 - loss) ** 3)

    def test_recovery_report_is_json_serializable(self, store):
        system = build_system(store)
        system.query(AGGREGATE, requester="epi")
        system.persistence.close()
        _, report = restart(store)
        document = json.loads(json.dumps(report.to_dict()))
        assert document["backend"] == "wal"
        assert document["chain_valid"] is True
        assert "epi" in document["requesters"]


class TestCrashWindow:
    def test_crashed_pose_is_charged_but_unreleased(self, store, tmp_path):
        sink = PersistenceSink(WalBackend(store),
                               crash_hook=crash_on_pose(2))
        system = build_system(sink)
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(SimulatedCrash):
            system.query(AGGREGATE, requester="epi")  # dies pre-release
        sink.close()

        # reference: the same two poses with no crash
        reference = build_system(True)
        reference.query(AGGREGATE, requester="epi")
        reference.query(AGGREGATE, requester="epi")
        expected = reference.audit_journal().cumulative_loss("epi")

        recovered, report = restart(store)
        # the interrupted pose was durably charged before the release
        assert report.cumulative_loss["epi"] == pytest.approx(expected)
        journal = recovered.audit_journal()
        assert len(journal) == 2
        assert journal.verify_chain() == (True, None)

    def test_refusals_refused_before_the_crash_stay_refused(self, tmp_path):
        policies = """
VIEW s1_private { PRIVATE //patient/salary FORM aggregate; }
VIEW s2_private { PRIVATE //patient/salary FORM aggregate; }

POLICY s1 DEFAULT deny {
    ALLOW //patient/salary FOR research FORM aggregate MAXLOSS 0.9;
    ALLOW //patient/age FOR research;
}
POLICY s2 DEFAULT deny {
    ALLOW //patient/salary FOR research FORM aggregate MAXLOSS 0.9;
    ALLOW //patient/age FOR research;
}
"""

        def build(persistence):
            system = PrivateIye(telemetry=True, observatory=True,
                                persistence=persistence)
            system.engine.max_distinct_probes = 2
            system.load_policies(
                policies,
                view_source={"s1_private": "s1", "s2_private": "s2"},
            )
            for name in ("s1", "s2"):
                rows = [{"age": 25 + i, "salary": 1000.0 + 100 * i}
                        for i in range(40)]
                system.add_relational_source(
                    name, Table.from_dicts("patients", rows)
                )
            return system

        path = str(tmp_path / "guard-store")
        probe = ("SELECT AVG(//patient/salary) WHERE //patient/age > {n} "
                 "PURPOSE research")
        system = build(path)
        system.query(probe.format(n=30), requester="snoop")
        system.query(probe.format(n=32), requester="snoop")
        with pytest.raises(AuditRefusal):
            system.query(probe.format(n=34), requester="snoop")
        system.persistence.close()

        recovered = build(path)
        recovered.recover()
        # the guard window is rebuilt from restored history: the probe
        # that was over the limit before the crash is still over it
        with pytest.raises(AuditRefusal):
            recovered.query(probe.format(n=34), requester="snoop")
        with pytest.raises(AuditRefusal):
            recovered.query(probe.format(n=99), requester="snoop")


class TestFigure1AcrossRestart:
    def test_staged_inference_completes_after_the_restart(self, store):
        system = build_system(store)
        observatory = system.observatory
        # release 1 (pre-crash): the snooper's own column
        assert observatory.note_publication(
            "HMO1",
            own_data={"HMO1": dict(zip(FIGURE1.measures,
                                       FIGURE1.hmo1_values))},
        ) == []
        # release 2 (pre-crash): per-test means over all four HMOs
        assert observatory.note_publication(
            "HMO1",
            row_stats={m: (mean, None) for m, mean in
                       zip(FIGURE1.measures, FIGURE1.row_means)},
            sources=FIGURE1.sources,
        ) == []
        system.persistence.close()

        recovered, report = restart(store)
        assert report.alerts == []  # nothing inferable yet, even replayed
        # release 3 (post-restart): the standard deviations — the
        # interval collapses NOW, spanning the crash
        alerts = recovered.observatory.note_publication(
            "HMO1",
            row_stats={m: (mean, std) for m, mean, std in
                       zip(FIGURE1.measures, FIGURE1.row_means,
                           FIGURE1.row_stds)},
            sources=FIGURE1.sources,
        )
        assert alerts, "watch must fire mid-sequence despite the restart"
        assert all(alert.source != "HMO1" for alert in alerts)
        assert all(alert.width < 5.0 for alert in alerts)

    def test_alerts_refire_after_restart_at_least_once(self, store):
        system = build_system(store)
        observatory = system.observatory
        observatory.note_publication(
            "HMO1",
            own_data={"HMO1": dict(zip(FIGURE1.measures,
                                       FIGURE1.hmo1_values))},
            row_stats={m: (mean, std) for m, mean, std in
                       zip(FIGURE1.measures, FIGURE1.row_means,
                           FIGURE1.row_stds)},
            source_means=dict(zip(FIGURE1.sources, FIGURE1.source_means)),
            sources=FIGURE1.sources,
            measures=FIGURE1.measures,
        )
        fired = observatory.watch.alerts
        assert fired
        system.persistence.close()

        # alert dedup state is process-local BY DESIGN: the operator who
        # lost the alert to the crash gets it again on recovery
        _, report = restart(store)
        assert report.alerts
        breached = {(a.measure, a.source) for a in report.alerts}
        assert breached == {(a.measure, a.source) for a in fired}


class TestSnapshotBoundary:
    def test_journal_chain_verifies_across_the_snapshot(self, store):
        """Satellite: chain head folded into the snapshot, tail live."""
        sink = PersistenceSink(WalBackend(store), snapshot_every=None)
        system = build_system(sink)
        system.query(AGGREGATE, requester="epi")
        system.query(AGGREGATE, requester="epi")
        sink.compact_now()  # head of the chain now lives in the snapshot
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(PrivacyViolation):
            system.query(FORBIDDEN, requester="advertiser")
        snapshot, records = sink.load()
        assert len(snapshot["state"]["journal"]) == 2  # head, folded
        tail = [r for r in records if r.get("kind") == "pose"]
        assert len(tail) == 2                          # tail, live
        expected = system.audit_journal().cumulative_loss("epi")
        sink.close()

        recovered, report = restart(store)
        assert report.snapshot_through_seq > 0
        assert report.journal_records == 4
        journal = recovered.audit_journal()
        assert len(journal) == 4
        assert journal.verify_chain() == (True, None)
        assert journal.cumulative_loss("epi") == pytest.approx(expected)

    def test_auto_compaction_round_trips_under_load(self, store):
        sink = PersistenceSink(WalBackend(store), snapshot_every=5)
        system = build_system(sink)
        for _ in range(8):
            system.query(AGGREGATE, requester="epi")
        snapshot, _ = sink.load()
        assert snapshot is not None  # compaction really happened
        expected = system.audit_journal().cumulative_loss("epi")
        sink.close()

        recovered, _ = restart(store)
        journal = recovered.audit_journal()
        assert len(journal) == 8
        assert journal.verify_chain() == (True, None)
        assert journal.cumulative_loss("epi") == pytest.approx(expected)


class TestRefusalsAndGuards:
    def test_recover_requires_persistence(self):
        system = build_system(None)
        with pytest.raises(PersistenceError, match="persistence"):
            system.recover()

    def test_recover_into_a_live_system_is_refused(self, store):
        system = build_system(store)
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(PersistenceError, match="non-empty"):
            system.recover()

    def test_tampered_journal_refuses_recovery(self, tmp_path):
        path = str(tmp_path / "wal-store")
        system = build_system(path)
        system.query(AGGREGATE, requester="epi")
        system.persistence.close()

        log_path = tmp_path / "wal-store" / LOG_NAME
        doctored = []
        tampered = False
        for line in log_path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "pose" and record.get("hash"):
                # quietly shrink the journaled disclosure — the sha256
                # chain must catch exactly this kind of revisionism
                record["chained"]["aggregated_loss"] = 0.0
                tampered = True
            doctored.append(json.dumps(record, sort_keys=True,
                                       separators=(",", ":")))
        assert tampered
        log_path.write_text("\n".join(doctored) + "\n")

        rebuilt = build_system(path)
        with pytest.raises(PersistenceError, match="chain"):
            rebuilt.recover()


    def test_tampered_top_level_losses_refuse_recovery(self, tmp_path):
        """The chain covers the losses the pose record stores, not a copy."""
        path = str(tmp_path / "wal-store")
        system = build_system(path)
        system.query(AGGREGATE, requester="epi")
        system.persistence.close()

        log_path = tmp_path / "wal-store" / LOG_NAME
        doctored = []
        for line in log_path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "pose":
                pose = record["chained"]
                pose["aggregated_loss"] = 0
                pose["per_source_loss"] = {
                    source: 0 for source in pose["per_source_loss"]
                }
            doctored.append(json.dumps(record, sort_keys=True,
                                       separators=(",", ":")))
        log_path.write_text("\n".join(doctored) + "\n")

        rebuilt = build_system(path)
        with pytest.raises(PersistenceError, match="chain"):
            rebuilt.recover()


class TestDifferential:
    def test_answers_identical_persistence_on_vs_off(self, store):
        """Durability must never perturb answers — byte for byte."""
        plain = build_system(None)
        durable = build_system(store)
        queries = [
            (AGGREGATE, "epi"),
            ("SELECT //patient/city PURPOSE research", "bob"),
            (AGGREGATE, "epi"),
        ]
        for text, requester in queries:
            a = plain.query(text, requester=requester)
            b = durable.query(text, requester=requester)
            assert (json.dumps(a.rows, sort_keys=True, default=repr)
                    == json.dumps(b.rows, sort_keys=True, default=repr))
            assert a.aggregated_loss == b.aggregated_loss
            assert a.per_source_loss == b.per_source_loss
        # and the durable side really was recording
        _, records = durable.persistence.load()
        assert sum(1 for r in records if r.get("kind") == "pose") == 3
        durable.persistence.close()

    def test_shared_memory_sink_is_the_simulated_restart(self):
        sink = PersistenceSink(MemoryBackend())
        system = build_system(sink)
        system.query(AGGREGATE, requester="epi")
        expected = system.audit_journal().cumulative_loss("epi")

        rebuilt = build_system(sink)  # pass the same sink: restart story
        report = rebuilt.recover()
        assert report.backend == "memory"
        assert report.cumulative_loss["epi"] == pytest.approx(expected)
