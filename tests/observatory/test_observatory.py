"""The observatory wired through PrivateIye: journal, events, differential."""

import json

import pytest

from repro import PrivateIye
from repro.errors import PrivacyViolation, ReproError
from repro.observatory import Observatory, resolve_observatory
from repro.relational import Table
from repro.telemetry.events import NOOP_EVENTS

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
STATIC_REFUSAL = "SELECT //patient/ssn PURPOSE research"


def build_system(**kwargs):
    system = PrivateIye(**kwargs)
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


class TestJournalIntegration:
    def test_every_pose_is_journaled_answered_and_refused(self):
        system = build_system(telemetry=True, observatory=True)
        system.query(AGGREGATE, requester="epi")
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(PrivacyViolation):
            system.query(FORBIDDEN, requester="advertiser")

        journal = system.audit_journal()
        assert len(journal) == 3
        first, second, third = journal.records()

        assert first.status == "answered"
        assert first.requester == "epi"
        fingerprint = first.chained["fingerprint"]
        assert isinstance(fingerprint, str) and fingerprint
        assert set(first.chained["per_source_loss"]) == {"clinic", "lab"}
        assert first.chained["aggregated_loss"] > 0.0

        # identical queries share a fingerprint; disclosure compounds
        assert second.chained["fingerprint"] == fingerprint
        assert second.cumulative_loss == pytest.approx(
            1.0 - (1.0 - first.chained["aggregated_loss"]) ** 2
        )

        assert third.status == "refused"
        assert third.chained["refusal_kind"] == "PrivacyViolation"
        assert third.chained["aggregated_loss"] == 0.0
        assert third.cumulative_loss == 0.0  # refusals disclose nothing

        assert journal.verify_chain() == (True, None)

    def test_static_refusal_is_journaled_too(self):
        system = build_system(telemetry=True, observatory=True)
        with pytest.raises(ReproError):
            system.query(STATIC_REFUSAL, requester="snoop")
        record = system.audit_journal().last()
        assert record.status == "refused"
        assert record.requester == "snoop"
        assert record.chained["refusal_kind"]

    def test_events_narrate_the_pose_sequence(self):
        system = build_system(telemetry=True, observatory=True)
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(PrivacyViolation):
            system.query(FORBIDDEN, requester="advertiser")
        names = [e.name for e in system.events_tail(50)]
        assert "pose.answered" in names
        assert "pose.refused" in names
        answered = system.telemetry.events.events(name="pose.answered")[0]
        assert answered.attributes["requester"] == "epi"
        assert answered.attributes["rows"] == 2
        assert answered.attributes["cumulative_loss"] == pytest.approx(
            system.audit_journal().cumulative_loss("epi")
        )

    def test_answered_aggregates_feed_the_snooper_ledger(self):
        system = build_system(telemetry=True, observatory=True)
        system.query(AGGREGATE, requester="epi")
        ledger = system.observatory.watch._knowledge["epi"]
        assert set(ledger.cells) == {("mean", "clinic"), ("mean", "lab")}
        assert system.observatory.alerts == []  # both cells were *released*

    def test_explain_report_carries_audit_and_events(self):
        system = build_system(telemetry=True, observatory=True)
        system.query(AGGREGATE, requester="epi")
        document = system.explain_last().to_dict()
        assert document["audit"]["chained"]["status"] == "answered"
        assert document["audit"]["hash"]
        event_names = [e["name"] for e in document["events"]]
        assert "pose.answered" in event_names

        with pytest.raises(PrivacyViolation):
            system.query(FORBIDDEN, requester="advertiser")
        document = system.explain_last().to_dict()
        assert document["audit"]["chained"]["status"] == "refused"
        assert any(e["name"] == "pose.refused" for e in document["events"])

    def test_editing_an_exported_ledger_leaves_the_journal_intact(self):
        system = build_system(telemetry=True, observatory=True)
        system.query(AGGREGATE, requester="epi")
        document = system.explain_last().to_dict()
        document["audit"]["chained"]["requester"] = "someone"
        document["audit"]["chained"]["per_source_loss"].clear()
        assert system.audit_journal().verify_chain() == (True, None)
        assert system.audit_journal().last().requester == "epi"

    def test_observatory_report_shape(self):
        system = build_system(telemetry=True, observatory=True)
        system.query(AGGREGATE, requester="epi")
        report = system.observatory_report()
        assert report["journal"]["records"] == 1
        assert report["journal"]["chain_valid"] is True
        assert report["journal"]["first_bad_seq"] is None
        assert "epi" in report["journal"]["cumulative_loss"]
        assert report["snooper_watch"]["threshold"] == 5.0
        assert report["snooper_watch"]["alerts"] == []
        json.dumps(report)  # the whole report is JSON-serializable


class TestExplainRoundTrip:
    """ISSUE satellite: every section survives json.dumps → json.loads."""

    def pose_all_shapes(self):
        system = build_system(telemetry=True, observatory=True)
        documents = {}
        system.query(AGGREGATE, requester="epi")
        documents["answered"] = system.explain_last().to_dict()
        system.query(AGGREGATE, requester="epi")
        documents["cache_hit"] = system.explain_last().to_dict()
        assert documents["cache_hit"]["warehouse"]["from_cache"] is True
        with pytest.raises(PrivacyViolation):
            system.query(FORBIDDEN, requester="advertiser")
        documents["refused"] = system.explain_last().to_dict()
        with pytest.raises(ReproError):
            system.query(STATIC_REFUSAL, requester="snoop")
        documents["static_refusal"] = system.explain_last().to_dict()
        return documents

    def test_every_report_shape_round_trips(self):
        for shape, document in self.pose_all_shapes().items():
            replayed = json.loads(json.dumps(document))
            assert replayed == document, f"{shape} report mangled by JSON"
            # the observability PR's sections are present in every shape
            assert "audit" in document, shape
            assert "events" in document, shape
            assert document["audit"] is not None, shape


class TestDifferential:
    def test_pose_results_identical_observatory_on_vs_off(self):
        """The observatory must never perturb answers — byte for byte."""
        plain = build_system()
        observed = build_system(telemetry=True, observatory=True,
                                events=True)
        queries = [
            (AGGREGATE, "epi"),
            ("SELECT //patient/city PURPOSE research", "bob"),
            (AGGREGATE, "epi"),  # warehouse hit on both sides
        ]
        for text, requester in queries:
            a = plain.query(text, requester=requester)
            b = observed.query(text, requester=requester)
            assert (json.dumps(a.rows, sort_keys=True, default=repr)
                    == json.dumps(b.rows, sort_keys=True, default=repr))
            assert a.aggregated_loss == b.aggregated_loss
            assert a.per_source_loss == b.per_source_loss
        # and the observed side really was observing
        assert len(observed.audit_journal()) == len(queries)


class TestDisabledAndResolution:
    def test_disabled_by_default(self):
        system = build_system()
        assert system.observatory is None
        assert system.engine.observatory is None
        assert system.audit_journal() is None
        assert system.observatory_report() == {}

    def test_journal_works_without_telemetry(self):
        system = build_system(observatory=True)
        system.query(AGGREGATE, requester="epi")
        assert len(system.audit_journal()) == 1
        assert system.observatory.events is NOOP_EVENTS
        assert system.events_tail() == []

    def test_shared_observatory_pools_the_journal(self):
        shared = Observatory()
        build_system(observatory=shared).query(AGGREGATE, requester="epi")
        build_system(observatory=shared).query(AGGREGATE, requester="epi")
        assert len(shared.journal) == 2
        assert shared.journal.verify_chain() == (True, None)

    def test_resolution_rejects_junk(self):
        assert resolve_observatory(None) is None
        assert resolve_observatory(False) is None
        assert isinstance(resolve_observatory(True), Observatory)
        with pytest.raises(ReproError, match="observatory must be"):
            PrivateIye(observatory="yes")
