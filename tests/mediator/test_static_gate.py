"""The pre-dispatch static gate: engine wiring, ledger, and metrics."""

import pytest

from repro import PrivateIye
from repro.access import Permission, RbacPolicy, Role
from repro.analysis.plancheck import PlanAnalyzer
from repro.errors import AccessDenied, PrivacyViolation
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

REFUSED = "SELECT AVG(//patient/hba1c) PURPOSE marketing"
ANSWERED = "SELECT //patient/city PURPOSE research"


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


class TestGateWiring:
    def test_gate_is_on_by_default(self):
        system = build_system()
        assert isinstance(system.engine.static_analyzer, PlanAnalyzer)

    def test_gate_can_be_disabled(self):
        system = build_system(static_check=False)
        assert system.engine.static_analyzer is None

    def test_shared_analyzer_instance_accepted(self):
        analyzer = PlanAnalyzer()
        system = build_system(static_check=analyzer)
        assert system.engine.static_analyzer is analyzer

    def test_static_refusal_skips_dispatch_entirely(self):
        system = build_system()
        with pytest.raises(PrivacyViolation):
            system.query(REFUSED, requester="mkt")
        assert all(
            remote.queries_answered == 0
            for remote in system.engine.sources.values()
        )

    def test_refusal_message_same_with_gate_off(self):
        # callers see one refusal contract regardless of where the
        # verdict was decided; only the "decided statically" marker
        # distinguishes the static path
        gated = build_system()
        ungated = build_system(static_check=False)
        with pytest.raises(PrivacyViolation) as static_error:
            gated.query(REFUSED, requester="mkt")
        with pytest.raises(PrivacyViolation) as runtime_error:
            ungated.query(REFUSED, requester="mkt")
        assert "every relevant source refused" in str(static_error.value)
        assert "every relevant source refused" in str(runtime_error.value)
        assert "clinic:" in str(static_error.value)
        assert "clinic:" in str(runtime_error.value)

    def test_gate_off_still_refuses_at_runtime(self):
        system = build_system(static_check=False)
        with pytest.raises(PrivacyViolation, match="every relevant source"):
            system.query(REFUSED, requester="mkt")

    def test_access_denied_propagates_through_gate(self):
        rbac = RbacPolicy()
        rbac.add_role(Role("reader", [Permission("read", "patients.*")]))
        rbac.assign("alice", "reader")
        system = PrivateIye()
        system.load_policies(
            "POLICY solo DEFAULT deny { ALLOW //patient/age FOR research; }"
        )
        table = Table.from_dicts(
            "patients", [{"age": 30 + i} for i in range(10)]
        )
        system.add_relational_source("solo", table, rbac=rbac)
        result = system.query(
            "SELECT //patient/age PURPOSE research", requester="alice"
        )
        assert len(result.rows) == 10
        with pytest.raises(AccessDenied):
            system.query(
                "SELECT //patient/age PURPOSE research", requester="mallory"
            )


class TestGateLedger:
    def test_answered_query_records_static_verdict(self):
        system = build_system(telemetry=True)
        system.query(ANSWERED, requester="r1")
        report = system.explain_last()
        assert report.static is not None
        assert report.static["verdict"] == "SAFE"
        assert set(report.static["per_source"]) == {"clinic", "lab"}

    def test_refused_query_ledger_matches_runtime_shape(self):
        system = build_system(telemetry=True)
        with pytest.raises(PrivacyViolation):
            system.query(REFUSED, requester="mkt")
        report = system.explain_last()
        assert report.status == "refused"
        assert report.static["verdict"] == "REFUSE"
        assert report.refusing_sources() == ["clinic", "lab"]
        assert report.sources["clinic"]["kind"] == "PrivacyViolation"
        assert report.sources["clinic"]["static"] is True
        # the answer tier was never reached
        assert report.cache["answer"] == "off"
        assert report.warehouse is None

    def test_runtime_check_verdict_recorded(self):
        system = build_system(telemetry=True)
        system.query(
            "SELECT AVG(//patient/hba1c) AS mean "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            requester="epi",
        )
        report = system.explain_last()
        assert report.static["verdict"] == "RUNTIME_CHECK"
        assert report.static["runtime_checks"]

    def test_gate_off_leaves_static_section_empty(self):
        system = build_system(telemetry=True, static_check=False)
        system.query(ANSWERED, requester="r1")
        report = system.explain_last()
        assert report.static is None

    def test_report_serializes_with_static_section(self):
        import json

        system = build_system(telemetry=True)
        system.query(ANSWERED, requester="r1")
        data = system.explain_last().to_dict()
        assert data["static"]["verdict"] == "SAFE"
        json.dumps(data)  # the whole ledger stays JSON-serializable


class TestGateMetrics:
    def test_verdict_counters(self):
        system = build_system(telemetry=True)
        metrics = system.telemetry.metrics
        system.query(ANSWERED, requester="r1")
        assert metrics.counter("mediator.static.safe").value == 1
        with pytest.raises(PrivacyViolation):
            system.query(REFUSED, requester="mkt")
        assert metrics.counter("mediator.static.refuse").value == 1

    def test_saved_source_calls_accounted(self):
        system = build_system(telemetry=True)
        with pytest.raises(PrivacyViolation):
            system.query(REFUSED, requester="mkt")
        saved = system.telemetry.metrics.counter(
            "mediator.static.saved_source_calls"
        )
        assert saved.value == 2  # both sources spared a doomed fan-out

    def test_analysis_time_histogram_observed(self):
        system = build_system(telemetry=True)
        system.query(ANSWERED, requester="r1")
        snapshot = system.telemetry.metrics.snapshot()
        histogram = snapshot["histograms"]["mediator.static.analysis_ms"]
        assert histogram["count"] == 1
