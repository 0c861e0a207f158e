"""End-to-end explain reports: the privacy ledger of a ``pose()`` call."""

import pytest

from repro import AuditRefusal, PrivacyViolation, PrivateIye
from repro.analysis.plancheck import PlanVerdict
from repro.query.language import parse_piql, to_piql
from repro.errors import PathError, Refusal
from repro.relational import Table
from repro.telemetry import NOOP, Telemetry, resolve_telemetry
from repro.telemetry.explain import ExplainReport

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


def build_system(telemetry=True):
    system = PrivateIye(telemetry=telemetry)
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


class TestAnsweredQueryLedger:
    def test_report_covers_every_pipeline_stage(self):
        system = build_system()
        result = system.query(AGGREGATE, requester="epi")
        report = system.explain_last()

        assert report.status == "answered"
        assert report.requester == "epi"
        assert report.fragmentation["sources"] == ["clinic", "lab"]
        assert report.fragmentation["attributes"] == ["hba1c"]
        assert report.sequence_guard == {"verdict": "pass", "reason": None}
        assert report.warehouse["from_cache"] is False
        assert report.warehouse["source_calls"] == 2
        for name in ("clinic", "lab"):
            outcome = report.sources[name]
            assert outcome["outcome"] == "answered"
            assert outcome["loss_budget"] == pytest.approx(0.6)
            assert 0.0 <= outcome["privacy_loss"] <= 1.0
            assert outcome["strategy"]
        assert report.integration["rows"] == len(result.rows)
        assert report.control["aggregated_loss"] == pytest.approx(
            result.aggregated_loss
        )
        assert report.control["max_loss"] == pytest.approx(0.6)
        assert report.control["within_budget"] is True
        assert report.duration_ms > 0.0
        assert report.to_dict()["status"] == "answered"

    def test_second_identical_query_is_a_warehouse_hit(self):
        system = build_system()
        system.query(AGGREGATE, requester="epi")
        system.query(AGGREGATE, requester="epi")
        report = system.explain_last()
        assert report.warehouse["from_cache"] is True
        # cache hit: the sources were never consulted this time
        assert report.sources == {}
        snapshot = system.metrics_snapshot()
        assert snapshot["counters"]["warehouse.hits"] == 1
        assert snapshot["counters"]["warehouse.misses"] == 1

    def test_static_section_is_rendered_once_per_verdict(self,
                                                         monkeypatch):
        renders = []
        original = PlanVerdict.to_dict

        def to_dict(verdict):
            renders.append(verdict)
            return original(verdict)

        monkeypatch.setattr(PlanVerdict, "to_dict", to_dict)
        system = build_system()
        for _ in range(3):   # the static tier serves poses 2 and 3
            system.query(AGGREGATE, requester="epi")
        first, *rest = system.telemetry.explain.reports()
        # read every ledger's section first: reading renders it at most
        # once per verdict, however many ledgers and reads share it
        assert all(report.static == first.static for report in rest)
        assert len(renders) == 1
        assert first.query == AGGREGATE

    def test_exported_ledger_shares_no_state(self):
        system = build_system()
        system.query(AGGREGATE, requester="epi")
        exported = system.explain_last().to_dict()
        exported["static"]["verdict"] = "DOCTORED"
        exported["sources"]["clinic"]["outcome"] = "DOCTORED"
        exported["cache"]["epochs"]["policy"] = -1
        report = system.explain_last()
        assert report.sources["clinic"]["outcome"] == "answered"
        assert report.to_dict()["cache"]["epochs"]["policy"] >= 0
        # the static tier serves the next identical pose the same verdict
        system.query(AGGREGATE, requester="epi")
        assert system.explain_last().cache["static"] == "hit"
        assert system.explain_last().static["verdict"] == "RUNTIME_CHECK"

    @pytest.mark.parametrize("conjuncts", [
        ("//patient/city = 'erie'", "//patient/city != 'butler'"),
        ("//patient/city != 'butler'", "//patient/city = 'erie'"),
    ])
    def test_ledger_keeps_the_posed_conjunct_order(self, conjuncts):
        # one order is canonical (its text is reused), the other is not
        text = (f"SELECT //patient/city WHERE {' AND '.join(conjuncts)} "
                "PURPOSE research")
        system = build_system()
        system.query(text, requester="epi")
        assert system.explain_last().query == to_piql(parse_piql(text))

    def test_explain_last_filters_by_requester(self):
        system = build_system()
        system.query(AGGREGATE, requester="alice")
        system.query(
            "SELECT //patient/city PURPOSE research", requester="bob"
        )
        assert system.explain_last("alice").requester == "alice"
        assert system.explain_last().requester == "bob"
        assert system.explain_last("nobody") is None


class TestRefusedQueryLedger:
    def test_source_refusals_name_source_kind_and_reason(self):
        system = build_system()
        with pytest.raises(PrivacyViolation):
            system.query(
                "SELECT AVG(//patient/hba1c) PURPOSE marketing",
                requester="advertiser",
            )
        report = system.explain_last()
        assert report.status == "refused"
        assert report.refusal["kind"] == "PrivacyViolation"
        assert report.refusing_sources() == ["clinic", "lab"]
        assert report.sources["clinic"]["kind"] == "PrivacyViolation"
        assert "clinic" in report.sources["clinic"]["reason"]
        # refused statically, before the answer tier: no warehouse leg
        assert report.static["verdict"] == "REFUSE"
        assert report.cache["answer"] == "off"
        assert report.warehouse is None

    def test_guard_refusal_records_verdict_and_reason(self):
        system = build_system()
        system.engine.max_distinct_probes = 1
        probe = (
            "SELECT AVG(//patient/hba1c) AS mean "
            "WHERE //patient/city = '{city}' "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6"
        )
        system.query(probe.format(city="pittsburgh"), requester="snooper")
        with pytest.raises(AuditRefusal):
            system.query(probe.format(city="butler"), requester="snooper")
        report = system.explain_last()
        assert report.status == "refused"
        assert report.refusal["kind"] == "AuditRefusal"
        assert report.sequence_guard["verdict"] == "refused"
        # the guard's reason names the probed attribute and the limit
        assert "hba1c" in report.sequence_guard["reason"]
        assert "distinct" in report.sequence_guard["reason"]
        assert report.refusal["reason"] == report.sequence_guard["reason"]

    def test_refusal_kind_distinguishes_path_errors_from_policy(self):
        system = build_system()
        original = system.source("lab").answer

        def broken(piql, **kwargs):
            raise PathError("lab cannot resolve //patient/hba1c")

        system.source("lab").answer = broken
        try:
            result = system.query(AGGREGATE, requester="epi")
        finally:
            system.source("lab").answer = original

        refusal = result.refused_sources["lab"]
        assert isinstance(refusal, Refusal)
        assert refusal.kind == "PathError"
        assert not refusal.is_policy
        assert refusal == "lab cannot resolve //patient/hba1c"  # str compat
        report = system.explain_last()
        assert report.sources["lab"]["kind"] == "PathError"
        assert report.sources["clinic"]["outcome"] == "answered"

    def test_policy_refusal_kind_is_policy(self):
        refusal = Refusal.from_exception(PrivacyViolation("nope"))
        assert refusal.kind == "PrivacyViolation"
        assert refusal.is_policy
        assert str(refusal) == "nope"


class TestDisabledTelemetry:
    def test_noop_mode_accumulates_no_report_state(self, monkeypatch):
        built = []
        original = ExplainReport.__init__

        def init(report, *args):
            built.append(report)
            original(report, *args)

        monkeypatch.setattr(ExplainReport, "__init__", init)
        system = build_system(telemetry=False)
        system.query(AGGREGATE, requester="epi")
        with pytest.raises(PrivacyViolation):
            system.query(
                "SELECT AVG(//patient/hba1c) PURPOSE marketing",
                requester="ad",
            )
        assert system.explain_last() is None
        assert system.last_trace() is None
        assert system.metrics_snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        telemetry = system.telemetry
        assert telemetry is NOOP
        assert len(telemetry.explain) == 0
        # a telemetry-off pose builds no ledger at all
        assert built == []

    def test_default_is_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        system = build_system(telemetry=None)
        assert system.telemetry is NOOP
        assert not system.telemetry.enabled

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        telemetry = resolve_telemetry(None)
        assert telemetry.enabled
        assert telemetry is not NOOP

    def test_resolve_passes_instances_through(self):
        telemetry = Telemetry(enabled=True)
        assert resolve_telemetry(telemetry) is telemetry
        with pytest.raises(TypeError):
            resolve_telemetry("yes")


class TestSharedTelemetry:
    def test_sources_adopt_the_engine_instance(self):
        system = build_system()
        assert system.source("clinic").telemetry is system.telemetry
        assert system.source("lab").telemetry is system.telemetry
        assert system.engine.warehouse.telemetry is system.telemetry

    def test_trace_nests_source_stages_under_pose(self):
        system = build_system()
        system.query(AGGREGATE, requester="epi")
        root = system.last_trace()
        assert root.name == "mediator.pose"
        names = [span.name for span in root.walk()]
        for expected in ("mediator.fragment", "mediator.sequence_guard",
                         "mediator.warehouse", "source.answer",
                         "source.rewrite", "source.execute",
                         "mediator.integrate", "mediator.privacy_control"):
            assert expected in names
        assert names.count("source.answer") == 2
