"""Verdict tests for the static plan analyzer (repro.analysis.plancheck)."""

import pytest

from repro import PrivateIye
from repro.analysis.plancheck import (
    ANSWERS,
    REFUSE,
    REFUSES,
    RUNTIME,
    RUNTIME_CHECK,
    SAFE,
    PlanAnalyzer,
    resolve_static_check,
)
from repro.errors import IntegrationError, QueryError
from repro.query.language import parse_piql
from repro.relational import Table
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType

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
    ALLOW //patient/age FOR research;
}

POLICY lab DEFAULT deny {
    DENY //patient/ssn FOR *;
    ALLOW //patient/hba1c FOR public-health-research FORM aggregate MAXLOSS 0.6;
    ALLOW //patient/city FOR research;
    ALLOW //patient/age FOR research;
}
"""


def build_system(**kwargs):
    system = PrivateIye(**kwargs)
    system.load_policies(
        POLICIES,
        view_source={"clinic_private": "clinic", "lab_private": "lab"},
    )
    clinic_rows = [
        {"ssn": f"1-{i:03d}", "hba1c": 60.0 + i % 25, "age": 30 + i % 40,
         "city": ["pittsburgh", "butler"][i % 2]}
        for i in range(30)
    ]
    lab_rows = [
        {"ssn": f"2-{i:03d}", "hba1c": 65.0 + i % 20, "age": 25 + i % 45,
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


class TestSafeVerdict:
    def test_record_level_query_is_safe(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert verdict.verdict == SAFE
        assert {o.status for o in verdict.per_source.values()} == {ANSWERS}
        assert verdict.runtime_checks == []
        assert verdict.reason is None

    def test_safe_verdict_carries_loss_bound(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        # bound is 1 - Π(1 - loss_i) over both answering sources
        losses = [o.loss for o in verdict.per_source.values()]
        expected = 1.0
        for loss in losses:
            expected *= 1.0 - loss
        assert verdict.aggregated_bound == pytest.approx(1.0 - expected)
        assert 0.0 < verdict.aggregated_bound < verdict.max_loss

    def test_analysis_is_timed(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert verdict.analysis_ms > 0.0

    def test_safe_query_actually_answers(self):
        system = build_system()
        result = system.query(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert result.rows


class TestRefuseVerdict:
    def test_wrong_purpose_refused_statically(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) PURPOSE marketing", requester="m1"
        )
        assert verdict.verdict == REFUSE
        assert "every relevant source refused" in verdict.reason
        assert verdict.refusing_sources == ["clinic", "lab"]
        assert verdict.source == "clinic"
        for outcome in verdict.per_source.values():
            assert outcome.status == REFUSES
            assert outcome.refusal_kind == "PrivacyViolation"

    def test_reason_names_every_source(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) PURPOSE marketing", requester="m1"
        )
        assert "clinic:" in verdict.reason
        assert "lab:" in verdict.reason

    def test_aggregated_maxloss_refused_statically(self):
        # each source's loss fits its own grant, but the compound
        # 1 - Π(1 - loss_i) exceeds the requester's MAXLOSS
        system = build_system()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research MAXLOSS 0.04",
            requester="r1",
        )
        assert verdict.verdict == REFUSE
        assert "exceeds the requester's MAXLOSS" in verdict.reason
        assert {o.status for o in verdict.per_source.values()} == {ANSWERS}
        assert verdict.aggregated_bound > 0.04

    def test_per_source_budget_refusal_mirrors_optimizer(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research MAXLOSS 0.01",
            requester="r1",
        )
        assert verdict.verdict == REFUSE
        assert "refusing before execution" in verdict.reason

    def test_empty_table_refuses_aggregate_statically(self):
        empty = Table(TableSchema("patients", [
            Column("ssn", ColumnType("text")),
            Column("hba1c", ColumnType("float")),
        ]))
        system = PrivateIye()
        system.load_policies(
            """
            VIEW e_private {
                PRIVATE //patient/ssn;
                PRIVATE //patient/hba1c FORM aggregate;
            }
            POLICY empty DEFAULT deny {
                ALLOW //patient/hba1c FOR research FORM aggregate;
            }
            """,
            view_source={"e_private": "empty"},
        )
        system.add_relational_source("empty", empty)
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) PURPOSE research", requester="r1"
        )
        assert verdict.verdict == REFUSE
        assert "empty query set" in verdict.reason


class TestRuntimeCheckVerdict:
    def test_aggregate_with_where_defers_query_set_checks(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) WHERE //patient/age > 40 "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            requester="epi",
        )
        assert verdict.verdict == RUNTIME_CHECK
        assert {o.status for o in verdict.per_source.values()} == {RUNTIME}
        assert any("query set non-empty" in check
                   for check in verdict.runtime_checks)

    def test_audit_trail_check_is_history_dependent(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            requester="epi",
        )
        assert verdict.verdict == RUNTIME_CHECK
        assert any("audit trail" in check
                   for check in verdict.runtime_checks)

    def test_overlap_control_defers_to_runtime(self):
        system = build_system()
        for remote in system.engine.sources.values():
            remote.enable_overlap_control(5)
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) "
            "PURPOSE outbreak-surveillance MAXLOSS 0.6",
            requester="epi",
        )
        assert verdict.verdict == RUNTIME_CHECK
        assert any("answered set" in check
                   for check in verdict.runtime_checks)

    def test_record_level_query_skips_sequence_defenses(self):
        system = build_system()
        for remote in system.engine.sources.values():
            remote.enable_overlap_control(5)
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        # overlap/audit defenses only guard aggregates
        assert verdict.verdict == SAFE

    def test_unanalyzable_source_defers_soundly(self):
        class Opaque:
            name = "clinic"

            def answer(self, piql, requester=None, role=None, subjects=(),
                       shared=None):
                return None

        system = build_system()
        system.mediated_schema()  # build before swapping in the double
        system.engine.sources["clinic"] = Opaque()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert verdict.verdict == RUNTIME_CHECK
        assert verdict.per_source["clinic"].status == RUNTIME
        assert any("not statically analyzable" in check
                   for check in verdict.runtime_checks)


class TestVerdictSerialization:
    def test_to_dict_shape(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        data = verdict.to_dict()
        assert data["verdict"] == SAFE
        assert set(data["per_source"]) == {"clinic", "lab"}
        for outcome in data["per_source"].values():
            assert outcome["status"] == ANSWERS
            assert outcome["labels"]  # taint labels serialized too
        assert data["aggregated_bound"] == verdict.aggregated_bound
        assert data["analysis_ms"] == verdict.analysis_ms

    def test_refuse_to_dict_keeps_reasons(self):
        system = build_system()
        verdict = system.analyze(
            "SELECT AVG(//patient/hba1c) PURPOSE marketing", requester="m1"
        )
        data = verdict.to_dict()
        assert data["verdict"] == REFUSE
        assert data["source"] == "clinic"
        refusals = {name: outcome["refusal_reason"]
                    for name, outcome in data["per_source"].items()}
        assert all(reason for reason in refusals.values())


class TestAnalyzeEntryPoints:
    def test_accepts_parsed_query(self):
        system = build_system()
        query = parse_piql("SELECT //patient/city PURPOSE research")
        verdict = system.analyze(query, requester="r1")
        assert verdict.verdict == SAFE

    def test_rejects_non_query_input(self):
        system = build_system()
        with pytest.raises(IntegrationError):
            system.engine.analyze(42)

    def test_analyze_never_contacts_sources(self):
        system = build_system()
        system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert all(
            remote.queries_answered == 0
            for remote in system.engine.sources.values()
        )

    def test_analyze_records_no_history(self):
        system = build_system()
        system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert system.history("r1") == []

    def test_analyze_works_with_gate_disabled(self):
        system = build_system(static_check=False)
        verdict = system.analyze(
            "SELECT //patient/city PURPOSE research", requester="r1"
        )
        assert verdict.verdict == SAFE


class TestResolveStaticCheck:
    def test_default_and_true_build_analyzer(self):
        assert isinstance(resolve_static_check(None), PlanAnalyzer)
        assert isinstance(resolve_static_check(True), PlanAnalyzer)

    def test_false_disables(self):
        assert resolve_static_check(False) is None

    def test_instance_passes_through(self):
        analyzer = PlanAnalyzer()
        assert resolve_static_check(analyzer) is analyzer

    def test_anything_else_rejected(self):
        with pytest.raises(QueryError):
            resolve_static_check("yes")
