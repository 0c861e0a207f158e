"""One compiled :class:`SourcePlan` per source per pose.

The static gate, the source and the batch path share one compile of
transform → policy → rewrite → consent fold: whichever of the gate and
the source runs first writes the engine's per-pose memo, the other reads
it.  These tests count the compiles and the renders of the memo key,
pin what the memo keys on, and hold the budget refusal ahead of the
recording sequence defenses.
"""

import dataclasses

import pytest

from repro.errors import PrivacyViolation
from repro.query import parse_piql
from repro.source import server
from repro.source.server import SourcePlan
from tests.analysis.test_differential import build_system as build_ungated
from tests.mediator.test_static_gate import build_system as build_gated

RECORD = "SELECT //patient/city PURPOSE research"
REFUSED = "SELECT AVG(//patient/hba1c) PURPOSE marketing"
BUDGET_REFUSED = ("SELECT SUM(//patient/hba1c) WHERE //patient/age > 40 "
                  "PURPOSE public-health-research MAXLOSS 0.001")


def count_compiles(system):
    """Wrap every source's transformer; returns name → call count."""
    calls = {}
    for name, source in system.engine.sources.items():
        transformer = source.transformer
        original = transformer.transform
        calls[name] = 0

        def transform(piql, _name=name, _original=original):
            calls[_name] += 1
            return _original(piql)

        transformer.transform = transform
    return calls


class TestPrepare:
    def test_plan_is_frozen(self):
        system = build_gated()
        source = system.engine.sources["clinic"]
        plan = source.prepare(parse_piql(RECORD), requester="r1")
        assert isinstance(plan, SourcePlan)
        assert plan.query.columns == ["city"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.query = None

    def test_memo_serves_maxloss_variants(self):
        system = build_gated()
        source = system.engine.sources["clinic"]
        calls = count_compiles(system)
        memo = {}
        first = source.prepare(parse_piql(RECORD + " MAXLOSS 0.9"),
                               requester="r1", memo=memo)
        second = source.prepare(parse_piql(RECORD + " MAXLOSS 0.5"),
                                requester="r1", memo=memo)
        assert second is first
        assert calls["clinic"] == 1
        # the requester is not in the key: another one shares the plan
        third = source.prepare(parse_piql(RECORD), requester="r2", memo=memo)
        assert third is first
        assert calls["clinic"] == 1
        # another role compiles its own plan
        source.prepare(parse_piql(RECORD), requester="r1", role="auditor",
                       memo=memo)
        assert calls["clinic"] == 2

    def test_memo_pins_the_policy_version(self):
        system = build_gated()
        source = system.engine.sources["clinic"]
        memo = {}
        first = source.prepare(parse_piql(RECORD), requester="r1", memo=memo)
        source.policy_store.version += 1
        second = source.prepare(parse_piql(RECORD), requester="r1", memo=memo)
        assert second is not first
        assert second.key != first.key

    def test_refusal_replays_as_the_same_exception(self):
        system = build_gated()
        source = system.engine.sources["clinic"]
        calls = count_compiles(system)
        memo = {}
        with pytest.raises(PrivacyViolation) as first:
            source.prepare(parse_piql(REFUSED), requester="m1", memo=memo)
        with pytest.raises(PrivacyViolation) as second:
            source.prepare(parse_piql(REFUSED), requester="m1", memo=memo)
        assert second.value is first.value
        assert calls["clinic"] == 1


class TestOneCompilePerPose:
    def test_cold_pose_compiles_each_source_once(self):
        system = build_gated()
        calls = count_compiles(system)
        system.query(RECORD, requester="r1")
        assert calls == {"clinic": 1, "lab": 1}

    def test_gate_off_compiles_in_the_source(self):
        system = build_gated(static_check=False)
        calls = count_compiles(system)
        system.query(RECORD, requester="r1")
        assert calls == {"clinic": 1, "lab": 1}

    def test_static_refusal_compiles_once(self):
        system = build_gated()
        calls = count_compiles(system)
        with pytest.raises(PrivacyViolation):
            system.query(REFUSED, requester="m1")
        assert calls == {"clinic": 1, "lab": 1}

    def test_batch_compiles_once_across_maxloss_variants(self):
        system = build_gated()
        calls = count_compiles(system)
        texts = [f"{RECORD} MAXLOSS {loss}" for loss in (0.9, 0.8, 0.7)]
        outcomes = system.pose_many(texts, requester="r1")
        assert all(outcome.ok for outcome in outcomes)
        assert calls == {"clinic": 1, "lab": 1}

    def test_poses_do_not_share_plans(self):
        # no cross-pose memo: a later pose re-checks RBAC and consent
        system = build_gated(cache=False)
        calls = count_compiles(system)
        system.query(RECORD, requester="r1")
        system.query(RECORD, requester="r1")
        assert calls == {"clinic": 2, "lab": 2}


def count_renders(monkeypatch):
    """Count the plan-memo key renders; returns a one-item list."""
    renders = [0]
    original = server.piql_without_maxloss

    def render(piql):
        renders[0] += 1
        return original(piql)

    monkeypatch.setattr(server, "piql_without_maxloss", render)
    return renders


class TestKeyRenderedOncePerFragment:
    """The gate and the source share one render of each fragment's key."""

    def test_pose_renders_each_fragment_once(self, monkeypatch):
        system = build_gated()
        renders = count_renders(monkeypatch)
        system.query(RECORD, requester="r1")
        assert renders == [2]   # one fragment per source

    def test_batch_renders_each_fragment_once(self, monkeypatch):
        system = build_gated()
        renders = count_renders(monkeypatch)
        texts = [f"{RECORD} MAXLOSS {loss}" for loss in (0.9, 0.8, 0.7)]
        outcomes = system.pose_many(texts, requester="r1")
        assert all(outcome.ok for outcome in outcomes)
        assert renders == [6]   # three queries, one fragment per source


class TestBudgetBeforeRecordingDefenses:
    def test_budget_refused_aggregate_is_not_recorded(self):
        system = build_ungated()
        clinic = system.engine.sources["clinic"]
        clinic.enable_overlap_control(3)
        with pytest.raises(PrivacyViolation, match="exceeds budget"):
            system.query(BUDGET_REFUSED, requester="tight")
        assert clinic.overlap.answered == []
        assert clinic.auditor.answered == []
        # nothing was released, so a fresh requester within budget is
        # answered by clinic instead of refused for overlap
        result = system.query(
            BUDGET_REFUSED.replace("MAXLOSS 0.001", "MAXLOSS 0.6"),
            requester="fresh",
        )
        assert "clinic" in {row["_source"] for row in result.rows}
        assert len(clinic.overlap.answered) == 1
