"""The cross-pose source-plan tier.

With the mediation cache on, each registered source keeps its compiled
:class:`~repro.source.server.SourcePlan`\\ s (and compile refusals) in
the cache's source-plan tier, keyed without the requester.  These tests
count the compiles across poses, pin every input the key must cover,
hold RBAC to a check on every pose, and replay cached refusals.
"""

import gc

import pytest

from repro import PrivateIye
from repro.access import Permission, RbacPolicy, Role
from repro.errors import AccessDenied, PathError, PrivacyViolation
from repro.query import parse_piql
from repro.relational import Table
from repro.relational.expr import Comparison
from tests.mediator.test_static_gate import POLICIES
from tests.mediator.test_static_gate import build_system as build_gated
from tests.source.test_source_plan import RECORD, REFUSED, count_compiles

AGE = "SELECT //patient/age PURPOSE research"
VIEWS = {"clinic_private": "clinic", "lab_private": "lab"}


def tier_stats(system):
    return system.engine.cache.stats()["rewrite"]


class TestSharedAcrossPoses:
    def test_requesters_share_one_compile(self):
        system = build_gated()
        calls = count_compiles(system)
        first = system.query(RECORD, requester="r1")
        second = system.query(RECORD, requester="r2")
        assert calls == {"clinic": 1, "lab": 1}
        assert repr(second.rows) == repr(first.rows)
        assert tier_stats(system)["hits"] == 2

    def test_the_tier_is_the_caches(self):
        system = build_gated()
        tier = system.engine.cache.source_plans
        assert all(source.plan_tier is tier
                   for source in system.engine.sources.values())

    def test_no_cache_no_tier(self):
        system = build_gated(cache=False)
        assert all(source.plan_tier is None
                   for source in system.engine.sources.values())


def reload_policies(source):
    source.policy_store.load_document(POLICIES, view_source=VIEWS)


def add_purpose(source):
    source.policy_store.purposes.add("cohort-study", "research")


def add_synonym(source):
    source.transformer.mapping.matcher.synonyms.add("city", "town")


def replace_consent(source):
    source.consent_predicate = Comparison("city", "=", "pittsburgh")


class TestInvalidation:
    @pytest.mark.parametrize("change,recompiled", [
        (reload_policies, {"clinic"}),
        # the sources' store replicas share one purpose tree
        (add_purpose, {"clinic", "lab"}),
        (add_synonym, {"clinic"}),
        (replace_consent, {"clinic"}),
    ])
    def test_the_tier_misses_after(self, change, recompiled):
        system = build_gated()
        calls = count_compiles(system)
        system.query(RECORD, requester="r1")
        change(system.engine.sources["clinic"])
        system.query(RECORD, requester="r2")
        assert calls == {name: 2 if name in recompiled else 1
                         for name in ("clinic", "lab")}

    def test_a_replaced_consent_predicate_filters_the_next_pose(self):
        system = build_gated()
        before = system.query(RECORD, requester="r1")
        assert {row["city"] for row in before.rows} >= {"butler"}
        replace_consent(system.engine.sources["clinic"])
        after = system.query(RECORD, requester="r2")
        clinic = {row["city"] for row in after.rows
                  if row["_source"] == "clinic"}
        assert clinic == {"pittsburgh"}

    def test_a_new_synonym_reaches_the_next_compile(self):
        system = build_gated()
        source = system.engine.sources["clinic"]
        town = parse_piql("SELECT //patient/town PURPOSE research")
        with pytest.raises(PathError):
            source.prepare(town, requester="r1")
        add_synonym(source)
        # the path now resolves to a column; no rule grants //patient/town
        with pytest.raises(PrivacyViolation, match="nothing disclosable"):
            source.prepare(town, requester="r2")


def build_rbac(**kwargs):
    rbac = RbacPolicy()
    rbac.add_role(Role("reader", [Permission("read", "patients.*")]))
    rbac.assign("alice", "reader")
    rbac.assign("bob", "reader")
    system = PrivateIye(**kwargs)
    system.load_policies(
        "POLICY solo DEFAULT deny { ALLOW //patient/age FOR research; }"
    )
    table = Table.from_dicts("patients", [{"age": 30 + i} for i in range(10)])
    system.add_relational_source("solo", table, rbac=rbac)
    return system, rbac


class TestRbacOnEveryPose:
    @pytest.mark.parametrize("static_check", [True, False])
    def test_a_revoked_grant_denies_the_next_identical_pose(self,
                                                            static_check):
        system, rbac = build_rbac(static_check=static_check)
        assert len(system.query(AGE, requester="alice").rows) == 10
        rbac.role("reader").permissions.clear()
        with pytest.raises(AccessDenied, match="'alice' may not read"):
            system.query(AGE, requester="alice")

    @pytest.mark.parametrize("static_check", [True, False])
    def test_a_requester_without_a_grant_is_denied_on_a_hit(self,
                                                            static_check):
        system, _ = build_rbac(static_check=static_check)
        calls = count_compiles(system)
        system.query(AGE, requester="alice")
        with pytest.raises(AccessDenied, match="'mallory' may not read"):
            system.query(AGE, requester="mallory")
        assert calls == {"solo": 1}
        assert tier_stats(system)["hits"] >= 1
        # a granted requester is still answered from the same plan
        assert len(system.query(AGE, requester="bob").rows) == 10
        assert calls == {"solo": 1}

    def test_access_denied_is_never_cached(self):
        system, _ = build_rbac()
        with pytest.raises(AccessDenied):
            system.query(AGE, requester="mallory")
        assert len(system.query(AGE, requester="alice").rows) == 10


class TestCachedRefusals:
    def test_a_refusal_replays_the_same_type_and_message(self):
        system = build_gated()
        source = system.engine.sources["clinic"]
        calls = count_compiles(system)
        with pytest.raises(PrivacyViolation) as first:
            source.prepare(parse_piql(REFUSED), requester="m1")
        with pytest.raises(PrivacyViolation) as second:
            source.prepare(parse_piql(REFUSED), requester="m2")
        assert calls["clinic"] == 1
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        # each pose gets its own exception: the tier's is never raised
        assert second.value is not first.value

    def test_a_refused_pose_replays_the_same_refusal(self):
        system = build_gated()
        calls = count_compiles(system)
        messages = []
        for requester in ("m1", "m2"):
            with pytest.raises(PrivacyViolation) as refused:
                system.query(REFUSED, requester=requester)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        assert calls == {"clinic": 1, "lab": 1}

    def test_a_refused_compile_leaves_no_cyclic_garbage(self):
        system = build_gated()
        system.query(RECORD, requester="warmup")

        def refused(requester):
            try:
                system.query(REFUSED, requester=requester)
            except PrivacyViolation:
                return
            raise AssertionError("the query was answered")

        for requester in ("miss", "hit"):   # a compile, then a tier hit
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                refused(requester)
                assert gc.collect() == 0, {
                    type(obj).__name__ for obj in gc.garbage
                }
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
