"""Settlement: every record of a pose is a projection of one ``PoseRecord``.

The ledger outcome, the ``pose.*`` event, the journal record, the WAL
record and the ``mediator.queries_*`` counters must agree on who posed
what, how it ended, what it cost and under which trace.  The event is
emitted only once the WAL record is durable, for both statuses.  And a
refused pose must not leave a reference cycle through its per-pose plan
memos (memo → refusal → traceback → frame → memo), nor an answered one
any cyclic garbage at all.
"""

import gc

import pytest

from repro import PrivateIye
from repro.errors import PrivacyViolation
from repro.persistence import MemoryBackend, PersistenceSink
from repro.relational import Table
from tests.persistence.test_recovery import AGGREGATE, FORBIDDEN, POLICIES


def build_system(**kwargs):
    system = PrivateIye(**kwargs)
    system.load_policies(
        POLICIES,
        view_source={"clinic_private": "clinic", "lab_private": "lab"},
    )
    for name, base, cities in (("clinic", 60.0, ["pittsburgh", "butler"]),
                               ("lab", 65.0, ["pittsburgh", "erie"])):
        rows = [{"ssn": f"{name}-{i:03d}", "hba1c": base + i % 20,
                 "city": cities[i % 2]} for i in range(24)]
        system.add_relational_source(name,
                                     Table.from_dicts("patients", rows))
    return system


def pose(system, text, requester):
    """Pose once; returns ``(status, error kind or None)``."""
    try:
        system.query(text, requester=requester)
    except PrivacyViolation as error:
        return "refused", type(error).__name__
    return "answered", None


class TestEventFollowsTheWriteAheadPoint:
    @pytest.mark.parametrize("text,status", [(AGGREGATE, "answered"),
                                             (FORBIDDEN, "refused")])
    def test_no_pose_event_before_the_wal_record_is_durable(self, text,
                                                            status):
        seen = []

        def hook(record):
            if record.get("kind") == "pose":
                seen.append([
                    event.name
                    for event in system.telemetry.events.events(name="pose")
                    if event.attributes["fingerprint"]
                    == record["chained"]["fingerprint"]
                ])

        system = build_system(
            telemetry=True, observatory=True,
            persistence=PersistenceSink(MemoryBackend(), crash_hook=hook),
        )
        assert pose(system, text, "epi")[0] == status
        assert seen == [[]]
        # ...and the event does follow once the pose has settled
        emitted = system.telemetry.events.events(name="pose")
        assert [event.name for event in emitted] == [f"pose.{status}"]


class TestProjectionsAgree:
    def test_every_record_of_a_pose_carries_the_same_facts(self):
        backend = MemoryBackend()
        system = build_system(telemetry=True, observatory=True,
                              persistence=PersistenceSink(backend))
        outcomes = [pose(system, AGGREGATE, "epi"),
                    pose(system, FORBIDDEN, "advertiser")]
        assert [status for status, _ in outcomes] == ["answered", "refused"]

        ledgers = system.telemetry.explain.reports()
        events = system.telemetry.events.events(name="pose")
        journal = system.audit_journal().records()
        wal = [r for r in backend.load()[1] if r.get("kind") == "pose"]
        roots = [span for span in system.telemetry.tracer.finished
                 if span.name == "mediator.pose"]
        assert len(ledgers) == len(events) == len(journal) == len(wal) == 2

        for index, (status, kind) in enumerate(outcomes):
            ledger, event = ledgers[index], events[index].attributes
            audit, record = journal[index], wal[index]
            chained = audit.chained
            trace_id = roots[index].trace_id

            # the WAL record carries the journal's chained payload itself
            assert record["chained"] == chained
            assert record["hash"] == audit.hash
            assert ledger.audit is audit
            assert ledger.to_dict()["audit"] == audit.to_dict()
            assert (ledger.requester == event["requester"]
                    == chained["requester"])
            assert (ledger.cache["fingerprint"] == event["fingerprint"]
                    == chained["fingerprint"])
            assert ledger.status == chained["status"] == status
            assert events[index].name == f"pose.{status}"
            assert event["trace_id"] == record["trace_id"] == trace_id
            assert chained["refusal_kind"] == kind
            if status == "answered":
                assert event["aggregated_loss"] == chained["aggregated_loss"]
                assert event["cumulative_loss"] == audit.cumulative_loss
                assert (ledger.control["per_source_loss"]
                        == chained["per_source_loss"])
                assert event["rows"] == ledger.integration["rows"]
                assert chained["rows"] == event["rows"]
                assert ledger.refusal is None
            else:
                assert event["kind"] == ledger.refusal["kind"] == kind
                assert event["reason"] == ledger.refusal["reason"]
                assert chained["refusal_reason"] == event["reason"]
                assert chained["aggregated_loss"] == 0.0
                assert chained["per_source_loss"] == {}
                assert chained["cells"] == []
            # the ledger's events window holds this pose's own event
            assert events[index].to_dict() in ledger.events

        counters = system.metrics_snapshot()["counters"]
        assert counters["mediator.queries_answered"] == 1
        assert counters["mediator.queries_refused"] == 1
        assert counters[f"mediator.refusals.{outcomes[1][1]}"] == 1


def cyclic_garbage(action):
    """Type names of what ``action()`` leaves for the cyclic collector."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


class TestNoCyclesLeftBehind:
    @pytest.mark.parametrize("persistence", [None, True])
    def test_a_refused_pose_leaves_no_frames_or_tracebacks(self,
                                                           persistence):
        system = build_system(persistence=persistence)
        pose(system, AGGREGATE, "warmup")
        pose(system, FORBIDDEN, "warmup")
        # a fresh requester misses the static-verdict tier, so the
        # refusal is compiled (and memoized) during the measured pose
        garbage = cyclic_garbage(
            lambda: pose(system, FORBIDDEN, "advertiser")
        )
        assert not garbage & {"frame", "traceback"}

    @pytest.mark.parametrize("persistence", [None, True])
    def test_an_answered_pose_leaves_no_cyclic_garbage(self, persistence):
        # result documents are acyclic trees: no parent back-pointers
        system = build_system(persistence=persistence)
        pose(system, AGGREGATE, "warmup")
        garbage = cyclic_garbage(lambda: pose(system, AGGREGATE, "epi"))
        assert garbage == set()

    def test_a_refused_batch_leaves_no_frames_or_tracebacks(self):
        system = build_system()
        pose(system, AGGREGATE, "warmup")

        def batch():
            outcomes = system.engine.pose_many(
                [FORBIDDEN, AGGREGATE, FORBIDDEN], requester="advertiser",
            )
            assert [o.ok for o in outcomes] == [False, True, False]

        assert not cyclic_garbage(batch) & {"frame", "traceback"}
