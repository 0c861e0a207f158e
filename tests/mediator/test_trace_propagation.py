"""Acceptance: one trace id spans a pose across every thread it touches.

The performance-observatory contract — a single ``pose()`` produces one
``trace_id`` that is visible on:

* the ``mediator.pose`` root span (the posing thread);
* every ``mediator.fanout.attempt`` span, which the dispatcher runs
  in-line or, for a source that can block, on a pool worker thread;
* the persisted pose record, which the posing thread itself appends —
  the id rides the record, so a WAL line joins its pose's trace
  without any live span crossing into the store.
"""

import threading

import pytest

from repro import PrivateIye
from repro.errors import ReproError
from repro.persistence import MemoryBackend
from repro.relational import Table

POLICIES = """
VIEW clinic_private { PRIVATE //patient/ssn; }
VIEW lab_private { PRIVATE //patient/ssn; }

POLICY clinic DEFAULT deny {
    ALLOW //patient/city FOR research;
}
POLICY lab DEFAULT deny {
    ALLOW //patient/city FOR research;
}
"""

QUERY = "SELECT //patient/city PURPOSE research MAXLOSS 0.9"


class ThreadRecordingBackend(MemoryBackend):
    """MemoryBackend that records which thread ran each append."""

    def __init__(self):
        super().__init__()
        self.append_threads = []

    def append(self, record, line=None):
        self.append_threads.append(threading.current_thread().name)
        return super().append(record, line)


def build_system(backend):
    system = PrivateIye(telemetry=True, persistence=backend)
    system.load_policies(
        POLICIES,
        view_source={"clinic_private": "clinic", "lab_private": "lab"},
    )
    for name in ("clinic", "lab"):
        rows = [{"ssn": f"{name}-{i}", "city": "pittsburgh"}
                for i in range(6)]
        system.add_relational_source(
            name, Table.from_dicts("patients", rows)
        )
    return system


def spans_named(roots, name):
    found = []
    for root in roots:
        for span in root.walk():
            if span.name == name:
                found.append(span)
    return found


class TestOneTraceIdAcrossThreads:
    def test_pose_fanout_and_wal_share_one_trace_id(self):
        backend = ThreadRecordingBackend()
        system = build_system(backend)
        result = system.engine.pose(QUERY, requester="epi")
        assert result.rows
        finished = system.telemetry.tracer.finished
        poses = spans_named(finished, "mediator.pose")
        assert len(poses) == 1
        trace_id = poses[0].trace_id
        assert trace_id is not None

        # every fan-out attempt (in-line on the posing thread here: the
        # sources are in-process tables) carries the pose's id — one per
        # source here.
        attempts = spans_named(finished, "mediator.fanout.attempt")
        assert len(attempts) == 2
        assert {span.trace_id for span in attempts} == {trace_id}

        # the durable record carries the id, and the posing thread is
        # the only one that ever appended to the store.
        _, records = backend.load()
        pose_records = [r for r in records if r.get("kind") == "pose"]
        assert pose_records
        assert {r["trace_id"] for r in pose_records} == {trace_id}
        assert set(backend.append_threads) == {
            threading.current_thread().name
        }

    def test_two_poses_get_two_trace_ids(self):
        backend = ThreadRecordingBackend()
        system = build_system(backend)
        system.engine.pose(QUERY, requester="epi")
        system.engine.pose(QUERY, requester="epi2")
        finished = system.telemetry.tracer.finished
        ids = {span.trace_id
               for span in spans_named(finished, "mediator.pose")}
        assert len(ids) == 2
        _, records = backend.load()
        record_ids = {r["trace_id"] for r in records
                      if r.get("kind") == "pose"}
        assert record_ids == ids

    def test_refused_pose_record_is_traced_too(self):
        backend = ThreadRecordingBackend()
        system = build_system(backend)
        with pytest.raises(ReproError):
            system.engine.pose(
                "SELECT //patient/ssn PURPOSE research", requester="snoop"
            )
        poses = spans_named(system.telemetry.tracer.finished,
                            "mediator.pose")
        assert len(poses) == 1
        _, records = backend.load()
        refused = [r for r in records if r.get("kind") == "pose"
                   and r["chained"]["status"] == "refused"]
        assert len(refused) == 1
        assert refused[0]["chained"]["requester"] == "snoop"
        assert refused[0]["trace_id"] == poses[0].trace_id
