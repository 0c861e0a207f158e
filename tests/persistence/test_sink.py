"""PersistenceSink: write-ahead ordering, sequencing, compaction, resolution."""

import pytest

from repro.errors import PersistenceError
from repro.mediator.engine import PoseRecord
from repro.persistence import (
    KIND_EPOCH,
    KIND_POSE,
    KIND_PUBLICATION,
    MemoryBackend,
    PersistenceSink,
    resolve_persistence,
)
from repro.persistence.wal import WalBackend


def pose(requester):
    """A minimal answered pose record."""
    return PoseRecord(requester, "f" * 32, "answered", None, None, None,
                      None, {}, 0.0, (), 0, 0, 0.0)


class TestRecording:
    def test_records_carry_kind_and_monotonic_seq(self):
        sink = PersistenceSink(MemoryBackend())
        first = sink.record_pose(pose("epi"))
        second = sink.record_epoch("schema", 3)
        third = sink.record_publication("HMO1", source_means={"HMO2": 6.1})
        assert (first, second, third) == (1, 2, 3)
        _, records = sink.load()
        assert [r["kind"] for r in records] == [
            KIND_POSE, KIND_EPOCH, KIND_PUBLICATION,
        ]
        assert records[0]["chained"]["requester"] == "epi"
        assert records[1] == {"kind": KIND_EPOCH, "name": "schema",
                              "value": 3, "seq": 2}
        assert records[2]["source_means"] == {"HMO2": 6.1}

    def test_publication_row_stats_become_json_safe_lists(self):
        sink = PersistenceSink(MemoryBackend())
        sink.record_publication("HMO1", row_stats={"HbA1c": (6.2, 0.3)},
                                sources=("a", "b"))
        _, records = sink.load()
        assert records[0]["row_stats"] == {"HbA1c": [6.2, 0.3]}
        assert records[0]["sources"] == ["a", "b"]

    def test_seq_resumes_from_existing_store(self):
        backend = MemoryBackend()
        PersistenceSink(backend).record_pose(pose("a"))
        reopened = PersistenceSink(backend)
        assert reopened.record_pose(pose("b")) == 2

    def test_suspended_drops_appends(self):
        sink = PersistenceSink(MemoryBackend())
        sink.record_pose(pose("epi"))
        with sink.suspended():
            assert sink.record_pose(pose("replayed")) is None
        sink.record_pose(pose("epi"))
        _, records = sink.load()
        assert [r["seq"] for r in records] == [1, 2]
        assert all(r["chained"]["requester"] != "replayed"
                   for r in records)


class TestWriteAheadWindow:
    def test_crash_hook_runs_after_durable_append(self):
        """The hook fires with the record already on the medium."""
        backend = MemoryBackend()
        seen = []

        def hook(record):
            _, records = backend.load()
            seen.append((record["seq"], [r["seq"] for r in records]))

        sink = PersistenceSink(backend, crash_hook=hook)
        sink.record_pose(pose("epi"))
        assert seen == [(1, [1])]  # durable before the hook observed it

    def test_hook_raise_simulates_crash_but_record_is_charged(self):
        class Boom(BaseException):
            pass

        backend = MemoryBackend()

        def hook(record):
            raise Boom()

        sink = PersistenceSink(backend, crash_hook=hook)
        with pytest.raises(Boom):
            sink.record_pose(pose("epi"))
        _, records = backend.load()
        assert [r["seq"] for r in records] == [1]  # charged, not released


class TestCompaction:
    def test_auto_compacts_every_n_records(self):
        backend = MemoryBackend()
        sink = PersistenceSink(backend, snapshot_every=3)
        sink.state_provider = lambda: {"version": 1, "mark": "auto"}
        for _ in range(7):
            sink.record_pose(pose("epi"))
        snapshot, records = sink.load()
        assert snapshot["through_seq"] == 6  # compacted at 3 and 6
        assert snapshot["state"]["mark"] == "auto"
        assert [r["seq"] for r in records] == [7]

    def test_no_auto_compaction_without_state_provider(self):
        sink = PersistenceSink(MemoryBackend(), snapshot_every=2)
        for _ in range(5):
            sink.record_pose(pose("epi"))
        snapshot, records = sink.load()
        assert snapshot is None
        assert len(records) == 5

    def test_compact_now_requires_state_provider(self):
        sink = PersistenceSink(MemoryBackend())
        with pytest.raises(PersistenceError, match="state_provider"):
            sink.compact_now()

    def test_compact_now_folds_everything_so_far(self):
        sink = PersistenceSink(MemoryBackend(), snapshot_every=None)
        sink.state_provider = lambda: {"version": 1}
        sink.record_pose(pose("epi"))
        sink.record_pose(pose("epi"))
        assert sink.compact_now() == 2
        snapshot, records = sink.load()
        assert snapshot["through_seq"] == 2
        assert records == []


class TestResolution:
    def test_disabled_shapes(self):
        assert resolve_persistence(None) is None
        assert resolve_persistence(False) is None

    def test_true_means_memory(self):
        sink = resolve_persistence(True)
        assert isinstance(sink, PersistenceSink)
        assert isinstance(sink.backend, MemoryBackend)

    def test_path_shapes_select_backends(self, tmp_path):
        # every path string is a WAL directory, whatever its suffix
        sinks = [resolve_persistence(str(tmp_path / name))
                 for name in ("s.sqlite", "s.db", "wal-dir")]
        try:
            for sink in sinks:
                assert isinstance(sink.backend, WalBackend)
        finally:
            for sink in sinks:
                sink.close()

    def test_backend_wrapped_and_sink_passes_through(self):
        backend = MemoryBackend()
        sink = resolve_persistence(backend)
        assert sink.backend is backend
        assert resolve_persistence(sink) is sink  # the restart story

    def test_junk_rejected(self):
        with pytest.raises(PersistenceError, match="persistence must be"):
            resolve_persistence(42)
        with pytest.raises(PersistenceError, match="PersistenceBackend"):
            PersistenceSink("not-a-backend")
        with pytest.raises(PersistenceError, match="snapshot_every"):
            PersistenceSink(MemoryBackend(), snapshot_every=0)
