"""Backend contract tests: memory and JSONL WAL stores."""

import json

import pytest

from repro import PrivateIye
from repro.errors import PersistenceError
from repro.persistence import MemoryBackend
from repro.persistence.wal import LOG_NAME, SNAPSHOT_NAME, WalBackend


@pytest.fixture(params=["memory", "wal"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryBackend()
    else:
        store = WalBackend(tmp_path / "wal")
        yield store
        store.close()


def append_n(backend, n, start=1):
    for seq in range(start, start + n):
        backend.append({"seq": seq, "kind": "pose", "requester": "epi",
                        "payload": f"record-{seq}"})


class TestContract:
    def test_fresh_store_is_empty(self, backend):
        assert backend.last_seq() == 0
        assert backend.load() == (None, [])

    def test_append_load_round_trip_in_order(self, backend):
        append_n(backend, 5)
        snapshot, records = backend.load()
        assert snapshot is None
        assert [r["seq"] for r in records] == [1, 2, 3, 4, 5]
        assert records[0]["payload"] == "record-1"
        assert backend.last_seq() == 5

    def test_compact_publishes_snapshot_and_filters_folded(self, backend):
        append_n(backend, 4)
        backend.compact({"version": 1, "note": "through 3"}, 3)
        snapshot, records = backend.load()
        assert snapshot["through_seq"] == 3
        assert snapshot["state"]["note"] == "through 3"
        # folded records never reappear; the tail survives
        assert [r["seq"] for r in records] == [4]
        assert backend.last_seq() == 4

    def test_seq_numbering_survives_compaction(self, backend):
        append_n(backend, 3)
        backend.compact({"version": 1}, 3)
        assert backend.last_seq() == 3  # snapshot alone carries the cursor
        append_n(backend, 2, start=4)
        _, records = backend.load()
        assert [r["seq"] for r in records] == [4, 5]

    def test_stats_are_json_serializable(self, backend):
        append_n(backend, 2)
        info = backend.stats()
        assert info["backend"] == backend.name
        json.dumps(info)


class TestReopen:
    """Real restarts: a second handle on the same medium sees everything."""

    @pytest.mark.parametrize("flavor", ["wal"])
    def test_reopen_resumes_last_seq(self, tmp_path, flavor):
        first = WalBackend(tmp_path / flavor)
        append_n(first, 4)
        first.compact({"version": 1}, 2)
        first.close()

        second = WalBackend(tmp_path / flavor)
        try:
            assert second.last_seq() == 4
            snapshot, records = second.load()
            assert snapshot["through_seq"] == 2
            assert [r["seq"] for r in records] == [3, 4]
        finally:
            second.close()


class TestWalCrashAnatomy:
    def test_torn_final_line_is_dropped_and_counted(self, tmp_path):
        store = WalBackend(tmp_path / "wal")
        append_n(store, 3)
        store.close()
        log = tmp_path / "wal" / LOG_NAME
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "po')  # crash mid-append

        reopened = WalBackend(tmp_path / "wal")
        try:
            snapshot, records = reopened.load()
            assert snapshot is None
            assert [r["seq"] for r in records] == [1, 2, 3]
            assert reopened.stats()["torn_tail_dropped"] == 1
        finally:
            reopened.close()

    def test_interior_corruption_is_fatal(self, tmp_path):
        store = WalBackend(tmp_path / "wal")
        append_n(store, 3)
        store.close()
        log = tmp_path / "wal" / LOG_NAME
        lines = log.read_text().splitlines()
        lines[1] = lines[1][:10]  # damage an *accepted* interior record
        log.write_text("\n".join(lines) + "\n")

        reopened = WalBackend(tmp_path / "wal")
        try:
            with pytest.raises(PersistenceError, match="corrupt wal record"):
                reopened.load()
        finally:
            reopened.close()

    def test_corrupt_snapshot_is_fatal(self, tmp_path):
        store = WalBackend(tmp_path / "wal")
        append_n(store, 2)
        store.compact({"version": 1}, 2)
        store.close()
        (tmp_path / "wal" / SNAPSHOT_NAME).write_text("{not json")
        reopened = WalBackend(tmp_path / "wal")
        try:
            with pytest.raises(PersistenceError, match="snapshot"):
                reopened.load()
        finally:
            reopened.close()

    def test_crash_between_snapshot_and_truncate_never_double_counts(
            self, tmp_path):
        """Folded records left in the log are filtered by through_seq."""
        store = WalBackend(tmp_path / "wal")
        append_n(store, 3)
        store.close()
        # simulate: snapshot published, truncation never ran
        snapshot_path = tmp_path / "wal" / SNAPSHOT_NAME
        snapshot_path.write_text(json.dumps(
            {"through_seq": 2, "state": {"version": 1}}
        ))
        reopened = WalBackend(tmp_path / "wal")
        try:
            snapshot, records = reopened.load()
            assert snapshot["through_seq"] == 2
            assert [r["seq"] for r in records] == [3]
        finally:
            reopened.close()


class TestWalCompactionReads:
    """A compaction re-reads the log only when it may keep a tail."""

    @staticmethod
    def count_reads(store, monkeypatch):
        reads = []
        original = store._read_log

        def read_log():
            reads.append(1)
            return original()

        monkeypatch.setattr(store, "_read_log", read_log)
        return reads

    def test_through_the_newest_record_truncates_without_reading(
            self, tmp_path, monkeypatch):
        store = WalBackend(tmp_path / "wal")
        try:
            reads = self.count_reads(store, monkeypatch)
            append_n(store, 4)
            store.compact({"version": 1}, 4)
            assert reads == []
            append_n(store, 2, start=5)
            store.compact({"version": 1}, 5)   # keeps seq 6: must read
            assert reads == [1]
            assert [r["seq"] for r in store.load()[1]] == [6]
        finally:
            store.close()

    def test_reopened_log_is_read_before_it_is_truncated(
            self, tmp_path, monkeypatch):
        first = WalBackend(tmp_path / "wal")
        append_n(first, 3)
        first.close()
        store = WalBackend(tmp_path / "wal")
        try:
            reads = self.count_reads(store, monkeypatch)
            append_n(store, 1, start=4)
            store.compact({"version": 1}, 3)   # its newest seq is unknown
            assert reads == [1]
            assert [r["seq"] for r in store.load()[1]] == [4]
        finally:
            store.close()


class TestWalOpen:
    def test_path_naming_a_regular_file_is_a_persistence_error(
            self, tmp_path):
        leftover = tmp_path / "store.sqlite"
        leftover.write_bytes(b"SQLite format 3\x00")
        with pytest.raises(PersistenceError, match="store.sqlite"):
            WalBackend(leftover)
        with pytest.raises(PersistenceError, match="store.sqlite"):
            PrivateIye(persistence=str(leftover))
        assert leftover.read_bytes() == b"SQLite format 3\x00"
