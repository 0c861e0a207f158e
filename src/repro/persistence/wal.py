"""Append-only JSONL write-ahead log with snapshot + compaction.

The simplest durable layout that satisfies the backend contract: one
``wal.jsonl`` file of newline-delimited record dicts, plus one
``snapshot.json`` holding the newest compacted state.  Appends are
``write → flush → fsync`` so a returned append survives power loss;
snapshots are published with the classic ``tmp + fsync + os.replace``
dance so a reader never observes a half-written snapshot.

Crash anatomy, file by file:

* crash mid-append — the log ends in a torn final line.  That append
  never returned, so the pose it belonged to was never released;
  :meth:`WalBackend.load` drops the torn tail (and counts it in
  :meth:`WalBackend.stats`).  A torn line *followed by intact lines*
  is real corruption — an accepted record was damaged — and raises
  :class:`~repro.errors.PersistenceError`.
* crash between snapshot publish and log truncation — the log still
  holds records the snapshot already folded; ``load()`` filters them
  out by ``seq <= through_seq``, so replay never double-counts.
* crash mid-truncation — truncation is itself a ``tmp + os.replace``,
  so the log is either the old file or the rewritten one, never a
  prefix.
"""

from __future__ import annotations

import json
import os
import threading

from repro.errors import PersistenceError
from repro.persistence.base import PersistenceBackend

#: On-disk file names inside the backend's directory.
LOG_NAME = "wal.jsonl"
SNAPSHOT_NAME = "snapshot.json"


def _dump(record):
    """Canonical one-line JSON for a log record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_atomic(path, text, fsync=True):
    """Write ``text`` to ``path`` via tmp + fsync + ``os.replace``.

    The replace is atomic on POSIX, so a reader (or a recovery after a
    crash anywhere inside this function) sees either the old file or
    the complete new one — never a torn intermediate.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)


class WalBackend(PersistenceBackend):
    """JSONL write-ahead log + snapshot file in one directory.

    Durability: :meth:`append` does not return before the line is
    flushed and (by default) fsynced, so every record the sink has
    acknowledged survives a crash.  ``fsync=False`` trades that for
    speed — the OS page cache still survives *process* crashes, just
    not power loss — and is what the benchmark's throughput ceiling
    measures.
    """

    name = "wal"

    def __init__(self, directory, fsync=True):
        self.directory = str(directory)
        self.fsync = fsync
        self._log_path = os.path.join(self.directory, LOG_NAME)
        self._snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        self._lock = threading.Lock()
        self._torn_tail_dropped = 0
        # Highest seq in the log file, None while unknown (a reopened
        # log not read yet): a compaction through it keeps nothing, so
        # it need not re-read the log it is about to truncate.
        self._log_last_seq = None
        try:
            os.makedirs(self.directory, exist_ok=True)
            self._handle = open(self._log_path, "a", encoding="utf-8")
            if self._handle.tell() == 0:
                self._log_last_seq = 0
        except OSError as error:
            raise PersistenceError(
                f"cannot open wal store {self.directory}: {error}"
            ) from error

    def append(self, record, line=None):
        """Append one JSONL line; returns after flush+fsync (durable)."""
        if line is None:
            line = _dump(record)
        with self._lock:
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
            except (OSError, ValueError) as error:
                raise PersistenceError(
                    f"wal append failed on {self._log_path}: {error}"
                ) from error
            if self._log_last_seq is not None:
                self._log_last_seq = max(self._log_last_seq, record["seq"])
        return record["seq"]

    def load(self):
        """Read snapshot + log; tolerates exactly one torn *final* line."""
        with self._lock:
            self._handle.flush()
            snapshot = self._read_snapshot()
            through = snapshot["through_seq"] if snapshot else 0
            records = [r for r in self._read_log() if r["seq"] > through]
        return snapshot, records

    def compact(self, state, through_seq):
        """Publish the snapshot atomically, then truncate the folded log.

        Two independently-atomic steps; a crash between them leaves
        folded records in the log for ``load()``'s ``through_seq``
        filter to drop, so the pair is crash-safe without needing to
        be jointly atomic.  The log is read back only when it may hold
        records past ``through_seq``; the sink always compacts through
        its newest record, so it truncates without reading.
        """
        with self._lock:
            self._handle.flush()
            write_atomic(
                self._snapshot_path,
                json.dumps({"through_seq": through_seq, "state": state},
                           sort_keys=True),
                fsync=self.fsync,
            )
            if (self._log_last_seq is not None
                    and through_seq >= self._log_last_seq):
                keep = []
            else:
                keep = [r for r in self._read_log()
                        if r["seq"] > through_seq]
            self._handle.close()
            write_atomic(
                self._log_path,
                "".join(_dump(r) + "\n" for r in keep),
                fsync=self.fsync,
            )
            self._handle = open(self._log_path, "a", encoding="utf-8")
            self._log_last_seq = max((r["seq"] for r in keep), default=0)

    def last_seq(self):
        """Highest seq across snapshot and log (0 on a fresh directory)."""
        with self._lock:
            self._handle.flush()
            snapshot = self._read_snapshot()
            last = snapshot["through_seq"] if snapshot else 0
            for record in self._read_log():
                last = max(last, record["seq"])
        return last

    def stats(self):
        """Log size/record counts plus torn-tail drops seen by loads."""
        with self._lock:
            self._handle.flush()
            log_bytes = (os.path.getsize(self._log_path)
                         if os.path.exists(self._log_path) else 0)
        return {
            "backend": self.name,
            "directory": self.directory,
            "log_bytes": log_bytes,
            "has_snapshot": os.path.exists(self._snapshot_path),
            "torn_tail_dropped": self._torn_tail_dropped,
            "fsync": self.fsync,
        }

    def close(self):
        """Flush and close the log handle."""
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    # -- internals (all called with self._lock held) ------------------------

    def _read_snapshot(self):
        """Parse ``snapshot.json``; a corrupt snapshot is fatal.

        The snapshot is only ever published atomically, so a parse
        failure means accepted state was damaged after the fact —
        unlike a torn log tail there is no benign explanation.
        """
        if not os.path.exists(self._snapshot_path):
            return None
        try:
            with open(self._snapshot_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
        except (OSError, ValueError) as error:
            raise PersistenceError(
                f"corrupt wal snapshot {self._snapshot_path}: {error}"
            ) from error
        if not isinstance(snapshot, dict) or "through_seq" not in snapshot:
            raise PersistenceError(
                f"malformed wal snapshot {self._snapshot_path}: "
                "missing through_seq"
            )
        return snapshot

    def _read_log(self):
        """Parse the log; drop a torn tail, raise on interior corruption."""
        if not os.path.exists(self._log_path):
            return []
        with open(self._log_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        while lines and not lines[-1].strip():
            lines.pop()
        records = []
        for position, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as error:
                if position == len(lines) - 1:
                    # A torn final line is the signature of a crash
                    # mid-append: the write never returned, so nothing
                    # downstream of it was released.  Safe to drop.
                    self._torn_tail_dropped += 1
                    break
                raise PersistenceError(
                    f"corrupt wal record at {self._log_path}:"
                    f"{position + 1}: {error}"
                ) from error
            if not isinstance(record, dict) or "seq" not in record:
                raise PersistenceError(
                    f"malformed wal record at {self._log_path}:"
                    f"{position + 1}: missing seq"
                )
            records.append(record)
        self._log_last_seq = max((r["seq"] for r in records), default=0)
        return records

    def __repr__(self):
        return f"WalBackend({self.directory!r})"
