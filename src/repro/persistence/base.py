"""Backend interface of the durability layer, plus the in-memory stand-in.

A backend is a dumb, durable record store: the :class:`~repro.persistence.
PersistenceSink` above it decides *what* to write (one record per pose,
publication, or epoch bump) and *when* to compact; the backend only
guarantees that an :meth:`~PersistenceBackend.append` that returned has
reached its medium, and that :meth:`~PersistenceBackend.load` returns
exactly the accepted records.  One disk implementation ships —
:class:`~repro.persistence.wal.WalBackend` (append-only JSONL +
snapshot file) — plus :class:`MemoryBackend` for tests; the interface
exists so tests can substitute a fake.

Records are flat JSON-serializable dicts carrying a strictly increasing
``seq`` assigned by the sink.  A snapshot is ``(state, through_seq)``:
``state`` folds every record with ``seq <= through_seq``, so ``load()``
must never return log records at or below the snapshot's
``through_seq`` — that filter is what makes compaction crash-safe (a
crash between snapshot publication and log truncation merely leaves
already-folded records for the filter to drop).
"""

from __future__ import annotations

import abc

from repro.errors import PersistenceError


class PersistenceBackend(abc.ABC):
    """Durable record store under a :class:`~repro.persistence.PersistenceSink`.

    Durability contract: once :meth:`append` returns, the record must
    survive a process crash (for the memory backend: survive the
    *object*, which is the medium tests share across simulated
    restarts).  ``load()`` after any crash returns the newest published
    snapshot plus every accepted record newer than it, in append order.
    """

    #: Human-readable backend name (benchmarks, recovery reports, CLI).
    name = "backend"

    @abc.abstractmethod
    def append(self, record, line=None):
        """Durably append one record dict; returns its ``seq``.

        ``line``, if given, is ``record`` serialized canonically; a
        backend that writes text writes it as is.  Must not return until
        the record would survive a crash.  Raises
        :class:`~repro.errors.PersistenceError` if the record cannot be
        made durable — the caller treats that as a failed pose, never a
        silently-lost one.
        """

    @abc.abstractmethod
    def load(self):
        """Return ``(snapshot, records)`` — the recovery inputs.

        ``snapshot`` is the newest compacted state dict (with its
        ``through_seq`` under the ``"through_seq"`` key and the folded
        state under ``"state"``) or ``None``; ``records`` are the log
        records with ``seq`` strictly greater than the snapshot's
        ``through_seq``, oldest first.  Raises
        :class:`~repro.errors.PersistenceError` on corruption that loses
        accepted records (a torn *final* WAL line — an append that never
        returned — is tolerated and reported via :meth:`stats`).
        """

    @abc.abstractmethod
    def compact(self, state, through_seq):
        """Atomically publish ``state`` as the snapshot through ``through_seq``.

        After a successful compaction, records with ``seq <=
        through_seq`` may be dropped from the log.  A crash at any point
        inside ``compact`` must leave the backend recoverable: either
        the old snapshot + full log, or the new snapshot + a log whose
        already-folded prefix ``load()`` filters out.
        """

    @abc.abstractmethod
    def last_seq(self):
        """The highest ``seq`` ever accepted (snapshot or log), else 0.

        The sink resumes numbering from here when it attaches to an
        existing store, so sequence numbers stay unique across restarts.
        """

    def stats(self):
        """Diagnostic counters (shape is backend-specific, JSON-safe)."""
        return {"backend": self.name}

    def close(self):
        """Release file handles/connections; further appends may fail."""

    def __repr__(self):
        return f"{type(self).__name__}()"


class MemoryBackend(PersistenceBackend):
    """List-backed backend whose medium is the Python object itself.

    Survives a *simulated* restart — tests discard the system but keep
    the backend instance — which is exactly the boundary the recovery
    protocol is defined over.  Provides no real crash durability, so it
    is never a production choice; it exists so recovery logic can be
    exercised without touching disk.
    """

    name = "memory"

    def __init__(self):
        self._snapshot = None
        self._log = []
        self._last_seq = 0

    def append(self, record, line=None):
        """Append to the in-object log; durable only as long as the object."""
        seq = int(record["seq"])
        self._log.append(dict(record))
        self._last_seq = max(self._last_seq, seq)
        return seq

    def load(self):
        """Return the held snapshot and the records newer than it."""
        through = self._snapshot["through_seq"] if self._snapshot else 0
        records = [dict(r) for r in self._log if r["seq"] > through]
        snapshot = dict(self._snapshot) if self._snapshot else None
        return snapshot, records

    def compact(self, state, through_seq):
        """Replace the snapshot and drop the folded log prefix."""
        if through_seq < 0:
            raise PersistenceError("through_seq must be >= 0")
        self._snapshot = {"through_seq": through_seq, "state": state}
        self._log = [r for r in self._log if r["seq"] > through_seq]
        self._last_seq = max(self._last_seq, through_seq)

    def last_seq(self):
        """Highest seq accepted so far (0 on a fresh backend)."""
        return self._last_seq

    def stats(self):
        """Log length and snapshot presence."""
        return {
            "backend": self.name,
            "log_records": len(self._log),
            "has_snapshot": self._snapshot is not None,
        }
