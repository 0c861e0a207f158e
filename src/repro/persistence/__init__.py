"""Durable, restart-safe privacy state — the ``repro.persistence`` layer.

A PRIVATE-IYE mediator's inference-control guarantee is defined over the
*cumulative* sequence of releases, so the one thing it must never forget
across a restart is what each requester has already learned.  This
package puts that state — query history, cumulative disclosure loss,
the hash-chained audit journal, SnooperWatch knowledge, cache epochs —
behind a write-ahead log:

* :class:`PersistenceSink` — the engine-facing front.  One record per
  pose — the audit journal's chained bytes under ``chained`` verbatim
  (see :mod:`repro.observatory.journal`) beside an unhashed envelope:
  ``kind``, the log's ``seq``, ``trace_id``, ``duration_ms``, ``hash``
  — appended durably **before** anything else learns of the pose; plus
  records for out-of-band publications and epoch bumps.  Periodically
  folds the log into a snapshot and compacts.
* backends — :class:`~repro.persistence.wal.WalBackend` (append-only
  JSONL + snapshot file, the one disk store) and
  :class:`~repro.persistence.base.MemoryBackend` (tests).  Select via
  ``PrivateIye(persistence=...)``; the default ``None`` keeps today's
  in-memory behavior byte for byte.
* :func:`~repro.persistence.recovery.recover` — replays snapshot + log
  into a freshly built system, re-verifying each link of the journal's
  sha256 chain once, across the snapshot and restart boundaries.

The write-ahead discipline means a crash can leave a pose *charged but
unreleased* — the conservative direction — and never the reverse; see
``docs/persistence.md`` for the full crash-consistency argument and the
operations runbook.
"""

from __future__ import annotations

import contextlib
import threading
from json.encoder import encode_basestring_ascii

from repro.errors import PersistenceError
from repro.observatory.journal import canonical
from repro.persistence.base import MemoryBackend, PersistenceBackend
from repro.persistence.snapshot import capture_state
from repro.persistence.wal import WalBackend

__all__ = [
    "KIND_EPOCH",
    "KIND_POSE",
    "KIND_PUBLICATION",
    "MemoryBackend",
    "PersistenceBackend",
    "PersistenceSink",
    "WalBackend",
    "resolve_persistence",
]

#: Record kinds in the write-ahead log.
KIND_POSE = "pose"
KIND_PUBLICATION = "publication"
KIND_EPOCH = "epoch"

#: Default compaction floor (records between the first snapshots).
DEFAULT_SNAPSHOT_EVERY = 256


class PersistenceSink:
    """The engine-facing front of a durability backend.

    Owns the global sequence numbering, the write-ahead ordering, and
    the compaction cadence.  The invariant every caller relies on:
    **when a ``record_*`` call returns, the record is durable** — the
    engine releases an answer only after :meth:`record_pose` returns,
    so a crash at any instant leaves the store describing a superset of
    what requesters were actually shown (charged-but-unreleased, never
    released-but-forgotten).

    ``crash_hook`` is the fault-injection point the crash-recovery
    tests use: it runs *after* the durable append and *before* the
    caller regains control — exactly the window the write-ahead
    discipline is about.
    """

    def __init__(self, backend, snapshot_every=DEFAULT_SNAPSHOT_EVERY,
                 crash_hook=None):
        if not isinstance(backend, PersistenceBackend):
            raise PersistenceError(
                "PersistenceSink needs a PersistenceBackend, not "
                f"{type(backend).__name__}"
            )
        if snapshot_every is not None and snapshot_every < 1:
            raise PersistenceError("snapshot_every must be >= 1 or None")
        self.backend = backend
        self.snapshot_every = snapshot_every
        self.crash_hook = crash_hook
        #: Zero-argument callable returning the snapshot state dict;
        #: set by :meth:`bind` (or directly by tests).
        self.state_provider = None
        self._lock = threading.Lock()
        self._seq = backend.last_seq()
        self._since_compact = 0
        self._folded = 0   # seq folded by this sink's last snapshot
        self._suspended = False

    # -- wiring --------------------------------------------------------------

    def bind(self, engine):
        """Attach the sink to a mediation engine (called by the engine).

        Sets the snapshot ``state_provider``, subscribes to epoch bumps
        (so every bump lands in the log the moment it happens — no
        polling), and hands the observatory a reference so out-of-band
        publications are journaled write-ahead too.
        """
        with self._lock:
            self.state_provider = lambda: capture_state(engine)
        if engine.cache is not None:
            engine.cache.epochs.subscribe(self.record_epoch)
        if engine.observatory is not None:
            engine.observatory.persistence = self

    # -- recording (all durable before return) -------------------------------

    def record_pose(self, pose, journal=None):
        """Durably append one settled pose; returns its seq.

        ``pose`` is the engine's :class:`~repro.mediator.engine.
        PoseRecord`, ``journal`` its journal record, whose bytes the
        line carries verbatim (``None`` without an observatory: the
        same line, chain fields null).  Nothing else learns of the pose
        before this returns — the write-ahead point.
        """
        if journal is None:
            chained = pose.chained()
            body, digest = canonical(chained), None
        else:
            chained, body, digest = journal.chained, journal.body, journal.hash
        return self._append({
            "chained": chained, "duration_ms": pose.duration_ms,
            "hash": digest, "kind": KIND_POSE, "trace_id": pose.trace_id,
        }, body)

    def record_publication(self, requester, row_stats=None,
                           source_means=None, own_data=None, sources=None,
                           measures=None):
        """Durably append one out-of-band publication (Figure 1 tables).

        Called by :meth:`Observatory.note_publication
        <repro.observatory.Observatory.note_publication>` before the
        knowledge is folded into the snooper ledger, so a crash cannot
        forget what a requester was already shown.
        """
        return self._append({
            "kind": KIND_PUBLICATION,
            "requester": requester,
            "row_stats": {
                measure: list(stat) for measure, stat in
                (row_stats or {}).items()
            },
            "source_means": dict(source_means or {}),
            "own_data": {source: dict(values) for source, values in
                         (own_data or {}).items()},
            "sources": list(sources) if sources is not None else None,
            "measures": list(measures) if measures is not None else None,
        })

    def record_epoch(self, name, value):
        """Durably append one epoch bump (subscribed to the registry).

        Epoch records make the counters *observable* instead of polled:
        recovery floor-restores from them, so a rebuilt cache can never
        serve an entry validated under a pre-crash epoch.
        """
        return self._append({"kind": KIND_EPOCH, "name": name,
                             "value": int(value)})

    # -- maintenance ---------------------------------------------------------

    @contextlib.contextmanager
    def suspended(self):
        """Context manager: drop appends while recovery replays state.

        Replaying history re-runs ``note_probe`` and friends, which
        would re-emit records that are already in the log; suspension
        makes the replay side-effect-free on the store.
        """
        with self._lock:
            self._suspended = True
        try:
            yield self
        finally:
            with self._lock:
                self._suspended = False

    def load(self):
        """The backend's ``(snapshot, records)`` — recovery's inputs."""
        return self.backend.load()

    def compact_now(self):
        """Snapshot + compact immediately; returns the folded seq.

        Requires a bound ``state_provider``.  Held under the sink lock
        so the captured state and the folded seq agree — no record can
        land between the capture and the compaction.
        """
        if self.state_provider is None:
            raise PersistenceError(
                "compact_now needs a state_provider (bind the sink first)"
            )
        with self._lock:
            return self._compact_locked()

    def stats(self):
        """Backend stats plus the sink's own counters."""
        info = self.backend.stats()
        info["last_seq"] = self._seq
        info["snapshot_every"] = self.snapshot_every
        return info

    def close(self):
        """Close the backend."""
        self.backend.close()

    # -- internals -----------------------------------------------------------

    def _append(self, record, body=None):
        """Assign a seq, durably append, run the crash hook, maybe compact.

        ``body`` is a pose record's chained bytes.  The crash hook runs
        after the append (the record is already durable) and before
        control returns (the answer is not yet released) — a hook that
        raises simulates a crash in exactly the window the write-ahead
        discipline protects.
        """
        if self._suspended:
            return None
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self.backend.append(
                record, None if body is None else _pose_line(record, body)
            )
            seq = self._seq
            self._since_compact += 1
            if self.crash_hook is not None:
                self.crash_hook(record)
            if (self.snapshot_every is not None
                    and self.state_provider is not None
                    and self._since_compact >= max(self.snapshot_every,
                                                   self._folded)):
                self._compact_locked()
        return seq

    def _compact_locked(self):
        """Capture state and compact through the current seq (lock held).

        A snapshot serializes the whole state, which grows with the
        seq; waiting for as many records as the last snapshot folded
        (never fewer than ``snapshot_every``) doubles the interval, so
        the serialized total stays within a constant factor of the
        newest snapshot: O(1) per record, amortized.
        """
        state = self.state_provider()
        self.backend.compact(state, self._seq)
        self._since_compact, self._folded = 0, self._seq
        return self._seq

    def __repr__(self):
        return (f"PersistenceSink({self.backend!r}, "
                f"seq={self._seq})")


def _pose_line(record, body):
    """A pose record's log line around its chained ``body``: byte for
    byte the record's canonical serialization, with no JSON encoder run
    but the escaping of the hash and trace id."""
    digest, trace_id = (
        "null" if value is None else encode_basestring_ascii(value)
        for value in (record["hash"], record["trace_id"])
    )
    return (f'{{"chained":{body},"duration_ms":{record["duration_ms"]!r},'
            f'"hash":{digest},"kind":"{KIND_POSE}","seq":{record["seq"]},'
            f'"trace_id":{trace_id}}}')


def resolve_persistence(persistence):
    """Normalize the ``persistence`` constructor argument.

    ``None``/``False`` → ``None`` (today's in-memory behavior, the
    default); ``True`` → a sink over a fresh :class:`MemoryBackend`
    (restart-simulation without disk); a backend → wrapped in a sink; a
    :class:`PersistenceSink` passes through (share one across rebuilds
    — that *is* the restart story).  A path string opens a
    :class:`~repro.persistence.wal.WalBackend` directory.
    """
    if persistence is None or persistence is False:
        return None
    if persistence is True:
        return PersistenceSink(MemoryBackend())
    if isinstance(persistence, PersistenceSink):
        return persistence
    if isinstance(persistence, PersistenceBackend):
        return PersistenceSink(persistence)
    if isinstance(persistence, str):
        return PersistenceSink(WalBackend(persistence))
    raise PersistenceError(
        "persistence must be None, a bool, a path, a PersistenceBackend, "
        f"or a PersistenceSink, not {type(persistence).__name__}"
    )
