"""The hash-chained disclosure audit journal.

The paper's accountability story (§3.3, §5) needs more than an in-memory
explain log: the *record* of what was disclosed must itself be trustworthy,
because the mediator operator is a party to the protocol — a journal that
can be silently rewritten proves nothing to a source disputing a
violation notice.  :class:`AuditJournal` therefore chains every appended
record to its predecessor with SHA-256: record *n*'s hash covers its own
canonical bytes **and** record *n−1*'s hash, so changing any byte of
any historical record (or deleting/reordering one) breaks every hash
after it.  ``verify_chain()`` walks the chain from the genesis hash and
reports the first record that fails to re-verify.

One record is appended per ``MediationEngine.pose()`` — answered *or*
refused.  Its chained payload is the settled
:class:`~repro.mediator.engine.PoseRecord` itself — requester, plan
fingerprint, status, refusal, the history entry charged, the per-source
and aggregated losses, the released cells and the row counts — plus the
journal's ``seq``, ``ts`` and the requester's cumulative disclosure
``1 − Π(1 − loss_i)`` over every answered pose so far.  Only the pose's
``trace_id`` and ``duration_ms`` stay outside: they describe the run,
not the disclosure.  The journal is append-only by design: there is
deliberately no ``clear()``.

The payload is serialized once, canonically (:func:`canonical`); those
bytes are what the chain hashes and what the write-ahead log writes
(:mod:`repro.persistence`), so the journal *is* the log.  Serialized
records (``{"chained": payload, "hash": ...}``, as the log and
snapshots store them) re-verify offline with :func:`verify_records`
(``python -m repro.telemetry.report --journal``, ``python -m
repro.persistence verify``); :meth:`AuditJournal.restore` re-verifies
each link once as it rebuilds a journal on recovery.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass

from repro.errors import PersistenceError, ReproError

#: The chain's genesis "previous hash" — 64 zero hex digits.
GENESIS_HASH = "0" * 64

#: Journal record statuses.
STATUS_ANSWERED = "answered"
STATUS_REFUSED = "refused"


def canonical(payload):
    """The canonical JSON bytes of a chained payload.

    Sorted keys and minimal separators make the bytes deterministic,
    and they survive a JSON round trip unchanged, so a payload read
    back from the log re-serializes to the bytes that were hashed.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def chain_hash(prev_hash, body):
    """SHA-256 over ``body`` (canonical bytes), chained to ``prev_hash``."""
    return hashlib.sha256(f"{prev_hash}|{body}".encode("utf-8")).hexdigest()


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One disclosure record: the chained payload, its canonical bytes
    (``body``) and the link over the predecessor's hash and ``body``."""

    chained: dict
    body: str
    hash: str

    @classmethod
    def link(cls, chained, prev_hash):
        """Serialize ``chained`` once and chain it after ``prev_hash``."""
        body = canonical(chained)
        return cls(chained, body, chain_hash(prev_hash, body))

    @property
    def requester(self):
        return self.chained["requester"]

    @property
    def status(self):
        return self.chained["status"]

    @property
    def cumulative_loss(self):
        return self.chained["cumulative_loss"]

    def to_dict(self):
        """The serialized form the log and snapshots store."""
        return {"chained": self.chained, "hash": self.hash}

    def __repr__(self):
        return (f"JournalRecord(#{self.chained['seq']} {self.requester!r} "
                f"{self.status} cum={self.cumulative_loss:.4f})")


def _relink(records):
    """Re-hash serialized records once each, after their predecessors.

    Returns ``(rebuilt, first_bad_seq)``: the :class:`JournalRecord` s
    before the first record with no payload or a hash that fails to
    re-verify, and that record's seq (else its position), or ``None``.
    """
    rebuilt, prev = [], GENESIS_HASH
    for position, record in enumerate(records, start=1):
        chained = record.get("chained")
        if not isinstance(chained, dict):
            return rebuilt, position
        entry = JournalRecord.link(chained, prev)
        if entry.hash != record.get("hash"):
            return rebuilt, chained.get("seq", position)
        rebuilt.append(entry)
        prev = entry.hash
    return rebuilt, None


def verify_records(records):
    """Verify serialized journal records (dicts) against the hash chain.

    Returns ``(True, None)`` or ``(False, first_bad_seq)``; a record
    missing its payload or hash counts as tampered.  Other keys (a log
    record's envelope) are not covered.
    """
    _, bad_seq = _relink(records)
    return bad_seq is None, bad_seq


class AuditJournal:
    """Append-only, hash-chained journal of per-pose disclosures.

    Thread-safe: ``pose()`` may run concurrently across requesters, and
    the chain head plus the cumulative-loss accumulators are
    read-modify-write state.
    """

    def __init__(self, clock=time.time):
        self._records = []
        self._lock = threading.Lock()
        self._clock = clock
        self._cumulative = {}  # requester → 1 − Π(1 − loss_i) so far

    def append(self, pose):
        """Journal one settled pose; returns the :class:`JournalRecord`.

        ``pose`` is a :class:`~repro.mediator.engine.PoseRecord`.
        Answered poses compound the requester's cumulative disclosure
        (``cum' = 1 − (1 − cum)(1 − loss)``); refused poses disclose
        nothing and carry the unchanged cumulative value, so the journal
        still shows *when* the requester was stopped.
        """
        if pose.status not in (STATUS_ANSWERED, STATUS_REFUSED):
            raise ReproError(f"unknown journal status {pose.status!r}")
        with self._lock:
            cumulative = self._cumulative.get(pose.requester, 0.0)
            if pose.status == STATUS_ANSWERED:
                cumulative = 1.0 - (1.0 - cumulative) * (
                    1.0 - pose.aggregated_loss)
                self._cumulative[pose.requester] = cumulative
            record = JournalRecord.link(
                pose.chained(seq=len(self._records) + 1, ts=self._clock(),
                             cumulative_loss=cumulative),
                self._records[-1].hash if self._records else GENESIS_HASH,
            )
            self._records.append(record)
            return record

    def restore(self, records):
        """Rebuild the journal from serialized records (recovery path).

        Each record is re-hashed once, after its predecessor; a single
        damaged byte anywhere in the stored chain raises
        :class:`~repro.errors.PersistenceError` naming the first bad
        seq and restores nothing.  The cumulative-disclosure
        accumulators are rebuilt too, so ``cumulative_loss()`` keeps
        compounding where the pre-crash process stopped.  Only valid on
        an empty journal.
        """
        rebuilt, bad_seq = _relink(records)
        if bad_seq is not None:
            raise PersistenceError(
                f"audit journal chain fails verification at seq {bad_seq}; "
                "refusing to recover on top of tampered or damaged "
                "accounting"
            )
        with self._lock:
            if self._records:
                raise PersistenceError(
                    "cannot restore into a non-empty AuditJournal "
                    f"({len(self._records)} live records)"
                )
            self._records = rebuilt
            for record in rebuilt:
                if record.status == STATUS_ANSWERED:
                    self._cumulative[record.requester] = (
                        record.cumulative_loss
                    )
            return list(rebuilt)

    # -- reading -----------------------------------------------------------

    def records(self, requester=None):
        """All records, oldest first, optionally for one requester."""
        with self._lock:
            snapshot = list(self._records)
        if requester is not None:
            snapshot = [r for r in snapshot if r.requester == requester]
        return snapshot

    def last(self):
        """The newest record, or ``None`` on an empty journal."""
        with self._lock:
            return self._records[-1] if self._records else None

    def cumulative_loss(self, requester):
        """The requester's compounded disclosure ``1 − Π(1 − loss_i)``."""
        with self._lock:
            return self._cumulative.get(requester, 0.0)

    def requesters(self):
        """``{requester: cumulative_loss}`` for everyone journaled."""
        with self._lock:
            return dict(self._cumulative)

    def __len__(self):
        with self._lock:
            return len(self._records)

    # -- verification ------------------------------------------------------

    def verify_chain(self):
        """Re-verify every record, re-serializing each payload.

        Returns ``(True, None)`` when the chain is intact, else
        ``(False, seq)`` where ``seq`` is the first record whose hash
        or linkage fails to re-verify.
        """
        return verify_records([r.to_dict() for r in self.records()])

    # -- serialization -----------------------------------------------------

    def to_jsonl(self):
        """The journal as JSON Lines (one record per line)."""
        return "".join(
            json.dumps(r.to_dict(), sort_keys=True) + "\n"
            for r in self.records()
        )

    def dump(self, path):
        """Write :meth:`to_jsonl` to ``path``; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return path

    def __repr__(self):
        return f"AuditJournal(n={len(self)})"
