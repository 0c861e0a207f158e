"""The hash-chained disclosure audit journal.

The paper's accountability story (§3.3, §5) needs more than an in-memory
explain log: the *record* of what was disclosed must itself be trustworthy,
because the mediator operator is a party to the protocol — a journal that
can be silently rewritten proves nothing to a source disputing a
violation notice.  :class:`AuditJournal` therefore chains every appended
record to its predecessor with SHA-256: record *n*'s hash covers its own
canonical payload **and** record *n−1*'s hash, so changing any byte of
any historical record (or deleting/reordering one) breaks every hash
after it.  ``verify_chain()`` walks the chain from the genesis hash and
reports the first record that fails to re-verify.

One record is appended per ``MediationEngine.pose()`` — answered *or*
refused — carrying the requester, the plan fingerprint (tier-1 cache
identity: canonical PIQL + principal + policy epoch), the per-source
losses, the aggregated loss, and the requester's cumulative disclosure
``1 − Π(1 − loss_i)`` over every answered pose so far.  The journal is
append-only by design: there is deliberately no ``clear()``.

Records serialize to JSON Lines (``to_jsonl()``) and re-verify offline
(:func:`verify_records`), which is what ``python -m repro.telemetry.report
--journal`` does.

Durability contract (:mod:`repro.persistence`): every record's
``to_dict()`` form — hashes included — is written ahead of answer
release, and snapshots store the folded prefix verbatim, so the chain
spans compaction and restart boundaries unbroken.  :meth:`AuditJournal.
restore` rebuilds a journal from those dicts by *recomputing* every
hash, making post-recovery ``verify_chain()`` a real re-verification,
not a replay of stored claims.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field

from repro.errors import PersistenceError, ReproError

#: The chain's genesis "previous hash" — 64 zero hex digits.
GENESIS_HASH = "0" * 64

#: Journal record statuses.
STATUS_ANSWERED = "answered"
STATUS_REFUSED = "refused"


def _chain_hash(payload, prev_hash):
    """SHA-256 over the canonical payload JSON, chained to ``prev_hash``.

    The payload is serialized with sorted keys and minimal separators so
    the byte material is deterministic; the previous hash is mixed in
    ahead of it, which is what links the records into a chain.
    """
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(
        (prev_hash + "|" + material).encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One tamper-evident disclosure record (one ``pose()``)."""

    seq: int
    ts: float
    requester: str
    fingerprint: str
    status: str
    kind: str | None                  # refusal kind, None if answered
    per_source_loss: dict
    aggregated_loss: float
    cumulative_loss: float
    prev_hash: str
    hash: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hash",
                           _chain_hash(self.payload(), self.prev_hash))

    def payload(self):
        """The hashed material: every field but the last two, the hashes."""
        return {name: getattr(self, name) for name in self.__slots__[:-2]}

    def to_dict(self):
        """JSON-serializable form (payload + chain hashes)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return (f"JournalRecord(#{self.seq} {self.requester!r} "
                f"{self.status} cum={self.cumulative_loss:.4f})")


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

    def append(self, requester, fingerprint, status,
               per_source_loss=None, aggregated_loss=0.0, kind=None):
        """Append one record; returns the :class:`JournalRecord`.

        Answered poses compound the requester's cumulative disclosure
        (``cum' = 1 − (1 − cum)(1 − loss)``); refused poses disclose
        nothing and carry the unchanged cumulative value, so the journal
        still shows *when* the requester was stopped.
        """
        if status not in (STATUS_ANSWERED, STATUS_REFUSED):
            raise ReproError(f"unknown journal status {status!r}")
        with self._lock:
            before = self._cumulative.get(requester, 0.0)
            if status == STATUS_ANSWERED:
                cumulative = 1.0 - (1.0 - before) * (1.0 - aggregated_loss)
                self._cumulative[requester] = cumulative
            else:
                cumulative = before
            record = JournalRecord(
                seq=len(self._records) + 1,
                ts=self._clock(),
                requester=requester,
                fingerprint=fingerprint,
                status=status,
                kind=kind,
                per_source_loss=dict(per_source_loss or {}),
                aggregated_loss=float(aggregated_loss),
                cumulative_loss=cumulative,
                prev_hash=(self._records[-1].hash if self._records
                           else GENESIS_HASH),
            )
            self._records.append(record)
            return record

    def restore(self, records):
        """Rebuild the journal from serialized records (recovery path).

        Durability contract: each record is reconstructed from its
        payload and ``prev_hash``, which *recomputes* every sha256 link
        — a single damaged byte anywhere in the stored chain surfaces
        as a :class:`~repro.errors.PersistenceError` here, never as a
        silently divergent journal.  Restoring also rebuilds the
        per-requester cumulative-disclosure accumulators, so
        ``cumulative_loss()`` continues compounding exactly where the
        pre-crash process stopped.  Only valid on an empty journal.
        """
        with self._lock:
            if self._records:
                raise PersistenceError(
                    "cannot restore into a non-empty AuditJournal "
                    f"({len(self._records)} live records)"
                )
            prev = GENESIS_HASH
            for data in records:
                record = JournalRecord(
                    seq=data["seq"], ts=data["ts"],
                    requester=data["requester"],
                    fingerprint=data["fingerprint"],
                    status=data["status"], kind=data["kind"],
                    per_source_loss=dict(data["per_source_loss"]),
                    aggregated_loss=data["aggregated_loss"],
                    cumulative_loss=data["cumulative_loss"],
                    prev_hash=prev,
                )
                if (record.hash != data.get("hash")
                        or data.get("prev_hash") != prev):
                    raise PersistenceError(
                        f"journal restore: record seq {data.get('seq')} "
                        "fails hash-chain verification"
                    )
                self._records.append(record)
                if record.status == STATUS_ANSWERED:
                    self._cumulative[record.requester] = (
                        record.cumulative_loss
                    )
                prev = record.hash
            return list(self._records)

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
        """Re-verify every record against the chain.

        Returns ``(True, None)`` when the chain is intact, else
        ``(False, seq)`` where ``seq`` is the first record whose hash or
        linkage fails to re-verify.
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


def verify_records(records):
    """Verify serialized journal records (dicts) against the hash chain.

    The offline counterpart of :meth:`AuditJournal.verify_chain` — used
    by ``python -m repro.telemetry.report --journal`` on a dumped file.
    Returns ``(True, None)`` or ``(False, first_bad_seq)``; a record
    missing its hash fields counts as tampered.
    """
    prev = GENESIS_HASH
    for position, record in enumerate(records, start=1):
        seq = record.get("seq", position)
        payload = {k: v for k, v in record.items()
                   if k not in ("hash", "prev_hash")}
        if record.get("prev_hash") != prev:
            return False, seq
        if record.get("hash") != _chain_hash(payload, prev):
            return False, seq
        prev = record["hash"]
    return True, None
