"""Query history and the mediator-side sequence guard (paper §4/§5).

Source-side auditing sees only its own queries; a snooper can spread a
tracker sequence across sources.  The mediator therefore keeps a global
:class:`MediatorHistory` per requester, and :class:`SequenceGuard` refuses
a request when the same requester has already aggregated the same private
mediated attribute under too many *distinct* predicates within the sliding
window — the cross-source analogue of overlap control.

Guard activity is observable: checks, refusals, and the distinct-probe
distribution are reported as ``sequence_guard.*`` metrics, and each
verdict (with the refusing reason) lands in the query's explain report
(:mod:`repro.telemetry`).

Durability contract (:mod:`repro.persistence`): the guard derives all
of its state from the history entries, so persisting each entry
write-ahead — and restoring them with :meth:`MediatorHistory.restore`
on recovery — is sufficient to make every pre-crash refusal final
after a restart.  :meth:`HistoryEntry.to_dict` is the logged form.
"""

from __future__ import annotations

from repro.errors import AuditRefusal, PersistenceError, ReproError
from repro.telemetry import NOOP


class HistoryEntry:
    """One answered (or refused) query in the history."""

    def __init__(self, sequence, requester, attributes, predicate_signature,
                 is_aggregate, refused):
        self.sequence = sequence
        self.requester = requester
        self.attributes = frozenset(attributes)
        self.predicate_signature = predicate_signature
        self.is_aggregate = is_aggregate
        self.refused = refused

    def to_dict(self):
        """JSON-serializable form — what the write-ahead log stores.

        Attribute order is canonicalized (sorted) so the logged bytes
        are deterministic; :func:`HistoryEntry.from_dict` round-trips
        it exactly, which is what keeps the SequenceGuard's verdicts
        identical across a restart.
        """
        return {
            "sequence": self.sequence,
            "requester": self.requester,
            "attributes": sorted(self.attributes),
            "predicate_signature": self.predicate_signature,
            "is_aggregate": self.is_aggregate,
            "refused": self.refused,
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild an entry from its logged form (recovery path)."""
        return cls(
            data["sequence"], data["requester"], data["attributes"],
            data["predicate_signature"], data["is_aggregate"],
            data["refused"],
        )

    def __repr__(self):
        status = "refused" if self.refused else "ok"
        return f"HistoryEntry(#{self.sequence} {self.requester} {status})"


class MediatorHistory:
    """Append-only per-requester query log."""

    def __init__(self):
        self._entries = []
        # requester -> that requester's entries, oldest first: the guard
        # reads its window without walking other requesters' entries.
        self._by_requester = {}
        self._sequence = 0

    def record(self, requester, attributes, predicate_signature,
               is_aggregate, refused=False):
        """Append one entry and return it."""
        self._sequence += 1
        entry = HistoryEntry(
            self._sequence, requester, attributes, predicate_signature,
            is_aggregate, refused,
        )
        self._entries.append(entry)
        self._by_requester.setdefault(requester, []).append(entry)
        return entry

    def entries(self, requester=None):
        """All entries, optionally filtered by requester."""
        if requester is None:
            return list(self._entries)
        return list(self._by_requester.get(requester, ()))

    def recent(self, requester, window):
        """The requester's last ``window`` entries, oldest first.

        Reads only those entries: the cost does not grow with the
        history, which is what keeps a warm guard check O(window).
        """
        return self._by_requester.get(requester, [])[-window:]

    def state_dict(self):
        """Snapshot form: the full entry list plus the sequence cursor.

        Everything the SequenceGuard (and recovery) needs — restoring
        this dict with :meth:`restore` reproduces guard verdicts
        bit-for-bit, because the guard reads nothing but entries.
        """
        return {
            "sequence": self._sequence,
            "entries": [e.to_dict() for e in self._entries],
        }

    def restore(self, entries):
        """Rebuild the history from logged entry dicts (recovery path).

        Only valid on an empty history — recovery always targets a
        freshly built engine; restoring over live entries would
        interleave two accounting streams, so it is refused outright.
        The sequence cursor resumes past the highest restored entry.
        """
        if self._entries:
            raise PersistenceError(
                "cannot restore into a non-empty MediatorHistory "
                f"({len(self._entries)} live entries)"
            )
        self._entries = [HistoryEntry.from_dict(e) for e in entries]
        for entry in self._entries:
            self._by_requester.setdefault(entry.requester, []).append(entry)
        self._sequence = max(
            (e.sequence for e in self._entries), default=0
        )
        return self._entries

    def __len__(self):
        return len(self._entries)


class SequenceGuard:
    """Refuses over-repeated aggregate probing of a private attribute."""

    def __init__(self, history, private_attributes, max_distinct_probes=3,
                 window=20, telemetry=None):
        if max_distinct_probes < 1:
            raise ReproError("max_distinct_probes must be >= 1")
        self.history = history
        self.private_attributes = set(private_attributes)
        self.max_distinct_probes = max_distinct_probes
        self.window = window
        self.telemetry = telemetry or NOOP

    def check(self, requester, attributes, predicate_signature, is_aggregate):
        """Raise :class:`AuditRefusal` when the request over-probes.

        Repeating an *identical* query is harmless (same answer); what the
        guard counts is distinct predicate signatures against the same
        private attribute within the window.
        """
        if not is_aggregate:
            return
        probed = set(attributes) & self.private_attributes
        if not probed:
            return
        metrics = self.telemetry.metrics
        metrics.counter("sequence_guard.checks").inc()
        recent = self.history.recent(requester, self.window)
        for attribute in probed:
            signatures = {
                entry.predicate_signature
                for entry in recent
                if entry.is_aggregate
                and not entry.refused
                and attribute in entry.attributes
            }
            signatures.add(predicate_signature)
            metrics.histogram("sequence_guard.distinct_probes").observe(
                len(signatures)
            )
            if len(signatures) > self.max_distinct_probes:
                metrics.counter("sequence_guard.refusals").inc()
                self.telemetry.events.emit(
                    "sequence_guard.refusal", requester=requester,
                    attribute=attribute, distinct_probes=len(signatures),
                    limit=self.max_distinct_probes,
                )
                raise AuditRefusal(
                    f"requester {requester!r} has probed private attribute "
                    f"{attribute!r} with {len(signatures)} distinct "
                    f"predicates (limit {self.max_distinct_probes})"
                )
