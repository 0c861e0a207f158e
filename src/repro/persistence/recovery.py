"""Recovery — replaying snapshot + log into a freshly built mediator.

The restart protocol: rebuild the system exactly as at first boot
(sources, policies, the same ``persistence=`` argument), then call
``PrivateIye.recover()`` — which lands here — *before* serving queries.
:func:`recover` then

1. loads the backend's ``(snapshot, records)``;
2. walks the audit journal's sha256 chain once — snapshot head, then
   each logged pose record — restoring the journal and the
   per-requester cumulative disclosure ``1 − Π(1 − loss_i)``; a chain
   break raises before any other state is restored;
3. restores :class:`~repro.mediator.history.MediatorHistory` from the
   snapshot entries plus each logged pose's (chained) history entry —
   the SequenceGuard needs nothing else, so **a refusal that was final
   before the crash is final after it**;
4. rebuilds each requester's SnooperWatch ledger (snapshot knowledge +
   logged cells/publications) and replays a check pass — alerts
   deliberately re-fire after a restart (at-least-once alerting:
   ``_alerted`` dedup state is process-local by design, so an operator
   who lost the alert to the crash gets it again);
5. floor-restores cache epoch counters from the snapshot and the
   logged bump records, and re-seeds probe-novelty sets from history —
   a rebuilt cache can only over-invalidate, never serve an entry
   validated under pre-crash state.

Every step is suspended-sink replay: nothing recovered is re-appended.
Any parse failure, version mismatch, or chain break is a fatal
:class:`~repro.errors.PersistenceError` — serving queries over privacy
accounting that may have lost releases would void the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PersistenceError
from repro.observatory.journal import AuditJournal
from repro.persistence import KIND_EPOCH, KIND_POSE, KIND_PUBLICATION
from repro.persistence.snapshot import validate_state


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one :func:`recover` call rebuilt — the operator's receipt."""

    backend: str
    snapshot_through_seq: int
    log_records: int
    history_entries: int
    journal_records: int
    chain_valid: bool                 # recover() raises before building
    cumulative_loss: dict
    epochs: dict
    requesters: list
    alerts: list

    def to_dict(self):
        """JSON-serializable form (ops runbooks print this)."""
        document = {name: getattr(self, name) for name in self.__slots__}
        document["alerts"] = [a.to_dict() for a in self.alerts]
        return document

    def __repr__(self):
        return (f"RecoveryReport(history={self.history_entries}, "
                f"journal={self.journal_records}, "
                f"alerts={len(self.alerts)})")


def chain_of(snapshot, records):
    """The journal chain a store holds: the snapshot's journal records,
    then each logged pose record a journal kept (``hash`` set), one
    shape throughout.  A pose record with no ``chained`` payload is in
    no layout this build writes; it raises, naming its seq.
    """
    state = snapshot["state"] if snapshot else {}
    chain = list(state.get("journal") or [])
    for record in records:
        if record.get("kind") != KIND_POSE:
            continue
        if not isinstance(record.get("chained"), dict):
            raise PersistenceError(
                f"pose record seq {record.get('seq')} has no chained "
                "payload: the store predates this layout or is damaged; "
                "refusing to recover from it"
            )
        if record.get("hash") is not None:
            chain.append(record)
    return chain


def recover(engine):
    """Rebuild the engine's privacy state from its persistence sink.

    Call on a freshly built engine (same sources/policies, empty
    history) whose ``persistence`` points at the pre-crash store.
    Returns a :class:`RecoveryReport`; raises
    :class:`~repro.errors.PersistenceError` on any corruption, chain
    break, or attempt to recover into a non-empty engine.
    """
    sink = engine.persistence
    if sink is None:
        raise PersistenceError(
            "recover() needs persistence enabled "
            "(PrivateIye(persistence=...))"
        )
    snapshot, records = sink.load()
    state = validate_state(snapshot["state"]) if snapshot else {}
    chain = chain_of(snapshot, records)
    entries = list(state.get("history", {}).get("entries", []))
    for record in records:
        if record.get("kind") == KIND_POSE and record["chained"]["history"]:
            entries.append(record["chained"]["history"])

    observatory = engine.observatory
    # Without an observatory the chain is still verified, into a
    # journal that is then dropped.
    journal = (observatory.journal if observatory is not None
               else AuditJournal())
    with sink.suspended():
        journal.restore(chain)
        engine.history.restore(entries)
        if observatory is not None:
            _restore_watch(observatory.watch, state, records)
        if engine.cache is not None:
            _restore_cache(engine.cache, state, records, engine.history)

    alerts = []
    if observatory is not None:
        for requester in observatory.watch.requesters():
            alerts.extend(observatory.watch.check(requester))

    cumulative = journal.requesters()
    return RecoveryReport(
        backend=sink.backend.name,
        snapshot_through_seq=snapshot["through_seq"] if snapshot else 0,
        log_records=len(records),
        history_entries=len(entries),
        journal_records=len(chain),
        chain_valid=True,
        cumulative_loss=cumulative,
        epochs=(engine.cache.epochs.to_dict()
                if engine.cache is not None else {}),
        requesters=sorted({e["requester"] for e in entries}
                          | set(cumulative)),
        alerts=alerts,
    )


def _restore_watch(watch, state, records):
    """Snapshot knowledge first, then the logged releases, in order.

    ``note_*`` calls are idempotent on identical values, so a record
    that straddled compaction (in both snapshot and log after a crash
    between the two steps) cannot double-count — the second fold simply
    overwrites the first with the same value.
    """
    watch_state = state.get("watch")
    if watch_state:
        watch.restore_state(watch_state)
    for record in records:
        kind, pose = record.get("kind"), record.get("chained")
        if kind == KIND_POSE and pose["status"] == "answered":
            requester = pose["requester"]
            for measure, source, value in pose["cells"]:
                watch.note_cell(requester, measure, source, value)
            if record["hash"] is not None:  # an observatory saw the pose
                watch.absorb_poses({requester: 1})
        elif kind == KIND_PUBLICATION:
            requester = record["requester"]
            for measure, (mean, std) in (record.get("row_stats")
                                         or {}).items():
                watch.note_row_stat(requester, measure, mean, std=std,
                                    over=record.get("sources"))
            for source, mean in (record.get("source_means") or {}).items():
                watch.note_source_mean(requester, source, mean,
                                       over=record.get("measures"))
            for source, values in (record.get("own_data") or {}).items():
                watch.note_own_data(requester, source, values)


def _restore_cache(cache, state, records, history):
    """Epoch floors from snapshot + bump records; probe sets from history.

    ``restore_floor`` takes the max with the live counter, so epochs
    bumped *during rebuild* (source registration bumps the schema
    epoch before recover() runs) are never rolled back.  Probe sets
    are re-seeded without bumping — the recorded epoch values already
    include those bumps.
    """
    for name, value in (state.get("epochs") or {}).items():
        cache.epochs.restore_floor(name, value)
    for record in records:
        if record.get("kind") == KIND_EPOCH:
            cache.epochs.restore_floor(record["name"], record["value"])
    for entry in history.entries():
        if entry.is_aggregate and not entry.refused:
            cache.restore_probe(entry.requester, sorted(entry.attributes),
                                entry.predicate_signature)
