"""Recovery — replaying snapshot + log into a freshly built mediator.

The restart protocol: rebuild the system exactly as at first boot
(sources, policies, the same ``persistence=`` argument), then call
``PrivateIye.recover()`` — which lands here — *before* serving queries.
:func:`recover` then

1. loads the backend's ``(snapshot, records)``;
2. restores :class:`~repro.mediator.history.MediatorHistory` from the
   snapshot entries plus each logged pose's history delta — the
   SequenceGuard needs nothing else, so **a refusal that was final
   before the crash is final after it**;
3. re-verifies the audit journal's sha256 chain across the restart
   boundary (snapshot head + log tail form one chain) and restores it,
   which also restores the per-requester cumulative disclosure
   ``1 − Π(1 − loss_i)``;
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
from repro.observatory.journal import verify_records
from repro.persistence import CHAIN_FIELDS, KIND_EPOCH, KIND_POSE, KIND_PUBLICATION
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


def journal_dicts_from(snapshot, records):
    """The full journal chain: snapshot head + logged pose tails.

    Snapshots store journal records verbatim.  A logged pose keeps only
    the journal's chain fields (older stores: the whole record); the
    rest is rebuilt from the pose record's own fields, which the chain
    therefore covers.  :func:`~repro.observatory.journal.verify_records`
    walks the result from the genesis hash, across the snapshot
    boundary and the restart.
    """
    state = snapshot["state"] if snapshot else {}
    chain = list(state.get("journal") or [])
    for record in records:
        link = record.get("journal")
        if record.get("kind") != KIND_POSE or not link:
            continue
        chained = {name: link[name] for name in CHAIN_FIELDS}
        chained.update(
            requester=record["requester"],
            fingerprint=record["fingerprint"],
            status=record["status"],
            kind=record.get("refusal_kind"),
            per_source_loss=record.get("per_source_loss") or {},
            aggregated_loss=float(record.get("aggregated_loss", 0.0)),
        )
        chain.append(chained)
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

    chain = journal_dicts_from(snapshot, records)
    ok, bad_seq = verify_records(chain)
    if not ok:
        raise PersistenceError(
            f"audit journal chain fails verification at seq {bad_seq}; "
            "refusing to recover on top of tampered or damaged accounting"
        )

    entries = list(state.get("history", {}).get("entries", []))
    pose_records = [r for r in records if r.get("kind") == KIND_POSE]
    for record in pose_records:
        if record.get("history"):
            entries.append(record["history"])

    observatory = engine.observatory
    with sink.suspended():
        engine.history.restore(entries)
        if observatory is not None:
            if chain:
                observatory.journal.restore(chain)
            _restore_watch(observatory.watch, state, records)
        if engine.cache is not None:
            _restore_cache(engine.cache, state, records, engine.history)

    alerts = []
    if observatory is not None:
        for requester in observatory.watch.requesters():
            alerts.extend(observatory.watch.check(requester))

    cumulative = {}
    for record in chain:
        if record.get("status") == "answered":
            cumulative[record["requester"]] = record["cumulative_loss"]
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
        kind = record.get("kind")
        requester = record.get("requester")
        if kind == KIND_POSE and record.get("status") == "answered":
            for measure, source, value in record.get("cells") or ():
                watch.note_cell(requester, measure, source, value)
            if record.get("journal"):  # an observatory saw the pose
                watch.absorb_poses({requester: 1})
        elif kind == KIND_PUBLICATION:
            for measure, stat in (record.get("row_stats") or {}).items():
                mean, std = stat
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
