"""Snapshot state capture — the privacy state folded into one dict.

A snapshot is the durability layer's checkpoint: everything `recover()
<repro.persistence.recovery.recover>` needs that is *not* replayable
from the newer log records.  :func:`capture_state` reads it off a live
:class:`~repro.mediator.engine.MediationEngine` (duck-typed — any
object exposing ``history``/``cache``/``observatory`` works, which is
what keeps this module importable below the mediator layer):

* ``history`` — every :class:`~repro.mediator.history.HistoryEntry`
  (the SequenceGuard derives all its state from these);
* ``epochs`` — the cache's epoch counters (floor-restored, so caches
  can only over-invalidate after a crash, never under-invalidate);
* ``journal`` — the audit-journal records, each its chained payload
  and hash (a logged pose record minus its envelope), so one walk
  re-verifies the chain across the snapshot boundary;
* ``watch`` — each requester's SnooperWatch knowledge ledger plus the
  pose cadence counters.

The capture is what the sink's ``state_provider`` calls at compaction
time, while the sink lock serializes it against concurrent appends.
"""

from __future__ import annotations

from repro.errors import PersistenceError

#: Bump when the snapshot layout changes incompatibly; ``recover()``
#: refuses a snapshot from a future version rather than misread it.
STATE_VERSION = 1


def capture_state(engine):
    """Fold the engine's privacy state into one JSON-serializable dict.

    Captures exactly the components that exist: an engine without an
    observatory contributes no ``journal``/``watch`` section, one
    without a cache no ``epochs`` section.  Safe to call at any pose
    boundary — each component snapshot takes that component's own lock.
    """
    state = {
        "version": STATE_VERSION,
        "history": engine.history.state_dict(),
    }
    if engine.cache is not None:
        state["epochs"] = engine.cache.epochs.to_dict()
    if engine.observatory is not None:
        state["journal"] = [
            record.to_dict()
            for record in engine.observatory.journal.records()
        ]
        state["watch"] = engine.observatory.watch.state_dict()
    return state


def validate_state(state):
    """Reject snapshots this code cannot faithfully restore.

    A malformed or future-versioned snapshot is fatal
    (:class:`~repro.errors.PersistenceError`): guessing at privacy
    state would void the cumulative-disclosure guarantee the layer
    exists to protect.
    """
    if not isinstance(state, dict):
        raise PersistenceError(
            f"snapshot state must be a dict, not {type(state).__name__}"
        )
    version = state.get("version")
    if version != STATE_VERSION:
        raise PersistenceError(
            f"snapshot state version {version!r} is not supported "
            f"(this build reads version {STATE_VERSION})"
        )
    return state
