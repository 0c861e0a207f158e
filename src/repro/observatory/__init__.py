"""The disclosure observatory — accountable disclosure, live.

The telemetry layer records what the pipeline *did*; the observatory
records what the deployment *disclosed*, tamper-evidently, and watches
for the paper's sequence attack as it develops:

* :class:`~repro.observatory.journal.AuditJournal` — a SHA-256
  hash-chained, append-only journal with one record per ``pose()``
  (answered or refused): the settled pose record — requester, plan
  fingerprint, refusal, history entry, losses, released cells — plus
  the requester's cumulative disclosure ``1 − Π(1 − loss_i)``.  Its
  canonical bytes are what the write-ahead log writes;
  ``verify_chain()`` detects any byte of tampering.
* :class:`~repro.observatory.snooperwatch.SnooperWatch` — per-requester
  ledgers of released aggregates, replayed through
  :mod:`repro.inference.bounds` on a cadence; when a confidential cell's
  feasibility interval tightens below threshold the watch raises a
  :class:`~repro.observatory.snooperwatch.SnooperAlert` and emits a
  ``snooperwatch.alert`` event.

:class:`Observatory` bundles both behind the interface the mediation
engine's settle step drives: ``record_pose()`` for every settled pose,
``observe_result()`` with an answered pose's released cells.  Enable
with ``PrivateIye(observatory=True)`` (the engine holds
``observatory=None`` by default — one ``is None`` check and the query
path is untouched).
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.observatory.journal import (
    GENESIS_HASH,
    AuditJournal,
    JournalRecord,
    verify_records,
)
from repro.observatory.snooperwatch import SnooperAlert, SnooperWatch
from repro.query.model import PiqlQuery
from repro.telemetry.events import NOOP_EVENTS

__all__ = [
    "GENESIS_HASH",
    "AuditJournal",
    "JournalRecord",
    "Observatory",
    "SnooperAlert",
    "SnooperWatch",
    "released_cells",
    "resolve_observatory",
    "verify_records",
]


def released_cells(query, result):
    """The exact per-source cells an answered query handed the requester.

    Ungrouped aggregate results release one row per source (tagged
    ``_source`` by the integrator), each an exact cell under the
    aggregate's alias — precisely the knowledge a Figure 1 adversary
    accumulates.  Returns ``[(measure, source, value), ...]``; empty
    for non-aggregates and grouped queries.  Runs once per answered
    pose, into its :class:`~repro.mediator.engine.PoseRecord`, so what
    is persisted is byte-for-byte what the watch learned.
    """
    cells = []
    if (isinstance(query, PiqlQuery) and query.is_aggregate
            and not query.group_by):
        for item in query.aggregates:
            for row in result.rows:
                source = row.get("_source")
                value = row.get(item.alias)
                if source is None or not isinstance(value, (int, float)):
                    continue
                cells.append((item.alias, source, float(value)))
    return cells


class Observatory:
    """Journal + snooper-watch behind one engine-facing interface."""

    def __init__(self, journal=None, watch=None, min_interval_width=5.0,
                 check_every=1):
        self.journal = journal if journal is not None else AuditJournal()
        self.watch = watch if watch is not None else SnooperWatch(
            min_interval_width=min_interval_width, check_every=check_every,
        )
        self._events = NOOP_EVENTS
        #: Write-ahead sink for out-of-band publications; attached by
        #: :meth:`repro.persistence.PersistenceSink.bind` (``None``
        #: keeps publications memory-only, today's default).
        self.persistence = None

    @property
    def events(self):
        """The event log alerts are emitted into (attached by the engine)."""
        return self._events

    @events.setter
    def events(self, events):
        self._events = events
        self.watch.events = events

    # -- engine integration ------------------------------------------------

    def record_pose(self, pose):
        """Journal a settled :class:`~repro.mediator.engine.PoseRecord`;
        returns the :class:`JournalRecord`."""
        return self.journal.append(pose)

    def observe_result(self, requester, cells):
        """Fold an answered pose's released cells into the snooper ledger.

        ``cells`` are :func:`released_cells` ``(measure, source, value)``
        triples, each adversary knowledge.  Then counts the pose and, on
        cadence, replays the ledger; returns any fresh alerts.
        """
        for measure, source, value in cells:
            self.watch.note_cell(requester, measure, source, value)
        return self.watch.note_pose(requester)

    def note_publication(self, requester, row_stats=None, source_means=None,
                         own_data=None, sources=None, measures=None,
                         check=True):
        """Out-of-band releases the requester saw (Figure 1's tables).

        ``row_stats`` is ``{measure: (mean, std)}`` (std may be None),
        ``source_means`` is ``{source: mean}``, ``own_data`` is
        ``{source: {measure: value}}``.  ``sources``/``measures`` pin
        the span of the published statistics (Figure 1's row stats span
        all four HMOs; its source means span all three tests) — see
        :meth:`SnooperWatch.note_row_stat`.  With ``check=True`` the
        ledger is replayed immediately; returns any fresh alerts.

        Durability: with a persistence sink attached, the publication
        is appended to the write-ahead log *before* it is folded into
        the ledger — a crash can leave a publication recorded but
        unfolded (recovery replays it), never folded but forgotten.
        """
        row_stats = {
            measure: (stat if isinstance(stat, tuple) else (stat, None))
            for measure, stat in (row_stats or {}).items()
        }
        if self.persistence is not None:
            self.persistence.record_publication(
                requester, row_stats=row_stats,
                source_means=source_means, own_data=own_data,
                sources=sources, measures=measures,
            )
        for measure, (mean, std) in row_stats.items():
            self.watch.note_row_stat(requester, measure, mean, std=std,
                                     over=sources)
        for source, mean in (source_means or {}).items():
            self.watch.note_source_mean(requester, source, mean,
                                        over=measures)
        for source, values in (own_data or {}).items():
            self.watch.note_own_data(requester, source, values)
        return self.watch.check(requester) if check else []

    # -- reading -----------------------------------------------------------

    @property
    def alerts(self):
        """Every alert the watch has raised, oldest first."""
        return list(self.watch.alerts)

    def report(self):
        """A JSON-serializable observatory summary."""
        ok, bad_seq = self.journal.verify_chain()
        return {
            "journal": {
                "records": len(self.journal),
                "chain_valid": ok,
                "first_bad_seq": bad_seq,
                "cumulative_loss": self.journal.requesters(),
            },
            "snooper_watch": {
                "threshold": self.watch.min_interval_width,
                "check_every": self.watch.check_every,
                "alerts": [a.to_dict() for a in self.watch.alerts],
            },
        }

    def __repr__(self):
        return (f"Observatory(journal={len(self.journal)}, "
                f"alerts={len(self.watch.alerts)})")


def resolve_observatory(observatory):
    """Normalize an ``observatory`` constructor argument.

    ``None``/``False`` → ``None`` (disabled — the engine's query path
    stays untouched); ``True`` → a fresh :class:`Observatory`; an
    :class:`Observatory` passes through (share one across engines to
    pool the journal).
    """
    if observatory is None or observatory is False:
        return None
    if observatory is True:
        return Observatory()
    if isinstance(observatory, Observatory):
        return observatory
    raise ReproError(
        "observatory must be None, a bool, or an Observatory, "
        f"not {type(observatory).__name__}"
    )
