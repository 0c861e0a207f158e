"""Live snooper detection — Figure 1 run *against* the requesters.

:mod:`repro.inference.snooper` shows what a malicious source can infer
from published aggregates; :mod:`repro.inference.guard` checks one
release defensively.  The gap both leave open is the paper's central
threat: a requester who accumulates knowledge across *many* individually
safe interactions.  :class:`SnooperWatch` closes it by maintaining, per
requester, a ledger of everything the mediator has let them see — exact
per-source aggregate cells from answered queries, published row
statistics, published per-source means — and periodically replaying that
ledger through :func:`repro.inference.bounds.cell_bounds` exactly as a
Figure 1 adversary would.  When any confidential cell's feasibility
interval tightens below ``min_interval_width``, the requester has
effectively inferred the value, and the watch raises a
:class:`SnooperAlert` (and emits a ``snooperwatch.alert`` event) *before*
the next disclosure widens the breach.

The matrix model mirrors Figure 1: rows are measures (aggregate labels),
columns are sources.  A column is *known* to the requester when they
hold every measure's cell for it (their own data, or a fully-released
source); remaining cells are hidden and get bounded.  Knowledge arrives
incrementally — row sigmas published one query at a time are handled by
:class:`~repro.inference.bounds.AggregateConstraints`'s per-row optional
stds.

The bound replay costs SLSQP solves, so ``check_every`` trades latency
for vigilance (``1`` replays after every pose); alerts deduplicate on
``(requester, measure, source)`` so a breach fires exactly once.

Durability contract (:mod:`repro.persistence`): the knowledge ledgers
and pose counters round-trip through :meth:`SnooperWatch.state_dict` /
:meth:`SnooperWatch.restore_state`, and newer logged releases replay
through the ordinary ``note_*`` calls — so after ``recover()`` the
solver sees the identical matrix it saw before the crash.  Alert dedup
(``_alerted``) is process-local *by design*: a standing breach re-fires
once after every restart (at-least-once alerting for operators).
"""

from __future__ import annotations

import threading
import time

from repro.errors import ReproError
from repro.inference.bounds import AggregateConstraints, cell_bounds
from repro.telemetry import redact
from repro.telemetry.events import NOOP_EVENTS


class SnooperAlert:
    """One inferred-value breach: a cell's interval fell below threshold."""

    __slots__ = ("requester", "measure", "source", "low", "high", "width",
                 "threshold", "ts")

    def __init__(self, requester, measure, source, low, high, threshold, ts):
        self.requester = requester
        self.measure = measure
        self.source = source
        self.low = float(low)
        self.high = float(high)
        self.width = self.high - self.low
        self.threshold = threshold
        self.ts = ts

    def to_dict(self):
        return {
            "requester": self.requester,
            "measure": self.measure,
            "source": self.source,
            "low": self.low,
            "high": self.high,
            "width": self.width,
            "threshold": self.threshold,
            "ts": self.ts,
        }

    def __repr__(self):
        return (f"SnooperAlert({self.requester!r} infers "
                f"{self.measure!r}@{self.source!r} ∈ "
                f"[{self.low:.1f}, {self.high:.1f}])")


class _Knowledge:
    """Everything one requester has been shown, in Figure 1's shape."""

    __slots__ = ("measures", "sources", "cells", "row_means", "row_stds",
                 "source_means")

    def __init__(self):
        self.measures = []      # insertion-ordered row labels
        self.sources = []       # insertion-ordered column labels
        self.cells = {}         # (measure, source) → exact value
        self.row_means = {}     # measure → (mean, sources-spanned or None)
        self.row_stds = {}      # measure → published sample std
        self.source_means = {}  # source → (mean, measures-spanned or None)

    def touch_measure(self, measure):
        if measure not in self.measures:
            self.measures.append(measure)

    def touch_source(self, source):
        if source not in self.sources:
            self.sources.append(source)


class SnooperWatch:
    """Replays each requester's accumulated view through the bound solver.

    Parameters
    ----------
    min_interval_width:
        A hidden cell whose feasibility interval is narrower than this is
        considered *inferred* (the guard's 5.0 default matches
        :class:`repro.inference.guard.InferenceGuard`).
    check_every:
        Replay cadence in poses per requester (1 = after every pose).
    starts, seed, value_range, tolerance:
        Passed through to the bound problem; see
        :mod:`repro.inference.bounds`.
    """

    def __init__(self, min_interval_width=5.0, check_every=1, starts=2,
                 seed=0, value_range=(0.0, 100.0), tolerance=0.05,
                 clock=time.time):
        if min_interval_width <= 0:
            raise ReproError("min_interval_width must be positive")
        if check_every < 1:
            raise ReproError("check_every must be >= 1")
        self.min_interval_width = min_interval_width
        self.check_every = check_every
        self.starts = starts
        self.seed = seed
        self.value_range = value_range
        self.tolerance = tolerance
        self.events = NOOP_EVENTS
        self.alerts = []
        self._clock = clock
        self._lock = threading.Lock()
        self._knowledge = {}    # requester → _Knowledge
        self._poses = {}        # requester → poses since last replay
        self._alerted = set()   # (requester, measure, source) already fired

    # -- feeding knowledge -------------------------------------------------

    def _ledger(self, requester):
        ledger = self._knowledge.get(requester)
        if ledger is None:
            ledger = self._knowledge.setdefault(requester, _Knowledge())
        return ledger

    def note_cell(self, requester, measure, source, value):
        """The requester learned one exact cell (answered aggregate)."""
        with self._lock:
            ledger = self._ledger(requester)
            ledger.touch_measure(measure)
            ledger.touch_source(source)
            ledger.cells[(measure, source)] = float(value)

    def note_own_data(self, requester, source, values):
        """The requester's own column — ``{measure: value}`` at ``source``."""
        for measure, value in values.items():
            self.note_cell(requester, measure, source, value)

    def note_row_stat(self, requester, measure, mean, std=None, over=None):
        """A published per-measure mean (and optionally sample std).

        ``over`` names the sources the statistic spans (Figure 1(a)'s
        row means cover all four HMOs).  Passing it both widens the
        requester's matrix to those columns and pins the constraint's
        scope — a row mean is only applied when its span matches the
        matrix, otherwise the bound problem would be mis-specified.
        """
        with self._lock:
            ledger = self._ledger(requester)
            ledger.touch_measure(measure)
            for source in over or ():
                ledger.touch_source(source)
            ledger.row_means[measure] = (
                float(mean), frozenset(over) if over is not None else None
            )
            if std is not None:
                ledger.row_stds[measure] = float(std)

    def note_source_mean(self, requester, source, mean, over=None):
        """A published per-source mean; ``over`` names the measures spanned."""
        with self._lock:
            ledger = self._ledger(requester)
            ledger.touch_source(source)
            for measure in over or ():
                ledger.touch_measure(measure)
            ledger.source_means[source] = (
                float(mean), frozenset(over) if over is not None else None
            )

    # -- replaying ---------------------------------------------------------

    def note_pose(self, requester):
        """Count one pose; replay on cadence.  Returns any new alerts."""
        with self._lock:
            count = self._poses.get(requester, 0) + 1
            self._poses[requester] = count
            due = count % self.check_every == 0
        return self.check(requester) if due else []

    def check(self, requester):
        """Replay the requester's ledger now; returns new alerts only."""
        with self._lock:
            ledger = self._knowledge.get(requester)
            if ledger is None:
                return []
            constraints = self._constraints(ledger)
        if constraints is None:
            return []
        try:
            intervals = cell_bounds(constraints, starts=self.starts,
                                    seed=self.seed)
        except ReproError as error:
            # Inconsistent published aggregates: nothing inferable, but
            # worth a trace — the requester's view contradicts itself.
            self.events.emit("snooperwatch.infeasible", requester=requester,
                             reason=str(error))
            return []
        return self._raise_alerts(requester, ledger, constraints, intervals)

    def _constraints(self, ledger):
        """The requester's view as an :class:`AggregateConstraints`.

        Only measures whose published row mean spans the full column set
        constrain anything (a stat over a different span would
        mis-specify the bound problem); needs at least two source
        columns to pose a problem at all.
        """
        sources = list(ledger.sources)
        measures = self._model_rows(ledger, sources)
        if not measures or len(sources) < 2:
            return None
        known_columns = {}
        for j, source in enumerate(sources):
            column = [ledger.cells.get((m, source)) for m in measures]
            if all(v is not None for v in column):
                known_columns[j] = column
        if len(known_columns) == len(sources):
            return None  # nothing hidden — the requester was *told* it all
        row_stds = [ledger.row_stds.get(m) for m in measures]
        if all(s is None for s in row_stds):
            row_stds = None
        column_means = {}
        for j, source in enumerate(sources):
            if j in known_columns or source not in ledger.source_means:
                continue
            mean, span = ledger.source_means[source]
            if span is None or span == frozenset(measures):
                column_means[j] = mean
        return AggregateConstraints(
            n_rows=len(measures),
            n_cols=len(sources),
            known_columns=known_columns,
            row_means=[ledger.row_means[m][0] for m in measures],
            row_stds=row_stds,
            column_means=column_means,
            value_range=self.value_range,
            tolerance=self.tolerance,
        )

    @staticmethod
    def _model_rows(ledger, sources):
        """Measures whose row mean applies to the current column set."""
        rows = []
        for measure in ledger.measures:
            stat = ledger.row_means.get(measure)
            if stat is None:
                continue
            _, span = stat
            if span is None or span == frozenset(sources):
                rows.append(measure)
        return rows

    def _raise_alerts(self, requester, ledger, constraints, intervals):
        measures = self._model_rows(ledger, list(ledger.sources))
        sources = list(ledger.sources)
        fresh = []
        for (i, j), (low, high) in sorted(intervals.items()):
            if high - low >= self.min_interval_width:
                continue
            key = (requester, measures[i], sources[j])
            with self._lock:
                if key in self._alerted:
                    continue
                self._alerted.add(key)
                alert = SnooperAlert(requester, measures[i], sources[j],
                                     low, high, self.min_interval_width,
                                     self._clock())
                self.alerts.append(alert)
            fresh.append(alert)
            # The alert object keeps the exact interval for the ledger;
            # the *event* carries only its generalized position — an
            # operator reading telemetry must not learn the cell the
            # requester just pinned.  The width survives exactly: it is
            # the alerting signal and discloses nothing about position.
            # repro-lint: disable=REP010 -- measure/source are Figure-1
            # matrix labels and width/threshold are config; the interval
            # position is bucketed via redact.bucket_interval above.
            self.events.emit(
                "snooperwatch.alert", requester=requester,
                measure=alert.measure, source=alert.source,
                interval=redact.bucket_interval(alert.low, alert.high),
                width=alert.width, threshold=alert.threshold,
            )
        return fresh

    def alerts_for(self, requester):
        """Alerts raised against one requester, oldest first."""
        with self._lock:
            return [a for a in self.alerts if a.requester == requester]

    # -- persistence (see repro.persistence) -------------------------------

    def requesters(self):
        """Every requester with a knowledge ledger, sorted."""
        with self._lock:
            return sorted(self._knowledge)

    def state_dict(self):
        """Snapshot form: every ledger plus the pose cadence counters.

        Durability contract: this captures exactly what a Figure 1
        adversary retains — cells, row stats, source means, and the
        insertion order of the matrix labels (the bound solver's row/
        column order).  ``_alerted`` dedup state is deliberately *not*
        captured: after recovery a standing breach re-fires, giving
        operators at-least-once alerting across restarts.
        """
        with self._lock:
            knowledge = {
                requester: {
                    "measures": list(ledger.measures),
                    "sources": list(ledger.sources),
                    "cells": [
                        [measure, source, value]
                        for (measure, source), value in ledger.cells.items()
                    ],
                    "row_means": {
                        measure: [mean,
                                  sorted(span) if span is not None else None]
                        for measure, (mean, span) in ledger.row_means.items()
                    },
                    "row_stds": dict(ledger.row_stds),
                    "source_means": {
                        source: [mean,
                                 sorted(span) if span is not None else None]
                        for source, (mean, span)
                        in ledger.source_means.items()
                    },
                }
                for requester, ledger in self._knowledge.items()
            }
            return {"knowledge": knowledge, "poses": dict(self._poses)}

    def restore_state(self, state):
        """Rebuild ledgers from :meth:`state_dict` output (recovery).

        Replaces any same-named requester's ledger wholesale — recovery
        targets a freshly built watch, and the snapshot is the folded
        truth for everything at or before its sequence.  Newer logged
        releases are replayed on top via the ordinary ``note_*`` calls.
        """
        with self._lock:
            for requester, data in (state.get("knowledge") or {}).items():
                ledger = _Knowledge()
                ledger.measures = list(data.get("measures", ()))
                ledger.sources = list(data.get("sources", ()))
                ledger.cells = {
                    (measure, source): float(value)
                    for measure, source, value in data.get("cells", ())
                }
                ledger.row_means = {
                    measure: (float(mean),
                              frozenset(span) if span is not None else None)
                    for measure, (mean, span)
                    in (data.get("row_means") or {}).items()
                }
                ledger.row_stds = {
                    measure: float(std)
                    for measure, std in (data.get("row_stds") or {}).items()
                }
                ledger.source_means = {
                    source: (float(mean),
                             frozenset(span) if span is not None else None)
                    for source, (mean, span)
                    in (data.get("source_means") or {}).items()
                }
                self._knowledge[requester] = ledger
            for requester, count in (state.get("poses") or {}).items():
                self._poses[requester] = int(count)

    def absorb_poses(self, counts):
        """Add pose counts without triggering cadence checks (recovery).

        Replayed poses were already checked by the pre-crash process;
        recovery runs one explicit :meth:`check` pass per requester at
        the end instead, so alerts fire exactly once per replay rather
        than once per replayed pose.
        """
        with self._lock:
            for requester, count in counts.items():
                self._poses[requester] = (
                    self._poses.get(requester, 0) + int(count)
                )

    def __repr__(self):
        return (f"SnooperWatch(threshold={self.min_interval_width}, "
                f"alerts={len(self.alerts)})")
