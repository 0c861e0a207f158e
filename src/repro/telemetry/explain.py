"""Per-query explain reports — the mediator's *privacy ledger*.

The paper's central claim is that privacy-preserving integration must be
*accountable*: Figure 1's snooping attack works precisely because nobody
tracks what a sequence of innocent-looking aggregates discloses, and §5
makes the mediator re-verify loss after integration.  An
:class:`ExplainReport` records, for one ``MediationEngine.pose()`` call,
every decision along that path:

* how the query was **fragmented** (relevant sources, skipped sources and
  why, mediated attributes touched);
* the **sequence guard**'s verdict (pass, or refused with the auditor's
  reason);
* whether the **warehouse** served a materialized copy or recomputed
  (mode, staleness, source calls);
* each **source outcome** — answered (privacy loss, granted budget, plan
  strategy, dropped/generalized columns) or refused (the refusal *kind*,
  :class:`~repro.errors.PrivacyViolation` vs :class:`~repro.errors.PathError`,
  plus the source's stated reason);
* **integration** counts (merged rows, private-dedup removals);
* the **privacy control** ledger line: per-source losses, the aggregated
  loss ``1 − Π(1 − loss_i)``, the requester's MAXLOSS, and any violation
  notices sent to sources.

Reports are held in a bounded :class:`ExplainLog`;
``PrivateIye.explain_last()`` surfaces the newest one.  When telemetry is
disabled the :class:`NoopExplainLog` returns one shared
:class:`NoopReport` whose mutators do nothing, so the disabled query path
allocates no report state at all.
"""

from __future__ import annotations

import copy
from collections import deque

from repro.query.language import to_piql


class ExplainReport:
    """The privacy ledger of one ``pose()`` call."""

    def __init__(self, query, requester, role):
        self.query = to_piql(query) if not isinstance(query, str) else query
        self.requester = requester
        self.role = role
        self.status = "in-flight"      # answered | refused | in-flight
        self.refusal = None            # {"kind", "reason"} when refused
        self.fragmentation = None      # {"sources", "skipped", "attributes"}
        self.sequence_guard = None     # {"verdict", "reason"}
        self.static = None             # static plan-check verdict dict
        self.cache = None              # per-tier hit/miss + fingerprint
        self.warehouse = None          # {"mode", "from_cache", ...}
        self.sources = {}              # source → outcome dict
        self.dispatch = None           # fan-out summary (mode, breakers)
        self.integration = None        # {"rows", "duplicates_removed"}
        self.control = None            # aggregated loss vs MAXLOSS + notices
        self.audit = None              # disclosure JournalRecord
        self.events = None             # events emitted during this pose
        self.validation = None         # measured residual risk (zoo runs)
        self.duration_ms = None

    # -- recording (called by the engine as the pipeline advances) ---------

    def set_fragmentation(self, plan):
        self.fragmentation = {
            "sources": list(plan.sources),
            "skipped": dict(plan.skipped_sources),
            "attributes": sorted(set(plan.mediated_names.values())),
        }

    def set_guard(self, verdict, reason=None):
        self.sequence_guard = {"verdict": verdict, "reason": reason}

    def set_static(self, verdict):
        """Record the pre-dispatch static plan-check verdict.

        ``verdict`` is a :class:`repro.analysis.plancheck.PlanVerdict`;
        the ledger keeps its dict form (rendered once per verdict, see
        :meth:`~repro.analysis.plancheck.PlanVerdict.ledger`) so reports
        stay JSON-serializable.
        """
        self.static = verdict.ledger()

    def set_cache(self, info):
        """Record the mediation-cache section (engine may call repeatedly
        as tiers resolve; the last call wins with the full picture)."""
        self.cache = dict(info)

    def set_warehouse(self, stats):
        self.warehouse = {
            "mode": stats.mode,
            "from_cache": bool(stats.from_cache),
            "origin": stats.origin,
            "source_calls": stats.source_calls,
            "staleness": stats.staleness,
        }

    def set_warehouse_miss(self, mode):
        """Record a miss whose recomputation raised (refused query)."""
        self.warehouse = {
            "mode": mode, "from_cache": False, "origin": "sources",
            "source_calls": None, "staleness": None,
        }

    def source_answered(self, name, response, dispatch=None):
        rewrite = response.rewrite
        outcome = {
            "outcome": "answered",
            "privacy_loss": response.privacy_loss,
            "information_loss": response.information_loss,
            "loss_budget": rewrite.loss_budget,
            "strategy": response.plan.strategy,
            "dropped_columns": list(rewrite.dropped),
            "generalized_columns": list(rewrite.generalized_columns),
        }
        if dispatch:
            outcome.update(dispatch)
        self.sources[name] = outcome

    def source_refused(self, name, refusal, dispatch=None):
        outcome = {
            "outcome": "refused",
            "kind": refusal.kind,
            "reason": refusal.reason,
        }
        if dispatch:
            outcome.update(dispatch)
        self.sources[name] = outcome

    def source_unavailable(self, name, refusal, dispatch=None):
        """A source that could not be *reached* (vs one that refused).

        ``refusal.kind`` carries the fault class — ``DeadlineExceeded``,
        ``TransientSourceError``, or ``CircuitOpen``.
        """
        outcome = {
            "outcome": "unavailable",
            "kind": refusal.kind,
            "reason": refusal.reason,
        }
        if dispatch:
            outcome.update(dispatch)
        self.sources[name] = outcome

    def set_dispatch(self, info):
        """Record the fan-out summary (mode, policy, wall, breakers)."""
        self.dispatch = dict(info)

    def set_control(self, per_source_loss, aggregated_loss, max_loss,
                    notices):
        self.control = {
            "per_source_loss": dict(per_source_loss),
            "aggregated_loss": aggregated_loss,
            "max_loss": max_loss,
            "within_budget": aggregated_loss <= max_loss + 1e-9,
            "notices": [
                {"source": n.source, "aggregated_loss": n.aggregated_loss,
                 "budget": n.budget, "detail": n.detail}
                for n in notices
            ],
        }

    def set_validation(self, summary):
        """Attach measured residual risk from the validation suite.

        ``summary`` is the ``{family: {metric: value}}`` shape produced
        by :func:`repro.validation.summarize` (any JSON-serializable
        dict is accepted) — adversary-zoo runs stamp the ledger of the
        query they last posed, so the explain report shows not just what
        was *charged* but what an adversary could actually *measure*.
        """
        self.validation = dict(summary)

    def finish(self, pose, audit=None, events=()):
        """Close the ledger from the settled pose.

        ``pose`` is the engine's :class:`~repro.mediator.engine.
        PoseRecord`; ``audit`` its journal record (exported with its
        chained payload and hash, so a report can be checked against
        the journal later);
        ``events`` those emitted while the pose ran and settled.
        """
        self.status = pose.status
        self.duration_ms = pose.duration_ms
        if pose.status == "refused":
            self.refusal = {"kind": pose.refusal_kind,
                            "reason": pose.refusal_reason}
        else:
            self.integration = {
                "rows": pose.rows,
                "duplicates_removed": pose.duplicates_removed,
            }
        self.audit = audit
        self.events = [e.to_dict() for e in events]

    # -- reading -----------------------------------------------------------

    def to_dict(self):
        """Plain-dict form of the full ledger (JSON-serializable)."""
        document = dict(vars(self))
        document["sources"] = dict(self.sources)
        # a copy: editing an exported ledger must not edit the journal
        document["audit"] = (copy.deepcopy(self.audit.to_dict())
                             if self.audit is not None else None)
        return document

    def refusing_sources(self):
        """Names of sources whose outcome was a refusal."""
        return sorted(
            name for name, outcome in self.sources.items()
            if outcome.get("outcome") == "refused"
        )

    def unavailable_sources(self):
        """Names of sources that could not be reached (faults, breaker)."""
        return sorted(
            name for name, outcome in self.sources.items()
            if outcome.get("outcome") == "unavailable"
        )

    def source_wall_ms(self):
        """``{source: wall_ms}`` — where the fan-out spent its time."""
        return {
            name: outcome["wall_ms"]
            for name, outcome in self.sources.items()
            if "wall_ms" in outcome
        }

    def __repr__(self):
        return (
            f"ExplainReport({self.requester!r}, {self.status}, "
            f"sources={sorted(self.sources)})"
        )


class ExplainLog:
    """Bounded buffer of the most recent explain reports."""

    def __init__(self, max_reports=64):
        self._reports = deque(maxlen=max_reports)

    def begin(self, query, requester, role):
        """Open (and retain) a report for a ``pose()`` call.

        ``query`` is a PIQL query or its already-rendered text.
        """
        report = ExplainReport(query, requester, role)
        self._reports.append(report)
        return report

    def last(self, requester=None):
        """The newest report, optionally the newest for ``requester``."""
        if requester is None:
            return self._reports[-1] if self._reports else None
        for report in reversed(self._reports):
            if report.requester == requester:
                return report
        return None

    def reports(self):
        """All retained reports, oldest first."""
        return list(self._reports)

    def __len__(self):
        return len(self._reports)


class NoopReport:
    """Absorbs every recording call; one shared instance, no state."""

    __slots__ = ()

    def _absorb(self, *args, **kwargs):
        pass

    set_fragmentation = set_guard = set_static = set_cache = _absorb
    set_warehouse = set_warehouse_miss = set_dispatch = set_control = _absorb
    source_answered = source_refused = source_unavailable = _absorb
    set_validation = finish = _absorb

    def to_dict(self):
        return {}

    def refusing_sources(self):
        return []

    def unavailable_sources(self):
        return []

    def source_wall_ms(self):
        return {}


NOOP_REPORT = NoopReport()


class NoopExplainLog:
    """Explain log used when telemetry is disabled: retains nothing."""

    __slots__ = ()

    def begin(self, query, requester, role):
        return NOOP_REPORT

    def last(self, requester=None):
        return None

    def reports(self):
        return []

    def __len__(self):
        return 0


NOOP_EXPLAIN = NoopExplainLog()
