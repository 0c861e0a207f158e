"""Per-query explain reports — the mediator's *privacy ledger*.

The paper's central claim is that privacy-preserving integration must be
*accountable*: Figure 1's snooping attack works precisely because nobody
tracks what a sequence of innocent-looking aggregates discloses, and §5
makes the mediator re-verify loss after integration.  An
:class:`ExplainReport` shows, for one ``MediationEngine.pose()`` call,
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

The ledger records nothing itself.  It is built once, when the pose
settles, from the pose's :class:`~repro.mediator.engine.PoseRecord`,
its journal record, its event window and its root span, on which each
stage set what it decided (see ``docs/observability.md``); each section
is rendered from those when it is read.  Reports are held in a bounded
:class:`ExplainLog`; ``PrivateIye.explain_last()`` surfaces the newest.
With telemetry disabled the :class:`NoopExplainLog` builds none.
"""

from __future__ import annotations

import copy
from collections import deque

#: ``PlanVerdict.verdict`` of a plan the static gate refused.
_REFUSE = "REFUSE"

#: The ledger's sections, in the order :meth:`ExplainReport.to_dict`
#: lists them.
_SECTIONS = (
    "query", "requester", "role", "status", "refusal", "fragmentation",
    "sequence_guard", "static", "cache", "warehouse", "sources",
    "dispatch", "integration", "control", "audit", "events", "validation",
    "duration_ms",
)


class ExplainReport:
    """The privacy ledger of one ``pose()`` call.

    ``query`` is the posed PIQL text; ``pose`` the settled
    :class:`~repro.mediator.engine.PoseRecord`; ``audit`` its
    disclosure :class:`~repro.observatory.journal.JournalRecord` (or
    ``None`` without an observatory); ``events`` those emitted while the
    pose ran and settled; ``root`` its ``mediator.pose`` span.
    ``validation`` is measured residual risk, stamped by adversary-zoo
    runs (:func:`repro.validation.zoo.run_adversary`).
    """

    def __init__(self, query, role, pose, audit, events, root):
        self.query = query
        self.requester = pose.requester
        self.role = role
        self.status = pose.status
        self.duration_ms = pose.duration_ms
        self.pose = pose
        self.audit = audit
        self.validation = None
        self._events = events
        self._root = root
        self._stages = None

    def _stage(self, name):
        """Attributes of the pose's first ``mediator.<name>`` span."""
        if self._stages is None:
            stages = {}
            for span in self._root.walk():
                stages.setdefault(span.name, span.attributes)
            self._stages = stages
        return self._stages.get(f"mediator.{name}")

    def _fact(self, stage, key):
        """What stage ``mediator.<stage>`` set as ``key`` (else ``None``)."""
        attributes = self._stage(stage)
        return attributes.get(key) if attributes is not None else None

    def _refused_statically(self):
        verdict = self._fact("static_check", "plan_verdict")
        return verdict is not None and verdict.verdict == _REFUSE

    # -- sections, read off the pose record ----------------------------------

    @property
    def refusal(self):
        if self.pose.status != "refused":
            return None
        return {"kind": self.pose.refusal_kind,
                "reason": self.pose.refusal_reason}

    @property
    def integration(self):
        if self.pose.status != "answered":
            return None
        return {"rows": self.pose.rows,
                "duplicates_removed": self.pose.duplicates_removed}

    @property
    def events(self):
        return [event.to_dict() for event in self._events]

    # -- sections, read off the stage spans ----------------------------------

    @property
    def fragmentation(self):
        plan = self._fact("fragment", "plan")
        if plan is None:
            return None
        return {
            "sources": plan.sources,
            "skipped": dict(plan.skipped_sources),
            "attributes": sorted(set(plan.mediated_names.values())),
        }

    @property
    def sequence_guard(self):
        guard = self._stage("sequence_guard")
        if guard is None:
            return None
        if "error" in guard:
            return {"verdict": "refused", "reason": self.pose.refusal_reason}
        return {"verdict": "pass", "reason": None}

    @property
    def static(self):
        """The static plan-check verdict, rendered once per verdict (see
        :meth:`~repro.analysis.plancheck.PlanVerdict.ledger`); poses the
        static tier serves share that rendering, read-only."""
        verdict = self._fact("static_check", "plan_verdict")
        return verdict.ledger() if verdict is not None else None

    @property
    def cache(self):
        """Per-tier hit/miss, the fingerprint and the epoch vector; from
        the guard's pass on (a tier the pose never reached is ``off``)."""
        guard = self._stage("sequence_guard")
        if guard is None or "error" in guard:
            return None
        epochs = guard.get("epochs")
        enabled = epochs is not None

        def tier(stage):
            if not enabled or stage is None or "cached" not in stage:
                return "off"
            return "hit" if stage["cached"] else "miss"

        warehouse = self._stage("warehouse")
        return {
            "enabled": enabled,
            "fingerprint": self.pose.fingerprint,
            "epochs": dict(epochs) if enabled else None,
            "plan": tier(self._stage("fragment")),
            "static": tier(self._stage("static_check")),
            # the hit's origin (answer cache or legacy warehouse) is in
            # the warehouse leg
            "answer": ("off" if warehouse is None
                       else "hit" if warehouse.get("from_cache") else "miss"),
        }

    @property
    def warehouse(self):
        """The answer tier's leg; a recomputation that refused shows as a
        miss.  A pose refused before the answer tier (by the guard, RBAC
        or a static REFUSE) has no leg, as its ``cache.answer`` is
        ``off``."""
        mode = self._root.attributes.get("warehouse")
        leg = self._stage("warehouse")
        if mode is None or leg is None:
            return None
        if "from_cache" in leg:
            hit = leg["from_cache"]
            return {"mode": mode, "from_cache": bool(hit),
                    "origin": hit or "sources",
                    "source_calls": leg["source_calls"],
                    "staleness": leg["staleness"]}
        return {"mode": mode, "from_cache": False, "origin": "sources",
                "source_calls": None, "staleness": None}

    @property
    def sources(self):
        """``{source: outcome}``; a static REFUSE lists the refusals the
        analyzer predicted, in the runtime path's shape."""
        if self._refused_statically():
            verdict = self._fact("static_check", "plan_verdict")
            return {
                name: {"outcome": "refused", "kind": outcome.refusal_kind,
                       "reason": outcome.refusal_reason, "static": True}
                for name, outcome in sorted(verdict.per_source.items())
                if outcome.refusal_kind is not None
            }
        outcomes = self._fact("fanout", "outcomes") or {}
        return {name: outcome.to_dict() for name, outcome in outcomes.items()}

    @property
    def dispatch(self):
        """The fan-out summary: mode, policy, wall, retries, breakers."""
        fanout = self._stage("fanout")
        if fanout is None or "outcomes" not in fanout:
            return None
        return {
            "mode": fanout["executor"],
            "policy": fanout["mode"],
            "wall_ms": fanout["wall_ms"],
            "retries": fanout["retries"],
            "breakers": {name: outcome.breaker_state
                         for name, outcome in fanout["outcomes"].items()},
        }

    @property
    def control(self):
        """The losses the privacy control verified, against MAXLOSS.

        Read off the stage's span rather than the pose record: a pose
        refused for MAXLOSS disclosed nothing, yet its ledger shows the
        losses that exceeded the bound.
        """
        control = self._stage("privacy_control")
        if control is None or "aggregated_loss" not in control:
            return None
        aggregated, max_loss = control["aggregated_loss"], control["max_loss"]
        return {
            "per_source_loss": dict(control["per_source_loss"]),
            "aggregated_loss": aggregated,
            "max_loss": max_loss,
            "within_budget": aggregated <= max_loss + 1e-9,
            "notices": [notice.to_dict() for notice in control["notices"]],
        }

    # -- reading -----------------------------------------------------------

    def to_dict(self):
        """Plain-dict form of the full ledger (JSON-serializable).

        A deep copy: editing it edits neither this report, nor the
        static verdict later poses share, nor the journal record.
        """
        document = {name: getattr(self, name) for name in _SECTIONS}
        if self.audit is not None:
            document["audit"] = self.audit.to_dict()
        return copy.deepcopy(document)

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

    def record(self, query, role, pose, audit, events, root):
        """Retain the ledger of a settled pose (see :class:`ExplainReport`)."""
        report = ExplainReport(query, role, pose, audit, events, root)
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


class NoopExplainLog:
    """Explain log used when telemetry is disabled: retains nothing."""

    __slots__ = ()

    def record(self, query, role, pose, audit, events, root):
        return None

    def last(self, requester=None):
        return None

    def reports(self):
        return []

    def __len__(self):
        return 0


NOOP_EXPLAIN = NoopExplainLog()
