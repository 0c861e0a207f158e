"""Static plan checking: decide disclosure before dispatch (Benedikt-style).

The paper's enforcement is *rewrite-then-execute*: every privacy verdict
(policy grants, loss budgets, statistical-database guards) is computable
from the query and policies alone — except the few that depend on data
or history.  :class:`PlanAnalyzer` exploits that split.  For each source
of a fragmentation plan it interprets the source's own compiled plan
(:meth:`repro.source.server.RemoteSource.prepare`: transform → policy
decisions → rewrite → consent fold → features and taint labels) with
the *actual runtime components* up to — but excluding — execution:

    source plan → cluster peek → loss estimate
                → budget comparison → decidable sequence defenses

and classifies the source as statically **answering**, statically
**refusing** (with the same exception kind and message the source would
raise), or **runtime-dependent**.  Because the same functions compute
both verdicts, static and runtime agreement is exact, not heuristic —
the differential property test in ``tests/analysis`` holds it to zero
disagreements.

Plan-level verdict lattice (see ``docs/static_analysis.md``)::

            SAFE                 no policy can refuse this plan
              |
        RUNTIME_CHECK            verdict depends on data/history;
              |                  remaining checks are enumerated
            REFUSE               some policy is guaranteed to refuse

``REFUSE`` carries the offending source and path (from the taint
labels), and the worst-case aggregated loss bound ``1 - Π(1 - loss_i)``
is computed symbolically with the same
:func:`repro.metrics.privacy_loss.budget_fixed_point` the runtime
:class:`~repro.mediator.control.PrivacyControl` applies.

What stays runtime-dependent (and why):

* aggregate queries with a WHERE clause (or a consent predicate): the
  query set — hence set-size control and the empty-set check — depends
  on the data;
* overlap control: depends on the history of previously answered sets;
* audit-trail over SUM/AVG: depends on the auditor's recorded history.

Availability is *not* part of the verdict: ``SAFE`` promises no
**policy refusal**, not that every source is reachable — dispatch
deadlines, retries, and circuit breakers still apply downstream.
"""

from __future__ import annotations

import time

from repro.analysis import taint
from repro.errors import (
    AccessDenied,
    PathError,
    PrivacyViolation,
    QueryError,
    ReproError,
)
from repro.metrics.privacy_loss import budget_fixed_point, compound_loss
from repro.query.features import features_with_budget

#: Verdicts, ordered SAFE > RUNTIME_CHECK > REFUSE (certainty of answering).
SAFE = "SAFE"
REFUSE = "REFUSE"
RUNTIME_CHECK = "RUNTIME_CHECK"

#: Per-source static statuses.
ANSWERS = "answers"
REFUSES = "refuses"
RUNTIME = "runtime"


class SourceStaticOutcome:
    """What the analyzer concluded about one source's fragment."""

    def __init__(self, source, status, loss=None, budget=None, labels=(),
                 refusal_kind=None, refusal_reason=None, runtime_checks=()):
        self.source = source
        self.status = status            # ANSWERS | REFUSES | RUNTIME
        self.loss = loss                # static per-source loss (ANSWERS)
        self.budget = budget            # granted loss budget (ANSWERS)
        self.labels = list(labels)      # TaintLabels for this fragment
        self.refusal_kind = refusal_kind
        self.refusal_reason = refusal_reason
        self.runtime_checks = list(runtime_checks)

    def to_dict(self):
        return {
            "source": self.source,
            "status": self.status,
            "loss": self.loss,
            "budget": self.budget,
            "labels": [label.to_dict() for label in self.labels],
            "refusal_kind": self.refusal_kind,
            "refusal_reason": self.refusal_reason,
            "runtime_checks": list(self.runtime_checks),
        }

    def __repr__(self):
        return f"SourceStaticOutcome({self.source}: {self.status})"


class PlanVerdict:
    """The analyzer's verdict for one fragmentation plan."""

    def __init__(self, verdict, reason=None, source=None, path=None,
                 per_source=(), aggregated_bound=0.0, max_loss=1.0,
                 runtime_checks=(), analysis_ms=0.0):
        self.verdict = verdict          # SAFE | REFUSE | RUNTIME_CHECK
        self.reason = reason            # REFUSE: the message pose() raises
        self.source = source            # REFUSE: first offending source
        self.path = path                # REFUSE: offending path, if known
        self.per_source = {o.source: o for o in per_source}
        self.aggregated_bound = aggregated_bound  # 1 - Π(1 - loss_i)
        self.max_loss = max_loss
        self.runtime_checks = list(runtime_checks)
        self.analysis_ms = analysis_ms
        self._ledger = None

    @property
    def refusing_sources(self):
        return sorted(
            name for name, outcome in self.per_source.items()
            if outcome.status == REFUSES
        )

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "source": self.source,
            "path": self.path,
            "per_source": {
                name: outcome.to_dict()
                for name, outcome in sorted(self.per_source.items())
            },
            "aggregated_bound": self.aggregated_bound,
            "max_loss": self.max_loss,
            "runtime_checks": list(self.runtime_checks),
            "analysis_ms": self.analysis_ms,
        }

    def ledger(self):
        """:meth:`to_dict`, rendered once per verdict: the explain section.

        A static-tier hit hands later poses the same verdict, so they
        share its one rendering; readers treat it as read-only.
        """
        if self._ledger is None:
            self._ledger = self.to_dict()
        return self._ledger

    def __repr__(self):
        return (
            f"PlanVerdict({self.verdict}, "
            f"bound={self.aggregated_bound:.3f}/{self.max_loss:.3f})"
        )


class PlanAnalyzer:
    """Taint-tracking abstract interpreter over fragmentation plans."""

    def analyze(self, query, plan, sources, requester=None, role=None,
                subjects=(), memos=None):
        """Statically check ``plan`` (a :class:`FragmentPlan`) for ``query``.

        ``sources`` maps source name → :class:`RemoteSource` (the
        engine's registry).  Returns a :class:`PlanVerdict`; raises
        :class:`AccessDenied` when RBAC blocks the requester, exactly as
        the runtime pipeline would (fail fast, before privacy checks).

        ``memos`` maps source name → the per-pose plan memo the engine
        also hands that source's ``answer``: a plan compiled here is the
        one the source then executes (see
        :meth:`repro.source.server.RemoteSource.prepare`).
        """
        started = time.perf_counter()
        outcomes = []
        for name in plan.sources:
            outcomes.append(self._analyze_source(
                sources[name], name, plan.fragments[name],
                requester, role, subjects,
                None if memos is None else memos[name],
            ))
        verdict = self._combine(query, outcomes)
        verdict.analysis_ms = (time.perf_counter() - started) * 1000.0
        return verdict

    # -- per-source abstract interpretation --------------------------------

    def _analyze_source(self, remote, name, fragment, requester, role,
                        subjects, memo=None):
        try:
            return self._interpret(remote, name, fragment, requester,
                                   role, subjects, memo)
        except AccessDenied:
            raise  # runtime fails fast on RBAC; the gate must too
        except (PrivacyViolation, PathError) as error:
            # the exact refusal the dispatcher would record as final
            return SourceStaticOutcome(
                name, REFUSES,
                refusal_kind=type(error).__name__,
                refusal_reason=str(error),
            )
        except (ReproError, AttributeError, TypeError, KeyError) as error:
            # Unanalyzable source (duck-typed test double, exotic
            # configuration): stay sound by deferring to runtime rather
            # than guessing.
            return SourceStaticOutcome(
                name, RUNTIME,
                runtime_checks=[f"{name}: not statically analyzable "
                                f"({type(error).__name__}: {error})"],
            )

    def _interpret(self, remote, name, fragment, requester, role, subjects,
                   memo=None):
        # prepare raises the AccessDenied / PrivacyViolation the runtime
        # would, caught by _analyze_source above.
        plan = remote.prepare(fragment, requester, role, subjects, memo=memo)
        labels = plan.labels
        features = features_with_budget(plan.features, fragment.max_loss)
        techniques = remote.clusterer.peek(features)
        estimate = remote.loss_estimator.estimate(plan.rewrite, features,
                                                  techniques)
        # The budget is checked before the decidable sequence defenses,
        # in the runtime's order, with the optimizer's own refusal.
        try:
            remote.optimizer.check_budget(plan.rewrite, estimate,
                                          fragment.max_loss)
        except PrivacyViolation as refusal:
            return SourceStaticOutcome(
                name, REFUSES, labels=labels,
                refusal_kind=type(refusal).__name__,
                refusal_reason=str(refusal),
            )

        runtime_checks = self._sequence_defense_checks(
            remote, name, plan.query, techniques
        )
        status = RUNTIME if runtime_checks else ANSWERS
        return SourceStaticOutcome(
            name, status, loss=estimate.privacy_loss,
            budget=plan.rewrite.loss_budget, labels=labels,
            runtime_checks=runtime_checks,
        )

    def _sequence_defense_checks(self, remote, name, query, techniques):
        """Statically resolve ``RemoteSource._sequence_defenses``.

        Returns the list of checks that must stay at runtime; raises
        :class:`PrivacyViolation` for defenses that are guaranteed to
        fail (caught by the caller as a static refusal).
        """
        if not query.is_aggregate:
            return []
        names = {t.name for t in techniques}
        checks = []
        if query.where.columns_used():
            # The query set depends on the data: the empty-set check and
            # set-size control cannot be decided here.
            detail = "query set is data-dependent (WHERE clause)"
            checks.append(f"{name}: query set non-empty [{detail}]")
            if "set-size-control" in names:
                checks.append(
                    f"{name}: {remote.set_size.k} <= |query set| [{detail}]"
                )
        else:
            # No predicate → the query set is the whole table, so both
            # defenses are decidable now.
            table_size = len(remote.table)
            if table_size == 0:
                raise PrivacyViolation(f"{name}: empty query set")
            if "set-size-control" in names:
                remote.set_size.check(range(table_size))
        if remote.overlap is not None:
            checks.append(
                f"{name}: |query set ∩ answered set| <= "
                f"{remote.overlap.max_overlap} [history-dependent]"
            )
        sums_private = any(
            a.func in ("sum", "avg") for a in query.aggregates
        )
        if "audit-trail" in names and sums_private:
            checks.append(
                f"{name}: SUM/AVG audit trail stays uncompromised "
                f"[history-dependent]"
            )
        return checks

    # -- plan-level combination --------------------------------------------

    def _combine(self, query, outcomes):
        answering = [o for o in outcomes if o.status == ANSWERS]
        refusing = [o for o in outcomes if o.status == REFUSES]
        runtime = [o for o in outcomes if o.status == RUNTIME]
        runtime_checks = [c for o in runtime for c in o.runtime_checks]

        if refusing and not answering and not runtime:
            # Every relevant source is statically guaranteed to refuse:
            # this is the runtime "no responses" branch, decided early.
            detail = "; ".join(
                f"{o.source}: {o.refusal_reason}" for o in refusing
            )
            offender = self._offending(refusing[0])
            return PlanVerdict(
                REFUSE,
                reason=("every relevant source refused the query "
                        f"(decided statically, before dispatch): {detail}"),
                source=refusing[0].source,
                path=offender,
                per_source=outcomes,
                max_loss=query.max_loss,
            )

        # Worst-case symbolic bound: every statically-answering and every
        # runtime-dependent source participates with its static loss.
        losses = {
            o.source: o.loss for o in answering + runtime
            if o.loss is not None
        }
        bound = compound_loss(losses.values()) if losses else 0.0

        if not runtime:
            # Fully static plan: replay the privacy control's budget
            # fixed point symbolically and compare against MAXLOSS.
            budgets = {o.source: o.budget for o in answering}
            _participating, aggregated, _withheld = budget_fixed_point(
                {o.source: o.loss for o in answering}, budgets
            )
            if aggregated > query.max_loss + 1e-9:
                return PlanVerdict(
                    REFUSE,
                    reason=(
                        f"aggregated privacy loss {aggregated:.3f} exceeds "
                        f"the requester's MAXLOSS {query.max_loss:.3f} "
                        "(decided statically, before dispatch)"
                    ),
                    source=max(answering, key=lambda o: o.loss).source,
                    per_source=outcomes,
                    aggregated_bound=bound,
                    max_loss=query.max_loss,
                )
            return PlanVerdict(
                SAFE, per_source=outcomes, aggregated_bound=bound,
                max_loss=query.max_loss,
            )

        if bound > query.max_loss + 1e-9:
            # The bound alone cannot justify REFUSE: budget withholding
            # or a runtime refusal may shrink the participating set.
            runtime_checks.append(
                f"aggregated loss bound {bound:.3f} vs MAXLOSS "
                f"{query.max_loss:.3f} (participating set is "
                "runtime-dependent)"
            )
        return PlanVerdict(
            RUNTIME_CHECK, per_source=outcomes, aggregated_bound=bound,
            max_loss=query.max_loss, runtime_checks=runtime_checks,
        )

    def _offending(self, outcome):
        """The offending path of a refusing source, from its taint labels."""
        label = taint.blocking_label(outcome.labels)
        if label is not None:
            return label.path
        denied = [lab for lab in outcome.labels if not lab.allowed]
        return denied[0].path if denied else None


def resolve_static_check(static_check):
    """Normalize the ``static_check`` constructor argument.

    ``True``/``None`` → a fresh :class:`PlanAnalyzer` (the default gate);
    ``False`` → ``None`` (gate disabled); a :class:`PlanAnalyzer`
    instance passes through.
    """
    if static_check is None or static_check is True:
        return PlanAnalyzer()
    if static_check is False:
        return None
    if isinstance(static_check, PlanAnalyzer):
        return static_check
    raise QueryError(
        "static_check must be True, False, None, or a PlanAnalyzer, "
        f"not {type(static_check).__name__}"
    )
