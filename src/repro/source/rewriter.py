"""Privacy-preserving query rewriting (paper §4).

Given the transformed local query and the per-column policy decisions, the
rewriter produces a query ``q'`` that "will only retrieve the information
that can be accessed by the requester as well as preserves the privacy of
the data".  It prefers rewriting over post-filtering (the paper's stated
choice) and, among legal rewrites, picks the one with minimum privacy loss.

Rewrites applied, most- to least-preserving per column:

* **denied column in the projection** → dropped (or the whole query is
  refused when nothing would remain);
* **denied column in a predicate** → the query is refused — evaluating a
  predicate over forbidden data leaks through the result set;
* **EXACT grant** → untouched;
* **RANGE grant** → the column is marked for generalization in the result
  (the executor substitutes range labels);
* **AGGREGATE grant** → legal only inside aggregate functions; a
  record-level projection of the column is downgraded to dropped.

Each rewrite emits a ``source.rewrite`` span (dropped/generalized column
counts, granted loss budget) and ``rewriter.*`` metrics, so explain
reports can show *why* a projection shrank (:mod:`repro.telemetry`).
"""

from __future__ import annotations

from repro.errors import AccessDenied, PrivacyViolation, QueryError
from repro.policy.model import Decision, DisclosureForm
from repro.telemetry import NOOP


class RewriteResult:
    """The rewritten query plus how each column must be treated."""

    def __init__(self, query, column_forms, dropped, loss_budget, reasons):
        self.query = query
        self.column_forms = dict(column_forms)  # column → DisclosureForm
        self.dropped = list(dropped)
        self.loss_budget = loss_budget  # tightest policy max_loss granted
        self.reasons = list(reasons)

    @property
    def generalized_columns(self):
        """Columns to release as ranges rather than exact values."""
        return sorted(
            c for c, f in self.column_forms.items()
            if f is DisclosureForm.RANGE
        )

    def __repr__(self):
        return (
            f"RewriteResult(forms={ {c: f.name for c, f in self.column_forms.items()} }, "
            f"dropped={self.dropped})"
        )


class PrivacyRewriter:
    """Integrates access rules and policy decisions into local queries."""

    def __init__(self, rbac=None, resource_prefix=None, telemetry=None):
        self.rbac = rbac
        self.resource_prefix = resource_prefix
        # Kept in sync with the owning RemoteSource's telemetry setter.
        self.telemetry = telemetry or NOOP

    def rewrite(self, query, decisions, requester=None):
        """Rewrite ``query`` under per-column ``decisions``.

        ``decisions`` maps column name → :class:`Decision`.  Columns
        without a decision are treated as denied (least privilege).
        Raises :class:`PrivacyViolation` when the query cannot be answered
        at all, :class:`AccessDenied` when RBAC blocks the requester.

        Emits a ``source.rewrite`` span recording how many columns were
        dropped or generalized and the tightest loss budget granted.
        """
        with self.telemetry.span("source.rewrite") as span:
            result = self._rewrite(query, decisions, requester)
            span.set(
                dropped=len(result.dropped),
                generalized=len(result.generalized_columns),
                loss_budget=result.loss_budget,
            )
        metrics = self.telemetry.metrics
        metrics.counter("rewriter.rewrites").inc()
        if result.dropped:
            metrics.counter("rewriter.columns_dropped").inc(
                len(result.dropped)
            )
        metrics.histogram("rewriter.loss_budget").observe(result.loss_budget)
        return result

    def _rewrite(self, query, decisions, requester):
        for column, decision in decisions.items():
            if not isinstance(decision, Decision):
                raise QueryError(f"decision for {column!r} is not a Decision")

        self.check_rbac(query, requester)

        reasons = []
        column_forms = {}
        dropped = []
        loss_budget = 1.0

        def decision_for(column):
            decision = decisions.get(column)
            if decision is None:
                return Decision.deny(f"no policy decision for column {column!r}")
            return decision

        # Predicates must be fully legal — rewriting can't fix a predicate
        # over forbidden data without changing query semantics.
        for column in sorted(query.where.columns_used()):
            decision = decision_for(column)
            if not decision.allowed:
                raise PrivacyViolation(
                    f"predicate uses denied column {column!r}: "
                    f"{'; '.join(decision.reasons)}"
                )
            loss_budget = min(loss_budget, decision.max_loss)
            reasons.extend(decision.reasons)

        # Group-by columns behave like projections of category values.
        for column in query.group_by:
            decision = decision_for(column)
            if not decision.allowed:
                raise PrivacyViolation(
                    f"GROUP BY uses denied column {column!r}"
                )
            column_forms[column] = decision.form
            loss_budget = min(loss_budget, decision.max_loss)

        new_columns = []
        for column in query.columns:
            if column == "*":
                raise QueryError(
                    "rewriter requires explicit projections (no SELECT *)"
                )
            decision = decision_for(column)
            if not decision.allowed:
                dropped.append(column)
                reasons.extend(decision.reasons)
                continue
            if decision.form is DisclosureForm.AGGREGATE:
                # record-level projection not allowed at aggregate-only form
                dropped.append(column)
                reasons.append(
                    f"column {column!r} only disclosable in aggregate form"
                )
                continue
            column_forms[column] = decision.form
            loss_budget = min(loss_budget, decision.max_loss)
            new_columns.append(column)

        new_aggregates = []
        for aggregate in query.aggregates:
            if aggregate.column == "*":
                new_aggregates.append(aggregate)
                continue
            decision = decision_for(aggregate.column)
            if not decision.allowed:
                dropped.append(f"{aggregate.func}({aggregate.column})")
                reasons.extend(decision.reasons)
                continue
            # any allowed form ≥ AGGREGATE permits aggregation
            new_aggregates.append(aggregate)
            loss_budget = min(loss_budget, decision.max_loss)

        if not new_columns and not new_aggregates:
            raise PrivacyViolation(
                "nothing disclosable remains after rewriting: "
                + "; ".join(reasons or ["no columns requested"])
            )

        rewritten = query.replace(
            columns=new_columns or [],
            aggregates=new_aggregates or [],
        )
        return RewriteResult(rewritten, column_forms, dropped, loss_budget, reasons)

    def check_rbac(self, query, requester):
        """Raise :class:`AccessDenied` unless ``requester`` may read
        every column ``query`` uses (aggregate it, for an aggregate).

        :meth:`repro.source.server.RemoteSource.prepare` runs this on
        every call, so a compiled plan shared across requesters never
        carries one requester's grants to another.
        """
        if self.rbac is None or requester is None:
            return
        prefix = self.resource_prefix or query.table
        action = "aggregate" if query.is_aggregate else "read"
        for column in sorted(query.columns_used()):
            self.rbac.require(requester, action, f"{prefix}.{column}")
