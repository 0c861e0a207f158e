"""The Privacy Control module (paper §5).

After integration the mediator re-verifies privacy: "the computed value of
privacy loss in a source may not hold after the results are integrated with
other sources."  Two mechanisms:

* **aggregated loss** — integrating overlapping releases compounds
  exposure; the combined loss is ``1 - Π(1 - loss_i)`` over the
  contributing sources (independent-evidence model).  When the aggregate
  exceeds a source's granted budget, that source's rows are withheld and
  the source is notified (a :class:`ViolationNotice`), exactly as §5
  prescribes.
* **inference-guard checks** — before the mediator *publishes* an
  aggregate table it runs the Figure-1 snooping inference defensively via
  :class:`repro.inference.guard.InferenceGuard` (see
  :meth:`PrivacyControl.check_publication`).

Each verification also feeds the telemetry registry (``control.*``
counters and the aggregated-loss histogram); the per-query loss ledger
itself lives in the engine's explain report (:mod:`repro.telemetry`).

Durability contract (:mod:`repro.persistence`): this module is
deliberately stateless per pose — the per-source and aggregated losses
it computes are what the engine writes ahead of answer release, and the
*cumulative* compounding over poses lives in the audit journal
(:mod:`repro.observatory.journal`), which is what recovery restores.
``notices_sent`` is a best-effort operator courtesy, not accounting,
and is intentionally not persisted.
"""

from __future__ import annotations

from repro.inference.guard import InferenceGuard
from repro.metrics.privacy_loss import budget_fixed_point, compound_loss
from repro.telemetry import NOOP


class ViolationNotice:
    """Notification sent to a source whose constraint would be violated."""

    def __init__(self, source, aggregated_loss, budget, detail):
        self.source = source
        self.aggregated_loss = aggregated_loss
        self.budget = budget
        self.detail = detail

    def to_dict(self):
        """The notice as the explain ledger lists it."""
        return {"source": self.source, "aggregated_loss": self.aggregated_loss,
                "budget": self.budget, "detail": self.detail}

    def __repr__(self):
        return (
            f"ViolationNotice({self.source!r}: aggregated "
            f"{self.aggregated_loss:.3f} > budget {self.budget:.3f})"
        )


class PrivacyControl:
    """Aggregated-loss verification + defensive inference checks."""

    def __init__(self, guard=None, telemetry=None):
        self.guard = guard or InferenceGuard(min_interval_width=5.0, starts=2)
        self.notices_sent = []
        self.telemetry = telemetry or NOOP

    def aggregated_loss(self, per_source_loss):
        """Combined privacy loss of integrating several releases."""
        return compound_loss(per_source_loss.values())

    def verify(self, rows, per_source_loss, budgets):
        """Enforce every source's budget against the aggregated loss.

        ``budgets`` maps source → the loss budget that source granted for
        its fragment (from its rewrite).  Sources whose budget is exceeded
        by the aggregate have their rows withheld and receive a notice.
        Returns ``(kept_rows, aggregated_loss, notices)``.

        The withholding fixed point itself lives in
        :func:`repro.metrics.privacy_loss.budget_fixed_point` so the static
        plan analyzer applies the identical loop.
        """
        participating, aggregated, withheld = budget_fixed_point(
            per_source_loss, budgets
        )
        notices = [
            ViolationNotice(
                source,
                loss_at_withholding,
                budget,
                "aggregated loss of integrated result exceeds the "
                "budget granted by this source",
            )
            for source, loss_at_withholding, budget in withheld
        ]

        kept_sources = set(participating)
        kept_rows = [
            row for row in rows
            if _row_sources(row) & kept_sources == _row_sources(row)
        ]
        self.notices_sent.extend(notices)
        metrics = self.telemetry.metrics
        metrics.counter("control.verifications").inc()
        if notices:
            metrics.counter("control.notices_sent").inc(len(notices))
            metrics.counter("control.rows_withheld").inc(
                len(rows) - len(kept_rows)
            )
            for notice in notices:
                # repro-lint: disable=REP010 -- §5 violation notices ARE
                # the protocol: the source granted the budget and is owed
                # the compound loss that tripped it; both are aggregates
                # from compound_loss, tainted only by tuple-return
                # granularity.
                self.telemetry.events.emit(
                    "control.violation_notice", source=notice.source,
                    aggregated_loss=notice.aggregated_loss,
                    budget=notice.budget,
                )
        # repro-lint: disable=REP010 -- compound loss is the published
        # accounting aggregate (the explain ledger's control section,
        # read off the privacy-control span, hands it to the
        # requester); tainted only by tuple-return granularity.
        metrics.histogram("control.aggregated_loss").observe(aggregated)
        return kept_rows, aggregated, notices

    def check_publication(self, published, true_matrix):
        """Defensive Figure-1 inference check before releasing aggregates."""
        return self.guard.check(published, true_matrix)


def _row_sources(row):
    source = row.get("_source", "")
    return set(source.split("+")) if source else set()
