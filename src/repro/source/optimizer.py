"""Privacy-conscious query optimization (paper §4).

Builds the execution plan for a rewritten query, weighing the cost of
privacy checking and perturbation alongside scan cost, and compares the two
enforcement strategies the paper discusses:

* **rewrite-then-execute** (chosen by the paper): policy predicates are
  already folded into the query, so the scan touches only disclosable
  rows; technique cost applies to the (small) result.
* **execute-then-filter** (the baseline): the raw query runs first, every
  row is post-filtered against policy, and techniques apply to the larger
  intermediate — strictly more work, quantified by benchmark A1.

The optimizer also exploits the requester's MAXLOSS: when the estimated
loss already exceeds the budget, the plan is pruned to refusal before any
execution happens.
"""

from __future__ import annotations

from repro.errors import PrivacyViolation, ReproError


class ExecutionPlan:
    """An ordered list of plan steps plus the cost model's estimate."""

    def __init__(self, strategy, steps, estimated_cost):
        self.strategy = strategy
        self.steps = list(steps)
        self.estimated_cost = estimated_cost

    def __repr__(self):
        return (
            f"ExecutionPlan({self.strategy}, cost={self.estimated_cost:.1f}, "
            f"steps={self.steps})"
        )


class PrivacyAwareOptimizer:
    """Cost-based planner over the two enforcement strategies."""

    # relative cost units
    ROW_SCAN_COST = 1.0
    ROW_FILTER_COST = 0.6     # post-hoc policy check per row
    TECHNIQUE_BASE_COST = 5.0

    def __init__(self, table_size):
        if table_size < 1:
            raise ReproError("table_size must be positive")
        self.table_size = table_size

    def plan(self, rewrite, loss_estimate, techniques, max_loss=1.0,
             selectivity=None):
        """The chosen :class:`ExecutionPlan` for one query.

        Raises :class:`PrivacyViolation` when the loss estimate exceeds the
        requester's (or policy's) budget — pruning before execution is the
        optimization the paper highlights ("the maximum … privacy loss …
        can also be used in the query plan to filter out irrelevant
        processing of data").
        """
        self.check_budget(rewrite, loss_estimate, max_loss)
        selectivity = self._selectivity(rewrite, selectivity)
        candidates = [
            self._rewrite_plan(techniques, selectivity),
            self._filter_plan(techniques, selectivity),
        ]
        return min(candidates, key=lambda p: p.estimated_cost)

    def check_budget(self, rewrite, loss_estimate, max_loss=1.0):
        """Raise :class:`PrivacyViolation` when the estimate is over budget.

        The budget is the tighter of the requester's MAXLOSS and the
        policies' granted loss; the static gate raises this same refusal.
        """
        budget = min(max_loss, rewrite.loss_budget)
        if not loss_estimate.within_budget(budget):
            raise PrivacyViolation(
                f"estimated privacy loss {loss_estimate.privacy_loss:.3f} "
                f"exceeds budget {budget:.3f}; refusing before execution"
            )

    def _selectivity(self, rewrite, override):
        if override is not None:
            if not 0.0 < override <= 1.0:
                raise ReproError("selectivity must be in (0, 1]")
            return override
        # Equality predicates folded by the rewriter shrink the scan.
        n_predicates = len(rewrite.query.where.columns_used())
        return max(0.01, 0.5 ** n_predicates)

    def _rewrite_plan(self, techniques, selectivity):
        touched = self.table_size * selectivity
        cost = touched * self.ROW_SCAN_COST
        cost += sum(
            self.TECHNIQUE_BASE_COST + t.cpu_cost * touched * 0.01
            for t in techniques
        )
        steps = ["scan(rewritten)"]
        steps.extend(f"apply:{t.name}" for t in techniques)
        steps.append("tag+emit")
        return ExecutionPlan("rewrite-then-execute", steps, cost)

    def _filter_plan(self, techniques, selectivity):
        # full scan + per-row policy filter + techniques over full interim
        cost = self.table_size * (self.ROW_SCAN_COST + self.ROW_FILTER_COST)
        cost += sum(
            self.TECHNIQUE_BASE_COST + t.cpu_cost * self.table_size * 0.01
            for t in techniques
        )
        steps = ["scan(raw)", "filter(policy)"]
        steps.extend(f"apply:{t.name}" for t in techniques)
        steps.append("tag+emit")
        return ExecutionPlan("execute-then-filter", steps, cost)
