"""A guarded statistical-query facade over one table.

:class:`ProtectedStatDB` is what a remote source's preservation module
wraps around its raw data when a query cluster calls for
statistical-database defenses: it answers COUNT/SUM/AVG over a predicate,
subject to a configurable stack of controls (set size, overlap, audit,
output perturbation).  Controls raise
:class:`~repro.errors.PrivacyViolation` (or the more specific
:class:`~repro.errors.AuditRefusal`) instead of answering.
"""

from __future__ import annotations

from repro.errors import PrivacyViolation, ReproError
from repro.relational.expr import TRUE
from repro.statdb.audit import SumAuditor
from repro.statdb.overlap import OverlapController, SetSizeControl

_FUNCS = ("count", "sum", "avg")


class StatQuery:
    """One statistical query: ``func(column) WHERE predicate``."""

    __slots__ = ("func", "column", "predicate")

    def __init__(self, func, column=None, predicate=None):
        func = func.lower()
        if func not in _FUNCS:
            raise ReproError(f"unknown statistical function {func!r}")
        if func != "count" and column is None:
            raise ReproError(f"{func} requires a column")
        self.func = func
        self.column = column
        self.predicate = predicate if predicate is not None else TRUE

    def __repr__(self):
        target = self.column if self.column else "*"
        return f"StatQuery({self.func}({target}) WHERE {self.predicate!r})"


class ProtectedStatDB:
    """A table guarded by statistical disclosure controls.

    Parameters mirror the classic defense stack; any subset may be active:

    * ``min_set_size`` — query-set-size control ``k`` (with complement
      restriction unless ``restrict_complement=False``);
    * ``max_overlap`` — pairwise overlap limit ``r`` across answered
      queries;
    * ``audit`` — exact SUM/AVG audit trail;
    * ``output_perturbation`` — an object with ``sampled_sum(query_set,
      values)`` and ``sampled_count(query_set)`` (e.g.
      :class:`~repro.statdb.output_perturbation.RandomSampleQueries`), or a
      :class:`~repro.statdb.output_perturbation.Rounder` applied to exact
      answers.
    """

    def __init__(
        self,
        table,
        min_set_size=None,
        restrict_complement=True,
        max_overlap=None,
        audit=False,
        output_perturbation=None,
    ):
        self.table = table
        n = len(table)
        self.set_size = (
            SetSizeControl(min_set_size, n, restrict_complement)
            if min_set_size
            else None
        )
        self.overlap = OverlapController(max_overlap) if max_overlap is not None else None
        self.auditor = SumAuditor(n) if audit else None
        self.perturbation = output_perturbation
        self.queries_answered = 0
        self.queries_refused = 0

    @property
    def n_records(self):
        """Number of records in the protected table."""
        return len(self.table)

    def query_set(self, predicate):
        """Indices of records satisfying ``predicate``."""
        return self.table.select(predicate).tolist()

    def answer(self, query, requester="anonymous"):
        """Answer ``query`` or raise a privacy error.

        Controls run in escalating cost order: set size, overlap, audit.
        Only queries that pass every control are recorded in the stateful
        controls, so a refused query does not poison the trail.
        ``requester`` matters only for budgeted (Laplace) perturbation.
        """
        query_set = self.query_set(query.predicate)
        if not query_set:
            raise PrivacyViolation("empty query set")
        try:
            if self.set_size is not None:
                self.set_size.check(query_set)
            if self.overlap is not None:
                self.overlap.check_and_record(query_set)
            if self.auditor is not None and query.func in ("sum", "avg"):
                self.auditor.check_and_record(query_set)
            value = self._compute(query, query_set, requester)
        except PrivacyViolation:
            self.queries_refused += 1
            raise
        self.queries_answered += 1
        return value

    def _compute(self, query, query_set, requester="anonymous"):
        if _is_laplace(self.perturbation):
            fingerprint = (
                f"{query.func}:{query.column}:"
                + ",".join(str(i) for i in sorted(query_set))
            )
            exact = self._exact_value(query, query_set)
            return self.perturbation.answer(exact, fingerprint, requester)
        sampler = self.perturbation if _is_sampler(self.perturbation) else None
        rounder = self.perturbation if not _is_sampler(self.perturbation) else None

        if query.func == "count":
            if sampler is not None:
                value = sampler.sampled_count(query_set)
            else:
                value = float(len(query_set))
        else:
            values = self._column_values(query.column)
            if sampler is not None:
                total = sampler.sampled_sum(query_set, values)
                count = sampler.sampled_count(query_set)
            else:
                total = float(sum(values[i] for i in query_set))
                count = float(len(query_set))
            if query.func == "sum":
                value = total
            else:
                if count == 0:
                    raise PrivacyViolation("sampled query set became empty")
                value = total / count
        if rounder is not None:
            value = rounder.round(value)
        return value

    def _exact_value(self, query, query_set):
        if query.func == "count":
            return float(len(query_set))
        values = self._column_values(query.column)
        total = sum(values[i] for i in query_set)
        if query.func == "sum":
            return float(total)
        return total / len(query_set)

    def _column_values(self, column):
        if not self.table.schema.has_column(column):
            raise ReproError(f"table has no column {column!r}")
        return [
            0.0 if value is None else float(value)
            for value in self.table.column_values(column)
        ]


def _is_sampler(perturbation):
    return perturbation is not None and hasattr(perturbation, "sampled_sum")


def _is_laplace(perturbation):
    return perturbation is not None and hasattr(perturbation, "noise_scale")
