"""Exact audit trails for SUM queries (Chin–Özsoyoğlu).

Each answered SUM query over a protected numeric column corresponds to a
0/1 vector over the records in its query set.  A new query is *unsafe* when
adding its vector to the span of previously answered vectors makes some
unit vector (an individual record) expressible — at that point the snooper
can solve the linear system for one person's exact value.

The check is exact rational linear algebra (no floating-point rank
tolerance issues) on a sparse basis kept in reduced row echelon form
(RREF): each row is a ``{column: value}`` dict of its nonzero entries,
keyed by its pivot.  A value is an ``int`` while it is integral and a
:class:`fractions.Fraction` otherwise — rows built from 0/1 query sets
mostly stay integral, and int arithmetic is far cheaper.  In RREF a
unit vector ``e_i`` lies in the row space iff some basis row *is*
``e_i``, so the audit only has to keep unit rows out of the basis.

Two facts keep the update cheap:

* the coefficient of basis row ``p`` in a vector's reduction is the
  vector's own entry at pivot ``p`` (every other row is zero there), so
  reducing a query set subtracts only the rows whose pivots it contains;
* a vector already in the span changes nothing, and the basis never
  holds a unit row (a query that would add one is refused), so such a
  vector is answered without touching the basis.

A vector outside the span becomes a new row whose pivot is eliminated
from *copies* of the rows that have an entry there; the basis takes the
copies only when no copy and not the new row is a unit vector.  One
lock serializes the check and the update, so concurrent queries on one
auditor are each checked against the basis the others left.  The
dense row-reducing auditor this replaced is the test oracle
``oracle_sum_auditor`` (``tests/kernels/oracles.py``).
"""

from __future__ import annotations

import threading
from fractions import Fraction

from repro.errors import AuditRefusal, ReproError


class SumAuditor:
    """Audit trail over a fixed population of ``n_records`` records."""

    def __init__(self, n_records):
        if n_records < 1:
            raise ReproError("auditor needs a positive record count")
        self.n_records = n_records
        self._lock = threading.Lock()
        self._basis = {}  # pivot -> {column: nonzero int/Fraction}, in RREF
        self.answered = []  # original query sets, for inspection

    def would_compromise(self, query_set):
        """True when answering ``query_set`` lets some record be isolated.

        ``query_set`` is an iterable of record indices in
        ``[0, n_records)``.
        """
        indices = self._indices(query_set)
        with self._lock:
            rows = self._candidate(indices)
        return any(len(row) == 1 for row in rows.values())

    def check_and_record(self, query_set):
        """Record the query if safe; raise :class:`AuditRefusal` otherwise."""
        indices = self._indices(query_set)
        with self._lock:
            rows = self._candidate(indices)
            exposed = sum(len(row) == 1 for row in rows.values())
            if exposed:
                # The refusal names *how many* records would be isolated,
                # never which: refusal text travels into events and
                # reports, and a record index is exactly the identity the
                # audit exists to protect.
                raise AuditRefusal(
                    f"answering would expose {exposed} record(s) "
                    f"(audit trail of {len(self.answered)} queries)"
                )
            self._basis.update(rows)
            self.answered.append(frozenset(query_set))

    def compromised_now(self):
        """Records already derivable from the answered queries (should be [])."""
        with self._lock:
            return [pivot for pivot, row in sorted(self._basis.items())
                    if len(row) == 1]

    def _indices(self, query_set):
        indices = set(query_set)
        if not indices:
            raise ReproError("query set must be non-empty")
        bad = [i for i in indices if not 0 <= i < self.n_records]
        if bad:
            raise ReproError(
                f"{len(bad)} query set index(es) out of range "
                f"[0, {self.n_records})"
            )
        return indices

    def _candidate(self, indices):
        """The rows (pivot → row) that adding ``indices`` changes or adds.

        They are new objects; the basis itself is left as it is.  Only
        they can be unit rows: the basis holds none.
        """
        residual = dict.fromkeys(indices, 1)
        for pivot in indices & self._basis.keys():
            _axpy(residual, -1, self._basis[pivot])
        if not residual:
            return {}  # linearly dependent on what we already answered
        pivot = min(residual)
        lead = residual[pivot]
        new_row = {column: _exact(Fraction(value) / lead)
                   for column, value in residual.items()}
        rows = {pivot: new_row}
        for existing_pivot, row in self._basis.items():
            factor = row.get(pivot)
            if factor is not None:
                row = dict(row)
                _axpy(row, -factor, new_row)
                rows[existing_pivot] = row
        return rows


def _axpy(target, factor, row):
    """``target += factor * row`` over sparse rows, dropping zeros."""
    for column, value in row.items():
        updated = target.get(column, 0) + factor * value
        if updated:
            target[column] = _exact(updated)
        else:
            del target[column]


def _exact(value):
    """``value`` as an ``int`` when it is integral."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value
