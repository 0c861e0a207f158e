"""Query-set-size restriction and overlap control (Dobkin–Jones–Lipton).

Two classic restrictions:

* **Set-size control**: refuse query sets smaller than ``k`` or larger than
  ``n - k`` (the complement of a small set identifies individuals just as
  well — this is what the tracker attack exploits when only the lower bound
  is enforced).
* **Overlap control**: refuse a query whose set overlaps any previously
  answered set in more than ``r`` records.  Dobkin, Jones and Lipton show a
  snooper then needs at least ``1 + (k - 1) / r`` queries to compromise a
  record.
"""

from __future__ import annotations

import threading

from repro.errors import PrivacyViolation, ReproError


class SetSizeControl:
    """Refuse query sets of size < k or > n - k."""

    def __init__(self, k, n_records, restrict_complement=True):
        if k < 1:
            raise ReproError("set-size threshold k must be >= 1")
        if n_records < 2 * k and restrict_complement:
            raise ReproError(
                f"population {n_records} too small for k={k} with "
                "complement restriction"
            )
        self.k = k
        self.n_records = n_records
        self.restrict_complement = restrict_complement

    def check(self, query_set):
        """Raise :class:`PrivacyViolation` when the set size is out of range."""
        size = len(set(query_set))
        if size < self.k:
            raise PrivacyViolation(
                f"query set of size {size} below minimum {self.k}"
            )
        if self.restrict_complement and size > self.n_records - self.k:
            raise PrivacyViolation(
                f"query set of size {size} exceeds maximum "
                f"{self.n_records - self.k} (complement too small)"
            )


class OverlapController:
    """Refuse queries overlapping an answered set in more than ``r`` records."""

    def __init__(self, max_overlap):
        if max_overlap < 0:
            raise ReproError("max_overlap must be >= 0")
        self.max_overlap = max_overlap
        self._lock = threading.Lock()
        self.answered = []

    def check_and_record(self, query_set):
        """Record if every pairwise overlap is within bounds; else refuse.

        One lock holds the check and the append together: concurrent
        poses share a source, and two overlapping sets checked against
        the same history would otherwise both pass.
        """
        candidate = frozenset(query_set)
        with self._lock:
            for previous in self.answered:
                overlap = len(candidate & previous)
                if overlap > self.max_overlap:
                    raise PrivacyViolation(
                        f"query overlaps an answered query in {overlap} "
                        f"records (limit {self.max_overlap})"
                    )
            self.answered.append(candidate)

    def minimum_queries_to_compromise(self, k):
        """DJL lower bound on snooper effort: ``1 + (k - 1) / r``."""
        if self.max_overlap == 0:
            return float("inf")
        return 1 + (k - 1) / self.max_overlap
