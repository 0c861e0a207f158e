"""Query feature extraction for privacy-conscious clustering (paper §4).

The Cluster Matching module decides which preservation techniques to apply
"by analyzing only the features of the query (types of predicates, types of
data returned, ...) without executing it".  This module turns a PIQL query
into that feature vector.
"""

from __future__ import annotations

from repro.errors import QueryError
from repro.query.model import AGGREGATE_FUNCS, PiqlQuery

_IDENTIFIER_HINTS = ("id", "ssn", "name", "dob", "dateofbirth", "patient")


class QueryFeatures:
    """A named feature bundle with a stable vector form."""

    FIELDS = (
        "returns_individuals",   # 1 when no aggregation (record-level output)
        "n_projections",
        "n_aggregates",
        "n_predicates",
        "n_equality_predicates",
        "n_range_predicates",
        "has_group_by",
        "touches_identifier",    # selects/filters an identifying path
        "touches_private",       # touches a privacy-view entry
        "requested_loss_budget",
    ) + tuple(f"agg_{func}" for func in AGGREGATE_FUNCS)

    def __init__(self, values):
        if set(values) != set(self.FIELDS):
            missing = set(self.FIELDS) ^ set(values)
            raise QueryError(f"feature fields mismatch: {sorted(missing)}")
        self.values = dict(values)

    def to_vector(self):
        """Feature values as floats in the stable :attr:`FIELDS` order."""
        return [float(self.values[f]) for f in self.FIELDS]

    def __getitem__(self, field):
        return self.values[field]

    def __repr__(self):
        active = {k: v for k, v in self.values.items() if v}
        return f"QueryFeatures({active})"


def extract_features(query, view=None):
    """Extract :class:`QueryFeatures` from a PIQL ``query``.

    ``view`` (a :class:`~repro.policy.views.PrivacyView`) marks private
    data; without one, ``touches_private`` is 0.
    """
    if not isinstance(query, PiqlQuery):
        raise QueryError("extract_features needs a PiqlQuery")

    touched = query.paths_touched()
    equality = sum(1 for p in query.where if p.is_equality)

    values = {
        "returns_individuals": 0.0 if query.is_aggregate else 1.0,
        "n_projections": float(len(query.projections)),
        "n_aggregates": float(len(query.aggregates)),
        "n_predicates": float(len(query.where)),
        "n_equality_predicates": float(equality),
        "n_range_predicates": float(len(query.where) - equality),
        "has_group_by": 1.0 if query.group_by else 0.0,
        "touches_identifier": 1.0 if any(
            _is_identifier_path(path) for path in touched
        ) else 0.0,
        "touches_private": 1.0 if view is not None and any(
            view.is_private(path) for path in touched
        ) else 0.0,
        "requested_loss_budget": float(query.max_loss),
    }
    for func in AGGREGATE_FUNCS:
        values[f"agg_{func}"] = float(
            sum(1 for a in query.aggregates if a.func == func)
        )
    return QueryFeatures(values)


def features_with_budget(base, max_loss):
    """``base`` with only ``requested_loss_budget`` replaced.

    Every other feature is MAXLOSS-independent, so a source's compiled
    plan keeps one base per fragment and the per-query budget is stamped
    here instead of re-walking the query's paths per MAXLOSS variant.
    """
    values = dict(base.values)
    values["requested_loss_budget"] = float(max_loss)
    return QueryFeatures(values)


def _is_identifier_path(path):
    from repro.xmlkit.loose import normalize_name

    last = normalize_name(path.steps[-1].name)
    return any(hint in last for hint in _IDENTIFIER_HINTS)
