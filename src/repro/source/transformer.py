"""The Query Transformer (paper §4, "Query transformation").

The mediation engine forwards an XML query fragment that may be
*approximately* formulated — the mediated schema may not know the source's
nominal identifiers.  The transformer therefore resolves every path against
the source's vocabulary with the loose matcher, then compiles the PIQL
fragment into the source's local language: a
:class:`~repro.relational.engine.SelectQuery` (and its SQL text) for
relational sources.
"""

from __future__ import annotations

from repro.errors import PathError, QueryError
from repro.query.model import PiqlQuery
from repro.relational.engine import Aggregate, SelectQuery
from repro.relational.expr import Comparison, TRUE
from repro.relational.sql import to_sql
from repro.xmlkit.loose import LoosePathMatcher


class PathMapping:
    """How a source's table exposes itself as paths.

    ``table`` is the relational table all paths resolve into; the column
    vocabulary is taken from the table schema.  A path's final name test
    names the column (loosely); earlier steps are entity context (patient,
    record, ...) and are checked against ``entity_names`` when provided.
    """

    def __init__(self, table, entity_names=(), matcher=None):
        self.table = table
        self.entity_names = set(entity_names)
        self.matcher = matcher or LoosePathMatcher()
        self._vocabulary = frozenset(table.schema.column_names())

    def resolve_column(self, path):
        """The table column a path refers to, or raise PathError."""
        leaf = path.steps[-1].name
        if leaf == "*":
            raise PathError("cannot map wildcard leaf to a single column")
        match, score = self.matcher.best_match(leaf, self._vocabulary)
        if match is None:
            raise PathError(
                f"no column of table {self.table.name!r} matches path leaf "
                f"{leaf!r} (best score {score:.2f})"
            )
        return match


class TransformResult:
    """Outcome of transforming a PIQL fragment for one source."""

    def __init__(self, query, sql, column_of_path):
        self.query = query  # SelectQuery
        self.sql = sql      # SQL text for the destination engine
        self.column_of_path = column_of_path  # repr(path) → column name

    def __repr__(self):
        return f"TransformResult({self.sql!r})"


class QueryTransformer:
    """Compiles PIQL fragments into local SelectQueries."""

    def __init__(self, mapping):
        if not isinstance(mapping, PathMapping):
            raise QueryError("QueryTransformer needs a PathMapping")
        self.mapping = mapping

    def transform(self, piql):
        """Transform ``piql`` (a :class:`PiqlQuery`) into local form.

        Raises :class:`~repro.errors.PathError` when a path cannot be
        resolved against the source at all — the mediator treats that as
        "this fragment is not answerable here".
        """
        if not isinstance(piql, PiqlQuery):
            raise QueryError("transform needs a PiqlQuery")

        column_of_path = {}

        def column_for(path):
            key = repr(path)
            if key not in column_of_path:
                column_of_path[key] = self.mapping.resolve_column(path)
            return column_of_path[key]

        columns = [column_for(path) for path in piql.projections]
        aggregates = [
            Aggregate(
                item.func,
                "*" if item.path is None else column_for(item.path),
                item.alias,
            )
            for item in piql.aggregates
        ]
        group_by = [column_for(path) for path in piql.group_by]

        where = TRUE
        for predicate in piql.where:
            where = where.and_(
                Comparison(column_for(predicate.path), predicate.op,
                           predicate.value)
            )

        query = SelectQuery(
            self.mapping.table.name,
            columns=columns or None,
            aggregates=aggregates or None,
            where=where,
            group_by=group_by,
        )
        return TransformResult(query, to_sql(query), column_of_path)
