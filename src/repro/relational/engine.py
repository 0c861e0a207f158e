"""Logical queries and their executor.

A :class:`SelectQuery` is the engine's logical plan: projection or
aggregation over one table (optionally hash-joined with another), with an
optional WHERE predicate, GROUP BY, ORDER BY, and LIMIT.  :func:`execute`
runs a plan against a :class:`~repro.relational.catalog.Catalog` or a single
:class:`~repro.relational.table.Table` and returns a result
:class:`~repro.relational.table.Table`.

Execution is columnar: the WHERE clause is one mask over the table's
column view (``Table.select``), and projections, group keys and
aggregates read the selected rows' stored values from their columns.
Aggregates reduce those values in row order with plain Python
arithmetic, so results are exactly those of a row-at-a-time executor.

Aggregate functions: COUNT, SUM, AVG, MIN, MAX, STDDEV (population standard
deviation, matching the paper's Figure 1 sigma), and VAR.  ``COUNT(*)`` is
spelled ``Aggregate('count', '*')``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import RelationalError
from repro.relational.schema import Column, TableSchema
from repro.relational.table import Table
from repro.relational.types import ColumnType

AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max", "stddev", "var")


class Aggregate:
    """One aggregate output column: ``func(column) AS alias``."""

    __slots__ = ("func", "column", "alias")

    def __init__(self, func, column, alias=None):
        func = func.lower()
        if func not in AGGREGATE_FUNCS:
            raise RelationalError(f"unknown aggregate function {func!r}")
        if column == "*" and func != "count":
            raise RelationalError(f"{func}(*) is not valid; only count(*)")
        self.func = func
        self.column = column
        self.alias = alias or (f"{func}_{column}" if column != "*" else "count")

    def compute(self, values):
        """Apply the aggregate to a list of (possibly NULL) values.

        SQL semantics: NULLs are skipped; aggregates over an empty set
        yield NULL, except COUNT which yields 0.
        """
        if self.func == "count":
            if self.column == "*":
                return len(values)
            # repro-lint: disable=REP012 -- aggregates reduce the selected
            # values with Python arithmetic, so floats stay bit-identical
            return sum(1 for v in values if v is not None)
        # repro-lint: disable=REP012 -- as above
        present = [v for v in values if v is not None]
        if not present:
            return None
        if self.func == "sum":
            return sum(present)
        if self.func == "avg":
            return sum(present) / len(present)
        if self.func == "min":
            return min(present)
        if self.func == "max":
            return max(present)
        mean = sum(present) / len(present)
        variance = sum((v - mean) ** 2 for v in present) / len(present)
        if self.func == "var":
            return variance
        return math.sqrt(variance)

    def output_type(self, input_type):
        """The result column type given the input column's type."""
        if self.func == "count":
            return ColumnType.INT
        if input_type is ColumnType.BOOL:
            return ColumnType.FLOAT  # bools aggregate as 0/1
        if self.func in ("min", "max", "sum"):
            return input_type
        return ColumnType.FLOAT

    def __repr__(self):
        return f"{self.func}({self.column}) AS {self.alias}"

    def __eq__(self, other):
        return (
            isinstance(other, Aggregate)
            and (self.func, self.column, self.alias)
            == (other.func, other.column, other.alias)
        )


class Join:
    """An equi-join clause: ``JOIN right_table ON left_col = right_col``."""

    __slots__ = ("right_table", "left_column", "right_column")

    def __init__(self, right_table, left_column, right_column):
        self.right_table = right_table
        self.left_column = left_column
        self.right_column = right_column

    def __repr__(self):
        return (
            f"JOIN {self.right_table} ON "
            f"{self.left_column} = {self.right_column}"
        )

    def __eq__(self, other):
        return (
            isinstance(other, Join)
            and (self.right_table, self.left_column, self.right_column)
            == (other.right_table, other.left_column, other.right_column)
        )


class SelectQuery:
    """A logical SELECT over one table (plus optional equi-join)."""

    def __init__(
        self,
        table,
        columns=None,
        aggregates=None,
        where=None,
        group_by=None,
        order_by=None,
        limit=None,
        join=None,
        distinct=False,
    ):
        from repro.relational.expr import TRUE

        if columns and aggregates and not group_by:
            raise RelationalError(
                "mixing plain columns and aggregates requires GROUP BY"
            )
        if not columns and not aggregates:
            columns = ["*"]
        self.table = table
        self.columns = list(columns or [])
        self.aggregates = list(aggregates or [])
        self.where = where if where is not None else TRUE
        self.group_by = list(group_by or [])
        self.order_by = list(order_by or [])  # list of (column, ascending)
        self.limit = limit
        self.join = join
        self.distinct = distinct
        if self.group_by:
            stray = [c for c in self.columns if c not in self.group_by and c != "*"]
            if stray:
                raise RelationalError(
                    f"non-grouped columns in grouped query: {stray}"
                )

    @property
    def is_aggregate(self):
        """True when the query computes aggregate functions."""
        return bool(self.aggregates)

    def output_columns(self):
        """Names of the result columns, in order."""
        names = [c for c in self.columns if c != "*"]
        names.extend(a.alias for a in self.aggregates)
        return names

    def columns_used(self):
        """Every column the query touches (projection + predicates + keys)."""
        used = {c for c in self.columns if c != "*"}
        used |= {a.column for a in self.aggregates if a.column != "*"}
        used |= self.where.columns_used()
        used |= set(self.group_by)
        used |= {c for c, _asc in self.order_by}
        if self.join is not None:
            used |= {self.join.left_column, self.join.right_column}
        return used

    def replace(self, **changes):
        """A copy of this query with the given fields replaced."""
        fields = {
            "table": self.table,
            "columns": self.columns,
            "aggregates": self.aggregates,
            "where": self.where,
            "group_by": self.group_by,
            "order_by": self.order_by,
            "limit": self.limit,
            "join": self.join,
            "distinct": self.distinct,
        }
        fields.update(changes)
        return SelectQuery(**fields)

    def __repr__(self):
        from repro.relational.sql import to_sql

        return f"SelectQuery({to_sql(self)!r})"


def execute(query, source, row_ids=None):
    """Execute ``query`` against ``source`` (a Catalog or a Table).

    ``row_ids`` is the query set when the caller has already selected it
    (``table.select(query.where)`` over the query's table), so the WHERE
    clause is not evaluated twice.  A join selects over the joined
    table, so it takes no ``row_ids``.
    """
    from repro.relational.catalog import Catalog

    if isinstance(source, Catalog):
        table = source.table(query.table)
        if query.join is not None:
            if row_ids is not None:
                raise RelationalError("row_ids cannot be given for a join")
            right = source.table(query.join.right_table)
            table = _join(table, right, query.join)
    elif isinstance(source, Table):
        table = source
        if query.join is not None:
            raise RelationalError("joins require a Catalog source")
    else:
        raise RelationalError(f"cannot execute against {type(source).__name__}")

    if row_ids is None:
        row_ids = table.select(query.where)
    row_ids = np.asarray(row_ids, dtype=np.intp)

    if query.is_aggregate:
        result = _aggregate(query, table, row_ids)
        if query.order_by:
            # Grouped output: order-by columns must appear in the result.
            for column, ascending in reversed(query.order_by):
                index = result.schema.index_of(column)
                result.rows = _sort_nulls_last(
                    result.rows, lambda r, i=index: r[i], ascending
                )
    else:
        # Sort the source rows before projecting so ORDER BY may use
        # columns that the projection drops (standard SQL behaviour).
        if query.order_by:
            order = row_ids.tolist()
            for column, ascending in reversed(query.order_by):
                if not table.schema.has_column(column):
                    raise RelationalError(f"unknown ORDER BY column {column!r}")
                keys = table.columns()[column].objects.tolist()
                order = _sort_nulls_last(order, keys.__getitem__, ascending)
            row_ids = np.asarray(order, dtype=np.intp)
        result = _project(query, table, row_ids)

    if query.limit is not None:
        result.rows = result.rows[: query.limit]
    return result


def _sort_nulls_last(items, key, ascending):
    """``items`` stably sorted by ``key``, NULLs last in either direction."""
    # repro-lint: disable=REP012 -- ORDER BY: a stable sort by Python
    # comparison, over the selected rows' ids or the result rows
    present = [item for item in items if key(item) is not None]
    # repro-lint: disable=REP012 -- the NULL-keyed rows, as above
    absent = [item for item in items if key(item) is None]
    present.sort(key=key, reverse=not ascending)
    return present + absent


# -- executor internals -------------------------------------------------------


def _join(base, right, join):
    """The hash-joined table: every base row, then its matching right rows."""
    right_index = right.schema.index_of(join.right_column)
    build = {}
    # repro-lint: disable=REP012 -- hash join build side: one pass that
    # materializes the joined table the WHERE mask then runs over
    for row in right.rows:
        build.setdefault(row[right_index], []).append(row)

    joined_columns = list(base.schema.columns)
    seen = set(base.schema.column_names())
    for column in right.schema.columns:
        name = column.name
        if name in seen:
            name = f"{right.schema.name}_{column.name}"
        joined_columns.append(Column(name, column.type, column.nullable))
        seen.add(name)
    joined = Table(TableSchema(base.schema.name, joined_columns))

    rows = []
    if base.schema.has_column(join.left_column):
        left_index = base.schema.index_of(join.left_column)
        # repro-lint: disable=REP012 -- hash join probe side (see above)
        for left_row in base.rows:
            key = left_row[left_index]
            if key is None:
                continue
            rows.extend(left_row + right_row for right_row in build.get(key, ()))
    joined.rows = rows
    return joined


def _project(query, table, row_ids):
    schema = table.schema
    if query.columns == ["*"]:
        names = schema.column_names()
    else:
        names = query.columns
        for name in names:
            if not schema.has_column(name):
                # repro-lint: disable=REP010 -- echoes the requester's
                # own SELECT list and a table name: identifiers only
                raise RelationalError(
                    f"unknown column {name!r} in table {schema.name!r}"
                )
    columns = [schema.column(n) for n in names]
    result = Table(TableSchema(schema.name, columns))
    view = table.columns()
    rows = list(zip(*(view[n].objects[row_ids].tolist() for n in names)))
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    result.rows = rows
    return result


def _aggregate(query, table, row_ids):
    schema = table.schema
    for aggregate in query.aggregates:
        if aggregate.column != "*" and not schema.has_column(aggregate.column):
            raise RelationalError(
                f"unknown aggregate column {aggregate.column!r}"
            )
        if aggregate.column != "*" and aggregate.func not in ("count", "min", "max"):
            column_type = schema.column(aggregate.column).type
            # BOOL aggregates as 0/1 — AVG(compliant) is a compliance rate.
            if not column_type.is_numeric and column_type is not ColumnType.BOOL:
                raise RelationalError(
                    f"{aggregate.func}({aggregate.column}) needs a numeric column"
                )
    for name in query.group_by:
        if not schema.has_column(name):
            raise RelationalError(f"unknown GROUP BY column {name!r}")

    out_columns = [schema.column(n) for n in query.group_by]
    for aggregate in query.aggregates:
        input_type = (
            ColumnType.INT
            if aggregate.column == "*"
            else schema.column(aggregate.column).type
        )
        out_columns.append(
            Column(aggregate.alias, aggregate.output_type(input_type))
        )
    result = Table(TableSchema(schema.name, out_columns))

    view = table.columns()
    if query.group_by:
        keys = zip(*(view[n].objects[row_ids].tolist() for n in query.group_by))
        positions = {}
        # repro-lint: disable=REP012 -- one pass over the selected rows'
        # keys: grouping by Python equality and hashing is GROUP BY
        for position, key in enumerate(keys):
            positions.setdefault(key, []).append(position)
        groups = {key: row_ids[p] for key, p in positions.items()}
    else:
        groups = {(): row_ids}  # a global aggregate over zero rows still emits one row

    rows = []
    for key in sorted(groups, key=_null_safe_key):
        group_ids = groups[key]
        values = list(key)
        for aggregate in query.aggregates:
            if aggregate.column == "*":
                column_values = [1] * len(group_ids)
            else:
                # repro-lint: disable=REP012 -- the group's values as
                # Python numbers, bools as 0.0/1.0, for Aggregate.compute
                column_values = [
                    float(v) if isinstance(v, bool) else v
                    for v in view[aggregate.column].objects[group_ids].tolist()
                ]
            values.append(aggregate.compute(column_values))
        rows.append(tuple(values))
    result.rows = rows
    return result


def _null_safe_key(key):
    return tuple((v is None, str(type(v).__name__), v) for v in key)
