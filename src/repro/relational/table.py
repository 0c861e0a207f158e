"""In-memory tables and their column view."""

from __future__ import annotations

import numpy as np

from repro.errors import RelationalError, SchemaError
from repro.relational.schema import TableSchema


class Table:
    """An in-memory table: a :class:`TableSchema` plus a list of row tuples.

    Rows are stored as coerced tuples.  :meth:`columns` is the columnar
    view predicates are evaluated over (:meth:`select`); it is built on
    first use and dropped by every mutation made through the table —
    :meth:`insert` and assigning :attr:`rows`.  Code that edits the row
    list in place must assign it back.
    """

    def __init__(self, schema, rows=None):
        if not isinstance(schema, TableSchema):
            raise SchemaError("Table requires a TableSchema")
        self.schema = schema
        self._rows = []
        self._columns = None
        for row in rows or []:
            self.insert(row)

    @classmethod
    def from_dicts(cls, name, dict_rows, column_order=None, types=None):
        """Build a table by inferring a schema from dict rows.

        Types are inferred per column from the first non-null value
        (``int`` → INT, ``float`` → FLOAT, ``bool`` → BOOL, else TEXT) and
        may be overridden via ``types`` (a name → type mapping).
        """
        from repro.relational.schema import Column
        from repro.relational.types import ColumnType

        dict_rows = list(dict_rows)
        if not dict_rows:
            raise SchemaError("from_dicts needs at least one row to infer a schema")
        names = list(column_order) if column_order else list(dict_rows[0].keys())
        columns = []
        overrides = types or {}
        for name_ in names:
            if name_ in overrides:
                col_type = overrides[name_]
                if isinstance(col_type, str):
                    col_type = ColumnType(col_type.lower())
            else:
                col_type = _infer_type(dict_rows, name_)
            columns.append(Column(name_, col_type))
        table = cls(TableSchema(name, columns))
        for row in dict_rows:
            table.insert(row)
        return table

    @property
    def name(self):
        """Table name (from the schema)."""
        return self.schema.name

    @property
    def rows(self):
        """The row tuples, in insertion order."""
        return self._rows

    @rows.setter
    def rows(self, rows):
        self._rows = rows
        self._columns = None

    def insert(self, row):
        """Insert one row (sequence or mapping), validating against schema."""
        self._rows.append(self.schema.coerce_row(row))
        self._columns = None

    def insert_many(self, rows):
        """Insert every row of ``rows``."""
        for row in rows:
            self.insert(row)

    def rows_as_dicts(self):
        """Yield each row as a column-name → value dict."""
        names = self.schema.column_names()
        for row in self.rows:
            yield dict(zip(names, row))

    def column_values(self, name):
        """All values of column ``name``, in row order."""
        index = self.schema.index_of(name)
        return [row[index] for row in self.rows]

    def columns(self):
        """The :class:`ColumnView` of the current rows (built once)."""
        view = self._columns
        if view is None:
            view = self._columns = ColumnView(self.schema, self._rows)
        return view

    def select(self, where):
        """Ids (ascending ``int64``) of the rows satisfying ``where``."""
        return np.flatnonzero(where.mask(self.columns()))

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self):
        return f"Table({self.schema.name!r}, rows={len(self.rows)})"


class ColumnData:
    """One column: its stored Python values and their NULL mask.

    ``objects`` (object dtype, ``None`` for NULL) is what comparisons,
    projections, group keys and aggregates read; numpy applies Python's
    own comparison to each element, so a mask agrees with Python exactly
    across int, float, bool and text.
    """

    __slots__ = ("objects", "nulls")

    def __init__(self, values):
        n = len(values)
        self.objects = np.empty(n, dtype=object)
        self.objects[:] = values
        self.nulls = np.fromiter((v is None for v in values), bool, n)


class ColumnView:
    """Every column of a table as :class:`ColumnData`, by name."""

    __slots__ = ("n_rows", "_data")

    def __init__(self, schema, rows):
        self.n_rows = len(rows)
        names = schema.column_names()
        cells = list(zip(*rows)) if rows else [() for _ in names]
        self._data = {
            name: ColumnData(list(values)) for name, values in zip(names, cells)
        }

    def __getitem__(self, name):
        data = self._data.get(name)
        if data is None:
            raise RelationalError(f"row has no column {name!r}")
        return data


def _infer_type(dict_rows, name):
    from repro.relational.types import ColumnType

    for row in dict_rows:
        value = row.get(name)
        if value is None:
            continue
        if isinstance(value, bool):
            return ColumnType.BOOL
        if isinstance(value, int):
            return ColumnType.INT
        if isinstance(value, float):
            return ColumnType.FLOAT
        return ColumnType.TEXT
    return ColumnType.TEXT
