"""Predicate expression AST and its column masks.

Predicates are built from comparisons over columns and combined with
AND/OR/NOT.  The same AST is shared by the engine's WHERE evaluation, the
SQL generator, the privacy rewriter (which conjoins policy predicates onto
requester queries), and the query-feature extractor (which inspects
predicate structure to cluster queries).

A predicate is evaluated a whole table at a time: :meth:`Expr.mask` maps
a :class:`~repro.relational.table.ColumnView` to one boolean per row
(``Table.select`` turns that into row ids).  The semantics are two-valued:

* a comparison or IN test involving NULL is false (not an error), and
  ``IsNull`` is the explicit test;
* values compare as Python compares them: exactly across int and float
  (``2**53 + 1 != 2.0**53``), and incomparable types (``'a' < 5``) are
  false rather than an error — while ``'a' != 5`` is true;
* ``NOT`` is a plain complement, so ``NOT (x = 5)`` keeps the rows where
  ``x`` is NULL.  This is *not* SQL's three-valued logic, under which
  those rows would be unknown and dropped.  The tracker attack
  (:mod:`repro.statdb.tracker`) relies on it: ``C OR T`` and
  ``C OR NOT T`` together cover the table.

The row-at-a-time evaluator these masks replaced is the test oracle
``oracle_evaluate`` (``tests/kernels/oracles.py``).
"""

from __future__ import annotations

import operator

import numpy as np

from repro.errors import RelationalError

_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Expr:
    """Base class for predicate expressions."""

    def mask(self, columns):
        """One boolean per row of ``columns`` (a ``ColumnView``)."""
        raise NotImplementedError

    def columns_used(self):
        """The set of column names this expression references."""
        raise NotImplementedError

    def to_sql(self):
        """Render as a SQL text fragment."""
        raise NotImplementedError

    # Combinators ----------------------------------------------------------

    def and_(self, other):
        """``self AND other`` (flattens nested ANDs)."""
        if other is TRUE:
            return self
        if self is TRUE:
            return other
        parts = []
        for expr in (self, other):
            parts.extend(expr.parts if isinstance(expr, And) else [expr])
        return And(parts)

    def or_(self, other):
        """``self OR other``."""
        parts = []
        for expr in (self, other):
            parts.extend(expr.parts if isinstance(expr, Or) else [expr])
        return Or(parts)

    def negate(self):
        """``NOT self``."""
        return Not(self)


class _True(Expr):
    """The always-true predicate (an empty WHERE clause)."""

    def mask(self, columns):
        return np.ones(columns.n_rows, dtype=bool)

    def columns_used(self):
        return set()

    def to_sql(self):
        return "TRUE"

    def __repr__(self):
        return "TRUE"

    def __eq__(self, other):
        return isinstance(other, _True)


TRUE = _True()


class Comparison(Expr):
    """``column <op> literal``."""

    __slots__ = ("column", "op", "value")

    def __init__(self, column, op, value):
        if op not in _OPERATORS:
            raise RelationalError(f"unknown comparison operator {op!r}")
        self.column = column
        self.op = op
        self.value = value

    def mask(self, columns):
        return _comparison_mask(columns[self.column], self.op, self.value)

    def columns_used(self):
        return {self.column}

    def to_sql(self):
        op = "<>" if self.op == "!=" else self.op
        return f"{self.column} {op} {sql_literal(self.value)}"

    def __repr__(self):
        return f"({self.column} {self.op} {self.value!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (self.column, self.op, self.value)
            == (other.column, other.op, other.value)
        )


class IsNull(Expr):
    """``column IS [NOT] NULL``."""

    __slots__ = ("column", "negated")

    def __init__(self, column, negated=False):
        self.column = column
        self.negated = negated

    def mask(self, columns):
        nulls = columns[self.column].nulls
        return ~nulls if self.negated else nulls.copy()

    def columns_used(self):
        return {self.column}

    def to_sql(self):
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.column} {suffix}"

    def __repr__(self):
        return f"({self.column} {'IS NOT NULL' if self.negated else 'IS NULL'})"

    def __eq__(self, other):
        return (
            isinstance(other, IsNull)
            and (self.column, self.negated) == (other.column, other.negated)
        )


class InList(Expr):
    """``column IN (v1, v2, ...)``."""

    __slots__ = ("column", "values")

    def __init__(self, column, values):
        values = list(values)
        if not values:
            raise RelationalError("IN list must not be empty")
        self.column = column
        self.values = values

    def mask(self, columns):
        column = columns[self.column]
        mask = np.zeros(columns.n_rows, dtype=bool)
        for value in self.values:
            mask |= _comparison_mask(column, "=", value)
        return mask

    def columns_used(self):
        return {self.column}

    def to_sql(self):
        rendered = ", ".join(sql_literal(v) for v in self.values)
        return f"{self.column} IN ({rendered})"

    def __repr__(self):
        return f"({self.column} IN {self.values!r})"

    def __eq__(self, other):
        return (
            isinstance(other, InList)
            and (self.column, self.values) == (other.column, other.values)
        )


class And(Expr):
    """Conjunction of sub-expressions."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = [p for p in parts if p is not TRUE]
        if not self.parts:
            self.parts = [TRUE]

    def mask(self, columns):
        return np.logical_and.reduce([p.mask(columns) for p in self.parts])

    def columns_used(self):
        used = set()
        for part in self.parts:
            used |= part.columns_used()
        return used

    def to_sql(self):
        return " AND ".join(_parenthesize(p) for p in self.parts)

    def __repr__(self):
        return "(" + " AND ".join(repr(p) for p in self.parts) + ")"

    def __eq__(self, other):
        return isinstance(other, And) and self.parts == other.parts


class Or(Expr):
    """Disjunction of sub-expressions."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = list(parts)
        if not self.parts:
            raise RelationalError("OR requires at least one part")

    def mask(self, columns):
        return np.logical_or.reduce([p.mask(columns) for p in self.parts])

    def columns_used(self):
        used = set()
        for part in self.parts:
            used |= part.columns_used()
        return used

    def to_sql(self):
        return " OR ".join(_parenthesize(p) for p in self.parts)

    def __repr__(self):
        return "(" + " OR ".join(repr(p) for p in self.parts) + ")"

    def __eq__(self, other):
        return isinstance(other, Or) and self.parts == other.parts


class Not(Expr):
    """Negation of a sub-expression."""

    __slots__ = ("part",)

    def __init__(self, part):
        self.part = part

    def mask(self, columns):
        return ~self.part.mask(columns)

    def columns_used(self):
        return self.part.columns_used()

    def to_sql(self):
        return f"NOT ({self.part.to_sql()})"

    def __repr__(self):
        return f"NOT {self.part!r}"

    def __eq__(self, other):
        return isinstance(other, Not) and self.part == other.part


def sql_literal(value):
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def _parenthesize(expr):
    sql = expr.to_sql()
    if isinstance(expr, (And, Or)):
        return f"({sql})"
    return sql


def _comparison_mask(column, op, literal):
    """Rows where ``cell <op> literal`` holds; NULL on either side: false."""
    present = ~column.nulls
    if literal is None:
        return np.zeros_like(present)
    mask = np.zeros_like(present)
    mask[present] = _compare_objects(
        column.objects[present], _OPERATORS[op], literal
    )
    return mask


def _compare_objects(objects, compare, literal):
    """Element-wise Python comparison; an incomparable pair is false."""
    try:
        # Python's own float comparison with NaN raises the FPU invalid
        # flag numpy reports after an object loop; the answer is right.
        with np.errstate(invalid="ignore"):
            return np.asarray(compare(objects, literal), dtype=bool)
    except TypeError:
        # SQL-style: incomparable types compare false rather than raising,
        # so privacy predicates conjoined by the rewriter never crash a scan.
        return np.fromiter(
            # repro-lint: disable=REP012 -- only a column Python cannot
            # order against the literal as a whole: one pair at a time
            (_compare_or_false(compare, value, literal) for value in objects),
            dtype=bool, count=len(objects),
        )


def _compare_or_false(compare, left, right):
    try:
        return bool(compare(left, right))
    except TypeError:
        return False
