"""Unit tests for tables and catalogs."""

import sys
import threading

import pytest

from repro.errors import RelationalError, SchemaError
from repro.relational import (
    Catalog,
    Column,
    ColumnType,
    Comparison,
    Table,
    TableSchema,
)


class TestTable:
    def test_insert_validates(self):
        table = Table(TableSchema("t", [Column("a", "int")]))
        table.insert([1])
        with pytest.raises(SchemaError):
            table.insert(["x"])

    def test_from_dicts_infers_types(self):
        table = Table.from_dicts(
            "t", [{"a": 1, "b": 1.5, "c": "x", "d": True}]
        )
        types = {c.name: c.type for c in table.schema.columns}
        assert types == {
            "a": ColumnType.INT,
            "b": ColumnType.FLOAT,
            "c": ColumnType.TEXT,
            "d": ColumnType.BOOL,
        }

    def test_from_dicts_infers_from_first_non_null(self):
        table = Table.from_dicts("t", [{"a": None}, {"a": 2.5}])
        assert table.schema.column("a").type is ColumnType.FLOAT

    def test_from_dicts_type_override(self):
        table = Table.from_dicts("t", [{"a": 1}], types={"a": "float"})
        assert table.schema.column("a").type is ColumnType.FLOAT
        assert table.rows[0] == (1.0,)

    def test_from_dicts_requires_rows(self):
        with pytest.raises(SchemaError):
            Table.from_dicts("t", [])

    def test_column_values_and_len(self):
        table = Table.from_dicts("t", [{"a": 1}, {"a": 2}])
        assert table.column_values("a") == [1, 2]
        assert len(table) == 2

    def test_rows_as_dicts(self):
        table = Table.from_dicts("t", [{"a": 1, "b": "x"}])
        assert list(table.rows_as_dicts()) == [{"a": 1, "b": "x"}]

    def test_insert_many(self):
        table = Table(TableSchema("t", [Column("a", "int")]))
        table.insert_many([[1], [2], [3]])
        assert len(table) == 3


class TestColumnView:
    @staticmethod
    def table(n=3):
        return Table(TableSchema("t", [Column("a", "int")]), [[i] for i in range(n)])

    def test_mutation_drops_the_view(self):
        table = self.table()
        assert table.select(Comparison("a", "=", 3)).tolist() == []
        table.insert([3])
        assert table.select(Comparison("a", "=", 3)).tolist() == [3]
        table.rows = table.rows[2:]
        assert table.select(Comparison("a", "=", 3)).tolist() == [1]

    def test_unknown_column_raises(self):
        with pytest.raises(RelationalError):
            self.table().select(Comparison("b", "=", 1))

    def test_concurrent_first_use_builds_one_consistent_view(self):
        # Fan-out workers may select on a source's table at once; the
        # lazy view is built from rows nobody mutates, so every thread
        # must see the same ids whichever build wins.
        table = self.table(500)
        predicate = Comparison("a", "<", 250)
        results, errors = [], []

        def worker():
            try:
                for _ in range(40):
                    results.append(table.select(predicate).tolist())
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * 40
        assert all(ids == list(range(250)) for ids in results)


class TestCatalog:
    def test_add_and_lookup(self):
        cat = Catalog("db")
        table = Table.from_dicts("t", [{"a": 1}])
        cat.add(table)
        assert cat.table("t") is table
        assert "t" in cat
        assert cat.has_table("t")

    def test_duplicate_rejected(self):
        cat = Catalog()
        cat.add(Table.from_dicts("t", [{"a": 1}]))
        with pytest.raises(RelationalError, match="already"):
            cat.add(Table.from_dicts("t", [{"a": 2}]))

    def test_missing_table_error_lists_names(self):
        cat = Catalog("db")
        cat.add(Table.from_dicts("t", [{"a": 1}]))
        with pytest.raises(RelationalError, match=r"\['t'\]"):
            cat.table("missing")

    def test_drop(self):
        cat = Catalog()
        cat.add(Table.from_dicts("t", [{"a": 1}]))
        cat.drop("t")
        assert len(cat) == 0
        with pytest.raises(RelationalError):
            cat.drop("t")

    def test_non_table_rejected(self):
        with pytest.raises(RelationalError):
            Catalog().add("not a table")
