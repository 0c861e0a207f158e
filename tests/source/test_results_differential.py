"""Differential tests: the result tagger and untagger against per-cell oracles.

``tag_results`` resolves each column's safe tag, form and generalizer
once per result and builds cells from the row tuples; ``untag_results``
walks each row's children once; ``_is_name`` remembers its verdict on
each name.  The oracles in ``oracles.py`` are the per-cell versions these
replaced.  Every document must serialize byte for byte as the oracle's
and untag to the same rows, over seeded tables mixing NULL, bool, int,
float and str cells, RANGE columns with and without a generalizer, a
non-ASCII identifier column that ``_safe_tag`` rewrites, and the
aggregate and record-level documents a ``RemoteSource`` releases.
"""

import random

import numpy as np
import pytest

from repro.errors import XmlError
from repro.policy import DisclosureForm
from repro.query import parse_piql
from repro.relational import Table
from repro.relational.schema import Column, TableSchema
from repro.relational.types import ColumnType
from repro.source import server as server_module
from repro.source.knowledge import default_techniques
from repro.source.results import tag_results, untag_results
from repro.xmlkit import Element, element, parse_xml, serialize
from repro.xmlkit import node as node_module
from tests.source.oracles import (
    oracle_is_name,
    oracle_tag_results,
    oracle_untag_results,
)
from tests.source.test_server import build_source

#: Column names (identifiers, as a schema requires): plain ones, a
#: non-ASCII one ``_safe_tag`` keeps, one led by a numeral (U+216B) it
#: prefixes, and non-ASCII identifier columns it rewrites (U+203F is
#: connector punctuation, U+0301 a combining mark: identifier
#: characters, but not alphanumeric).
COLUMNS = ("age", "mean", "first", "zip_code", "名前", "patient‿ssn",
           "cle\u0301_id", "\u216b_x", "n2")

STRINGS = ("", " ", "  padded  ", "True", "False", "1", "1.0", "3e5",
           "O'Brien", "<b>&amp;</b>", "ünïcødé", "line\nbreak", "15213")


def random_value(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-10**6, 10**6)
    if kind == 3:
        return rng.choice((0.0, -0.5, 1e-7, 2.5e12, rng.uniform(-100, 100)))
    if kind == 4:
        return rng.choice(STRINGS)
    return rng.choice((np.int64(7), np.float64(2.5), np.bool_(True)))


def seeded_table(rng, n_columns, n_rows):
    """A table whose rows mix every cell type, NULLs included.

    The rows are assigned unchecked, so one column can hold values of
    every type, as a source result's cells can after its techniques.
    """
    names = rng.sample(COLUMNS, n_columns)
    table = Table(TableSchema(
        "out", [Column(name, ColumnType.TEXT) for name in names]))
    table.rows = [tuple(random_value(rng) for _ in names)
                  for _ in range(n_rows)]
    return table


def generalize(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        low = (float(value) // 10.0) * 10.0
        return f"[{low:g}-{low + 10:g})"
    return None if value is None else f"{str(value)[:1]}*"


def assert_same_document(table, *args, **kwargs):
    document = tag_results(table, *args, **kwargs)
    expected = oracle_tag_results(table, *args, **kwargs)
    assert document.structurally_equal(expected)
    assert serialize(document) == serialize(expected)
    assert untag_results(document) == oracle_untag_results(expected)
    return document


@pytest.mark.parametrize("seed", range(25))
def test_seeded_tables_tag_and_untag_like_the_oracle(seed):
    rng = random.Random(seed)
    table = seeded_table(rng, rng.randint(1, len(COLUMNS)),
                         rng.randint(0, 30))
    names = table.schema.column_names()
    forms = {name: rng.choice(list(DisclosureForm))
             for name in names if rng.random() < 0.7}
    # RANGE columns with a generalizer, RANGE columns without one, and
    # generalizers on columns that are not RANGE (never applied)
    generalizers = {name: generalize for name in names
                    if rng.random() < 0.5}
    techniques = rng.sample(default_techniques(), rng.randint(0, 3))
    loss = rng.choice((0.0, 1.0, rng.random()))
    document = assert_same_document(table, f"S{seed}", forms, loss,
                                    techniques, generalizers)
    # a parsed copy (whitespace text between elements) untags the same
    reparsed = parse_xml(serialize(document, indent=2))
    assert untag_results(reparsed) == oracle_untag_results(reparsed)


def test_the_rewritten_identifier_column_keeps_its_safe_tag():
    table = Table.from_dicts("out", [{"patient‿ssn": "a1", "age": 61}])
    document = assert_same_document(
        table, "S", {"age": DisclosureForm.RANGE}, 0.2,
        generalizers={"age": generalize})
    row = document.find("rows").find("row")
    assert [cell.tag for cell in row.child_elements()] == [
        "patient_ssn", "age"]
    assert row.find("patient_ssn").text == "a1"
    assert row.find("age").text == "[60-70)"


def test_untag_skips_what_is_not_a_row_or_a_cell_like_the_oracle():
    table = seeded_table(random.Random(5), 5, 6)
    document = assert_same_document(table, "S", {}, 0.5)
    rows_node = document.find("rows")
    rows_node.children.insert(1, element("note", "not a row"))
    rows_node.children.insert(0, "\n  stray text  ")
    rows_node.append(Element("rows"))
    first = rows_node.find("row")
    first.children.insert(0, "loose text")
    first.append(element("extra", "7", type="int"))
    assert untag_results(document) == oracle_untag_results(document)


def test_empty_result_has_forms_and_no_rows():
    table = seeded_table(random.Random(99), 4, 0)
    document = assert_same_document(table, "S", {}, 0.5)
    assert document.find("rows").children == []


@pytest.fixture
def recorded_tagging(monkeypatch):
    """Every ``tag_results`` call a ``RemoteSource`` makes, checked
    against the oracle on the same arguments."""
    calls = []

    def checked(*args, **kwargs):
        calls.append(args[0].schema.column_names())
        return assert_same_document(*args, **kwargs)

    monkeypatch.setattr(server_module, "tag_results", checked)
    return calls


@pytest.mark.parametrize("piql", [
    # aggregate results
    "SELECT AVG(//patient/hba1c) AS mean "
    "PURPOSE outbreak-surveillance MAXLOSS 0.5",
    "SELECT AVG(//patient/hba1c) AS mean GROUP BY //patient/hmo "
    "PURPOSE outbreak-surveillance",
    # record-level results: a RANGE column generalized, a pseudonymized
    # identifier, a bool
    "SELECT //patient/age, //patient/hmo PURPOSE research",
    "SELECT //patient/id, //patient/age, //patient/consented "
    "PURPOSE research",
])
def test_source_documents_match_the_oracle(recorded_tagging, piql):
    source = build_source()
    response = source.answer(parse_piql(piql))
    assert recorded_tagging, "the source released no tagged document"
    assert untag_results(response.document) == oracle_untag_results(
        response.document)


class TestValidatedNames:
    def test_memo_agrees_with_the_character_check(self):
        rng = random.Random(7)
        alphabet = "ab_-.1\u216b\u00e9\u0301\u203f :<&"
        names = ["".join(rng.choice(alphabet)
                         for _ in range(rng.randint(0, 5)))
                 for _ in range(2000)]
        hits = node_module._is_valid_name.cache_info().hits
        for name in names + names:   # the second pass reads the memo
            assert node_module._is_name(name) == oracle_is_name(name)
        assert node_module._is_valid_name.cache_info().hits >= hits + 2000

    def test_invalid_names_still_raise_after_valid_ones_are_memoized(self):
        for name in ("row", "age", "patient_ssn", "null", "type"):
            Element(name).set(name, "v")
        for _ in range(2):   # the second round reads the memo
            for tag in ("", "1abc", "-x", ".x", "a b", "a<b", "row\u0301",
                        "\u0301row", " row"):
                with pytest.raises(XmlError):
                    Element(tag)
                with pytest.raises(XmlError):
                    element(tag, "v")
                with pytest.raises(XmlError):
                    Element("row").set(tag, "v")
            for tag in (None, 5, 1.5, True, b"row", ("row",), ["row"]):
                with pytest.raises(XmlError):
                    Element(tag)
                with pytest.raises(XmlError):
                    Element("row").set(tag, "v")

    def test_memo_is_bounded(self):
        bound = node_module._is_valid_name.cache_info().maxsize
        for index in range(2 * bound):
            Element(f"n{index}")
        assert node_module._is_valid_name.cache_info().currsize <= bound
        with pytest.raises(XmlError):
            Element("9lives")
