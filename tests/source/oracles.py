"""Per-cell reference implementations of the result tagger and untagger.

These are ``tag_results`` and ``untag_results`` as they were before the
tagger resolved each column once per result: every cell looks up its
column's form and generalizer, rebuilds its safe tag and goes through
the validating ``element``/``set`` constructors, and the untagger walks
rows with ``find_all`` and ``child_elements``.  They live here, not in
``src/``, so production carries one implementation and
``test_results_differential.py`` compares the two on the same inputs.

The oracles are self-contained: from ``repro`` they import only the
XML data types, the disclosure forms, the error class and the helpers
production and reference share by design — the safe-tag rewrite and
the cell type name and parser, which decide a cell's text, not how the
document is walked.
"""

from repro.errors import ReproError
from repro.policy.model import DisclosureForm
from repro.source.results import _parse_value, _safe_tag, _type_name
from repro.xmlkit.node import Element, element


def oracle_tag_results(result_table, source_name, column_forms,
                       privacy_loss, techniques=(), generalizers=None):
    """The tagged XML result document, built cell by cell."""
    if not 0.0 <= privacy_loss <= 1.0:
        raise ReproError("privacy loss must be in [0, 1]")
    generalizers = generalizers or {}

    root = Element("results", {"source": source_name})
    meta = root.append(Element("privacy-metadata"))
    meta.append(element("loss", f"{privacy_loss:.6f}"))
    techniques_node = meta.append(Element("techniques"))
    for technique in techniques:
        techniques_node.append(element("technique", technique.name))
    forms_node = meta.append(Element("forms"))
    for column in result_table.schema.column_names():
        form = column_forms.get(column, DisclosureForm.EXACT)
        forms_node.append(
            element("column", None, name=column, form=form.name.lower())
        )

    rows_node = root.append(Element("rows"))
    for row in result_table.rows_as_dicts():
        row_node = rows_node.append(Element("row"))
        for column, value in row.items():
            form = column_forms.get(column, DisclosureForm.EXACT)
            if form is DisclosureForm.RANGE and column in generalizers:
                value = generalizers[column](value)
            if value is None:
                row_node.append(Element(_safe_tag(column),
                                        {"null": "true"}))
            else:
                cell = element(_safe_tag(column), value)
                cell.set("type", _type_name(value))
                row_node.append(cell)
    return root


def oracle_untag_results(root):
    """``(source, rows, metadata)`` of a tagged result document."""
    if root.tag != "results":
        raise ReproError(f"expected <results>, got <{root.tag}>")
    source = root.get("source")
    meta = root.find("privacy-metadata")
    if meta is None:
        raise ReproError("result document lacks privacy metadata")
    loss_node = meta.find("loss")
    loss = float(loss_node.text) if loss_node is not None else 0.0
    techniques = [
        node.text for node in meta.find("techniques").find_all("technique")
    ] if meta.find("techniques") is not None else []
    forms = {}
    forms_node = meta.find("forms")
    if forms_node is not None:
        for node in forms_node.find_all("column"):
            forms[node.get("name")] = node.get("form")

    rows = []
    rows_node = root.find("rows")
    for row_node in rows_node.find_all("row") if rows_node is not None else []:
        row = {}
        for cell in row_node.child_elements():
            if cell.get("null") == "true":
                row[cell.tag] = None
            else:
                row[cell.tag] = _parse_value(cell.text, cell.get("type"))
        rows.append(row)
    return source, rows, {"loss": loss, "techniques": techniques,
                          "forms": forms}


def oracle_is_name(name):
    """The XML name check, one character at a time, with no memo."""
    if not isinstance(name, str) or not name:
        return False
    head = name[0]
    if not (head.isalpha() or head == "_"):
        return False
    return all(ch.isalnum() or ch in "_-." for ch in name[1:])
