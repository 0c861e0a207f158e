"""XML Transformer + Privacy Metadata Tagger (paper §4).

Turns a result table into the XML fragment the mediation engine consumes,
annotated with privacy metadata: the producing source, the disclosure form
of each column, the computed privacy loss, and the preservation techniques
applied.  The mediator's privacy control reads these tags when computing
the aggregated loss of the integrated result.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.policy.model import DisclosureForm
from repro.xmlkit.node import Element, element


def tag_results(result_table, source_name, column_forms, privacy_loss,
                techniques=(), generalizers=None):
    """Build the tagged XML result document.

    ``generalizers`` maps column → callable(value) → range label, used for
    RANGE-form columns (e.g. an interval hierarchy level).  Each column's
    tag, form and generalizer are looked up once per result; the cells
    are built straight from the row tuples.
    """
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
    columns = []
    for column in result_table.schema.column_names():
        form = column_forms.get(column, DisclosureForm.EXACT)
        forms_node.append(
            element("column", None, name=column, form=form.name.lower())
        )
        generalize = (generalizers.get(column)
                      if form is DisclosureForm.RANGE else None)
        columns.append((_safe_tag(column), generalize))

    rows_node = root.append(Element("rows"))
    for row in result_table.rows:
        row_node = rows_node.append(Element("row"))
        cells = row_node.children
        for (tag, generalize), value in zip(columns, row):
            if generalize is not None:
                value = generalize(value)
            cell = Element(tag)
            if value is None:
                cell.attrs["null"] = "true"
            else:
                cell.children.append(str(value))
                cell.attrs["type"] = _type_name(value)
            cells.append(cell)
    return root


def untag_results(root):
    """Parse a tagged result document back into plain structures.

    Returns ``(source, rows, metadata)`` where rows are dicts and metadata
    has ``loss`` (float), ``techniques`` (list), ``forms`` (column → form
    name).  The mediator uses this to integrate and re-verify.
    """
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
    for row_node in rows_node.children if rows_node is not None else ():
        if not isinstance(row_node, Element) or row_node.tag != "row":
            continue
        row = {}
        for cell in row_node.children:
            if not isinstance(cell, Element):
                continue
            attrs = cell.attrs
            if attrs.get("null") == "true":
                row[cell.tag] = None
            else:
                row[cell.tag] = _parse_value(cell.text, attrs.get("type"))
        rows.append(row)
    return source, rows, {"loss": loss, "techniques": techniques, "forms": forms}


def _safe_tag(column):
    tag = "".join(ch if ch.isalnum() or ch in "_-." else "_" for ch in column)
    if not tag or not (tag[0].isalpha() or tag[0] == "_"):
        tag = f"c_{tag}"
    return tag


def _type_name(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "str"


def _parse_value(text, type_name=None):
    if type_name == "str":
        return text
    if type_name == "bool":
        return text == "True"
    if type_name == "int":
        return int(text)
    if type_name == "float":
        return float(text)
    # Untyped cells (documents from other producers): best-effort inference.
    try:
        number = float(text)
    except ValueError:
        if text == "True":
            return True
        if text == "False":
            return False
        return text
    if number.is_integer() and "." not in text and "e" not in text.lower():
        return int(number)
    return number
