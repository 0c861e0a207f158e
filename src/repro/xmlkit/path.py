"""XPath-subset path expressions.

The privacy-conscious query language (PIQL) and the privacy views both use
path expressions of the form::

    /clinic/patient/dob
    //patient//dob
    //patient[@id='p7']/test[type='HbA1c']/result
    //hmo/compliance[2]
    //patient/@id

Supported steps: child (``/``) and descendant-or-self (``//``) axes, name
tests and ``*``, attribute selection (``@name``, only as the final step),
and predicates: positional (``[n]``, 1-based), attribute comparisons
(``[@a='v']``, all six comparison operators, numeric when both sides parse
as numbers), child-value comparisons (``[child='v']``), and existence tests
(``[@a]`` / ``[child]``).
"""

from __future__ import annotations

from repro.errors import PathError
from repro.xmlkit.node import Element, text_of

_OPS = ("!=", "<=", ">=", "=", "<", ">")


class Step:
    """One location step: axis + name test + predicates.

    Steps are never mutated once built, so the rendering is computed on
    the first ``repr`` and kept.
    """

    __slots__ = ("axis", "name", "predicates", "is_attribute", "_text")

    def __init__(self, axis, name, predicates=(), is_attribute=False):
        self.axis = axis  # "child" or "descendant"
        self.name = name  # tag/attribute name or "*"
        self.predicates = list(predicates)
        self.is_attribute = is_attribute
        self._text = None

    def __repr__(self):
        if self._text is None:
            sep = "//" if self.axis == "descendant" else "/"
            at = "@" if self.is_attribute else ""
            preds = "".join(f"[{p}]" for p in self.predicates)
            self._text = f"{sep}{at}{self.name}{preds}"
        return self._text

    def __eq__(self, other):
        return (
            isinstance(other, Step)
            and self.axis == other.axis
            and self.name == other.name
            and self.is_attribute == other.is_attribute
            and self.predicates == other.predicates
        )


class Predicate:
    """A step predicate: positional, comparison, or existence test."""

    __slots__ = ("kind", "operand", "op", "value")

    def __init__(self, kind, operand, op=None, value=None):
        self.kind = kind  # "position" | "attr" | "child" | "attr_exists" | "child_exists"
        self.operand = operand  # position int, or attr/child name
        self.op = op
        self.value = value

    def __repr__(self):
        if self.kind == "position":
            return str(self.operand)
        prefix = "@" if self.kind.startswith("attr") else ""
        if self.kind.endswith("_exists"):
            return f"{prefix}{self.operand}"
        return f"{prefix}{self.operand}{self.op}{self.value!r}"

    def __eq__(self, other):
        return (
            isinstance(other, Predicate)
            and (self.kind, self.operand, self.op, self.value)
            == (other.kind, other.operand, other.op, other.value)
        )


class PathExpr:
    """A parsed path expression: an ordered list of :class:`Step`.

    Paths are immutable and shared (parsed queries, views, fragments),
    so the rendering is computed on the first ``repr`` and kept.
    """

    __slots__ = ("steps", "source_text", "_text")

    def __init__(self, steps, source_text=""):
        if not steps:
            raise PathError("empty path expression")
        for step in steps[:-1]:
            if step.is_attribute:
                raise PathError(
                    f"attribute step {step!r} allowed only in final position"
                )
        self.steps = list(steps)
        self.source_text = source_text
        self._text = None

    @property
    def selects_attribute(self):
        """True when the expression selects attribute values, not elements."""
        return self.steps[-1].is_attribute

    def tag_names(self):
        """The name tests along the path (used by loose matching)."""
        return [s.name for s in self.steps]

    def __repr__(self):
        if self._text is None:
            self._text = "".join(repr(s) for s in self.steps)
        return self._text

    def __eq__(self, other):
        return isinstance(other, PathExpr) and self.steps == other.steps


def parse_path(text):
    """Parse ``text`` into a :class:`PathExpr`."""
    if not isinstance(text, str) or not text.strip():
        raise PathError("path expression must be a non-empty string")
    stripped = text.strip()
    if not stripped.startswith("/"):
        raise PathError(f"path must start with '/' or '//': {text!r}")
    steps = []
    pos = 0
    while pos < len(stripped):
        if stripped.startswith("//", pos):
            axis = "descendant"
            pos += 2
        elif stripped.startswith("/", pos):
            axis = "child"
            pos += 1
        else:
            raise PathError(f"expected '/' at offset {pos} in {text!r}")
        step, pos = _parse_step(stripped, pos, axis, text)
        steps.append(step)
    return PathExpr(steps, source_text=stripped)


def evaluate_path(path, root):
    """Evaluate ``path`` (a :class:`PathExpr` or string) against ``root``.

    Returns a list of :class:`Element` nodes, or a list of attribute-value
    strings when the path's final step is an attribute step.  The root
    element itself is a candidate for the first step (so ``/clinic`` matches
    a document whose root tag is ``clinic``).
    """
    if isinstance(path, str):
        path = parse_path(path)
    if not isinstance(root, Element):
        raise PathError("evaluation root must be an Element")

    current = [root]
    virtual_parent = True  # first step matches the root itself
    for step in path.steps:
        if step.is_attribute:
            # ``node/@a`` reads attributes of the context nodes themselves;
            # ``node//@a`` also reads attributes of every descendant.
            if step.axis == "child":
                holders = list(current)
            else:
                holders = _axis_candidates(current, "descendant", include_self=True)
            values = []
            for node in holders:
                if step.name == "*":
                    values.extend(node.attrs.values())
                elif step.name in node.attrs:
                    values.append(node.attrs[step.name])
            # No value-level dedup: two patients may share an attribute
            # value and aggregates must still count both.
            return values
        matched = []
        if virtual_parent:
            candidates = _first_step_candidates(current, step.axis)
            virtual_parent = False
        else:
            candidates = _axis_candidates(current, step.axis, include_self=False)
        for node in candidates:
            if step.name in ("*", node.tag):
                matched.append(node)
        current = _apply_predicates(matched, step.predicates)
    return _dedup_preserving_order(current)


# -- internals ---------------------------------------------------------------


def _first_step_candidates(roots, axis):
    if axis == "child":
        return list(roots)
    out = []
    for root in roots:
        out.extend(root.iter())
    return out


def _axis_candidates(nodes, axis, include_self):
    out = []
    for node in nodes:
        if axis == "child":
            out.extend(node.child_elements())
        else:
            iterator = node.iter()
            if not include_self:
                next(iterator)  # skip the context node itself
            out.extend(iterator)
    return out


def _apply_predicates(nodes, predicates):
    current = nodes
    for pred in predicates:
        if pred.kind == "position":
            index = pred.operand - 1
            current = [current[index]] if 0 <= index < len(current) else []
        else:
            current = [n for n in current if _check_predicate(n, pred)]
    return current


def _check_predicate(node, pred):
    if pred.kind == "attr_exists":
        return pred.operand in node.attrs
    if pred.kind == "child_exists":
        return node.find(pred.operand) is not None
    if pred.kind == "attr":
        if pred.operand not in node.attrs:
            return False
        return _compare(node.attrs[pred.operand], pred.op, pred.value)
    if pred.kind == "child":
        for child in node.find_all(pred.operand):
            if _compare(text_of(child), pred.op, pred.value):
                return True
        return False
    raise PathError(f"unknown predicate kind {pred.kind!r}")


def _compare(left, op, right):
    left_num, right_num = _try_float(left), _try_float(right)
    if left_num is not None and right_num is not None:
        left, right = left_num, right_num
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
    except TypeError:
        return False
    raise PathError(f"unknown comparison operator {op!r}")


def _try_float(value):
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _parse_step(text, pos, axis, original):
    is_attribute = False
    if pos < len(text) and text[pos] == "@":
        is_attribute = True
        pos += 1
    name, pos = _read_name_or_star(text, pos, original)
    predicates = []
    while pos < len(text) and text[pos] == "[":
        end = _matching_bracket(text, pos, original)
        predicates.append(_parse_predicate(text[pos + 1:end], original))
        pos = end + 1
    if is_attribute and predicates:
        raise PathError(f"attribute steps cannot carry predicates: {original!r}")
    return Step(axis, name, predicates, is_attribute), pos


def _read_name_or_star(text, pos, original):
    if pos < len(text) and text[pos] == "*":
        return "*", pos + 1
    start = pos
    while pos < len(text) and (text[pos].isalnum() or text[pos] in "_-."):
        pos += 1
    name = text[start:pos]
    if not name:
        raise PathError(f"expected a name at offset {start} in {original!r}")
    return name, pos


def _matching_bracket(text, pos, original):
    depth = 0
    in_quote = None
    for i in range(pos, len(text)):
        ch = text[i]
        if in_quote:
            if ch == in_quote:
                in_quote = None
        elif ch in "'\"":
            in_quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth == 0:
                return i
    raise PathError(f"unbalanced '[' in {original!r}")


def _parse_predicate(body, original):
    body = body.strip()
    if not body:
        raise PathError(f"empty predicate in {original!r}")
    if body.isdigit():
        position = int(body)
        if position < 1:
            raise PathError(f"positions are 1-based: [{body}] in {original!r}")
        return Predicate("position", position)
    is_attr = body.startswith("@")
    if is_attr:
        body = body[1:]
    for op in _OPS:
        index = _find_operator(body, op)
        if index >= 0:
            operand = body[:index].strip()
            value = _parse_literal(body[index + len(op):].strip(), original)
            kind = "attr" if is_attr else "child"
            if not operand:
                raise PathError(f"predicate missing operand in {original!r}")
            return Predicate(kind, operand, op, value)
    operand = body.strip()
    if not operand:
        raise PathError(f"empty predicate in {original!r}")
    return Predicate("attr_exists" if is_attr else "child_exists", operand)


def _find_operator(body, op):
    """Index of ``op`` outside quotes, or -1.  Skips '=' inside '!=' etc."""
    in_quote = None
    i = 0
    while i < len(body):
        ch = body[i]
        if in_quote:
            if ch == in_quote:
                in_quote = None
            i += 1
            continue
        if ch in "'\"":
            in_quote = ch
            i += 1
            continue
        if body.startswith(op, i):
            if op == "=" and i > 0 and body[i - 1] in "!<>":
                i += 1
                continue
            if op in ("<", ">") and body[i + 1:i + 2] == "=":
                i += 1
                continue
            return i
        i += 1
    return -1


def _parse_literal(text, original):
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    number = _try_float(text)
    if number is not None:
        return number
    raise PathError(f"bad literal {text!r} in {original!r}")


def _dedup_preserving_order(items):
    seen = set()
    out = []
    for item in items:
        key = id(item) if isinstance(item, Element) else ("v", item)
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out
