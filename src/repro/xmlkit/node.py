"""Element tree for the XML data model.

An :class:`Element` has a tag, an attribute dictionary and an ordered list
of children (elements or text strings).  Nodes hold no parent back-pointer,
so a tree is acyclic and reference counting frees it the moment its last
user lets go.  The tree is deliberately small: it supports exactly what the
mediation engine and the per-source result transformers need —
construction, navigation, deep copies, and structural equality.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import XmlError


class Element:
    """A single XML element.

    Children are kept in document order and may be :class:`Element` nodes or
    plain strings (text nodes).  Attribute values are always strings.
    """

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag, attrs=None, children=None):
        if not tag or not _is_name(tag):
            # repro-lint: disable=REP010 -- element tags are column
            # names / mapping labels, not text content (REP010 taints
            # whole documents; text() never reaches this message)
            raise XmlError(f"invalid element tag: {tag!r}")
        self.tag = tag
        self.attrs = dict(attrs) if attrs else {}
        self.children = []
        for child in children or []:
            self.append(child)

    # -- construction -----------------------------------------------------

    def append(self, child):
        """Append ``child`` (an :class:`Element` or a text string)."""
        if not isinstance(child, (Element, str)):
            raise XmlError(f"child must be Element or str, got {type(child).__name__}")
        self.children.append(child)
        return child

    def extend(self, children):
        """Append every item of ``children``."""
        for child in children:
            self.append(child)

    def set(self, name, value):
        """Set attribute ``name`` to ``value`` (coerced to str)."""
        if not _is_name(name):
            raise XmlError(f"invalid attribute name: {name!r}")
        self.attrs[name] = str(value)

    def remove(self, child):
        """Remove a direct child element."""
        self.children.remove(child)

    # -- navigation -------------------------------------------------------

    def child_elements(self):
        """Return the direct element children, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def find(self, tag):
        """Return the first direct child element with ``tag``, or ``None``."""
        for child in self.children:
            if isinstance(child, Element) and child.tag == tag:
                return child
        return None

    def find_all(self, tag):
        """Return all direct child elements with ``tag``."""
        return [c for c in self.child_elements() if c.tag == tag]

    def iter(self) -> Iterator["Element"]:
        """Yield this element and every descendant element, pre-order."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def get(self, name, default=None):
        """Return attribute ``name`` or ``default``."""
        return self.attrs.get(name, default)

    @property
    def text(self):
        """Concatenated direct text content of this element."""
        return "".join(c for c in self.children if isinstance(c, str))

    # -- copying / equality ------------------------------------------------

    def copy(self):
        """Deep-copy this subtree."""
        clone = Element(self.tag, self.attrs)
        for child in self.children:
            clone.append(child.copy() if isinstance(child, Element) else child)
        return clone

    def structurally_equal(self, other):
        """True when both subtrees have identical tags, attrs, and text."""
        if not isinstance(other, Element):
            return False
        if self.tag != other.tag or self.attrs != other.attrs:
            return False
        mine = _normalized_children(self)
        theirs = _normalized_children(other)
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if isinstance(a, Element) != isinstance(b, Element):
                return False
            if isinstance(a, Element):
                if not a.structurally_equal(b):
                    return False
            elif a != b:
                return False
        return True

    def __repr__(self):
        n_children = len(self.children)
        return f"Element({self.tag!r}, attrs={self.attrs!r}, children={n_children})"


def element(tag, _text=None, _attrs=None, **attr_kwargs):
    """Convenience constructor: ``element('dob', '1970-01-01', unit='year')``."""
    attrs = dict(_attrs or {})
    attrs.update({k: str(v) for k, v in attr_kwargs.items()})
    node = Element(tag, attrs)
    if _text is not None:
        node.append(str(_text))
    return node


def text_of(node):
    """Concatenated text of ``node`` and all its descendants."""
    parts = []
    _collect_text(node, parts)
    return "".join(parts)


def _collect_text(node, parts):
    for child in node.children:
        if isinstance(child, str):
            parts.append(child)
        else:
            _collect_text(child, parts)


def _normalized_children(node):
    """Children with whitespace-only text dropped and adjacent text merged."""
    merged = []
    for child in node.children:
        if isinstance(child, str):
            if not child.strip():
                continue
            if merged and isinstance(merged[-1], str):
                merged[-1] += child
                continue
        merged.append(child)
    return merged


def _is_name(name):
    if not isinstance(name, str) or not name:
        return False
    head = name[0]
    if not (head.isalpha() or head == "_"):
        return False
    return all(ch.isalnum() or ch in "_-." for ch in name[1:])
