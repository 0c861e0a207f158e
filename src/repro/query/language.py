"""PIQL parsing and rendering.

Grammar::

    query    := SELECT items [FROM name] [WHERE pred (AND pred)*]
                [GROUP BY path (, path)*] [PURPOSE name] [MAXLOSS number]
    items    := item (, item)*
    item     := path | FUNC '(' (path | '*') ')' [AS name]
    pred     := path op literal
    op       := = | != | <> | < | <= | > | >=
    literal  := number | 'string' | true | false

Keywords are case-insensitive; paths start with ``/``.
"""

from __future__ import annotations

import functools
import re

from repro.errors import QueryError
from repro.query.model import (
    AGGREGATE_FUNCS,
    PiqlAggregate,
    PiqlPredicate,
    PiqlQuery,
)
from repro.xmlkit.path import PathExpr, parse_path

_KEYWORDS = {
    "select", "from", "where", "and", "group", "by", "purpose", "maxloss",
    "as", "true", "false",
}


def to_piql(query):
    """Render a :class:`~repro.query.model.PiqlQuery` as PIQL text."""
    return join_clauses(*piql_clauses(query))


def piql_clauses(query):
    """``(head, conjuncts, tail)``: ``query``'s clauses, rendered.

    ``head`` is the SELECT (and FROM) text, ``conjuncts`` one text per
    WHERE conjunct in posed order, and ``tail`` the GROUP BY, PURPOSE
    and MAXLOSS texts.  :func:`join_clauses` joins them, with the
    conjuncts in any order, into what :func:`to_piql` renders.
    """
    items = []
    for item in query.select:
        if isinstance(item, PathExpr):
            items.append(repr(item))
        else:
            target = "*" if item.path is None else repr(item.path)
            items.append(f"{item.func.upper()}({target}) AS {item.alias}")
    head = f"SELECT {', '.join(items)}"
    if query.source_hint:
        head = f"{head} FROM {query.source_hint}"
    conjuncts = [
        f"{p.path!r} {p.op} {_render_literal(p.value)}" for p in query.where
    ]
    tail = []
    if query.group_by:
        tail.append(f"GROUP BY {', '.join(repr(p) for p in query.group_by)}")
    if query.purpose:
        tail.append(f"PURPOSE {query.purpose}")
    if query.max_loss < 1.0:
        tail.append(f"MAXLOSS {query.max_loss:g}")
    return head, conjuncts, tail


def join_clauses(head, conjuncts, tail):
    """The PIQL text of clauses from :func:`piql_clauses`."""
    parts = [head]
    if conjuncts:
        parts.append(f"WHERE {' AND '.join(conjuncts)}")
    parts.extend(tail)
    return " ".join(parts)


# MAXLOSS renders strictly last (see ``piql_clauses``) and
# string literals render quoted, so a bare trailing number can only be
# the MAXLOSS value — stripping the suffix is exact, no reparse needed.
_MAXLOSS_SUFFIX = re.compile(r" MAXLOSS [0-9.eE+-]+$")


def piql_without_maxloss(query):
    """Canonical PIQL text with the MAXLOSS clause elided.

    A source's compiled plan (:meth:`repro.source.server.RemoteSource
    .prepare`) reads no MAXLOSS, so one plan serves every MAXLOSS
    variant of a fragment; this text keys it.  ``to_piql`` omits the
    clause when ``max_loss == 1.0``; otherwise the clause is stripped
    from the single render rather than re-rendering a clone — this key
    is computed per (query, source) on the hot path.
    """
    text = to_piql(query)
    if query.max_loss == 1.0:
        return text
    return _MAXLOSS_SUFFIX.sub("", text)


def parse_piql(text):
    """Parse PIQL text into a :class:`~repro.query.model.PiqlQuery`.

    Parses are memoized on the exact text (mediation traffic repeats —
    the premise of :mod:`repro.cache`'s tier 1) and the memo hands out
    :meth:`~repro.query.model.PiqlQuery.clone`\\ s, so callers may mutate
    the returned query (``PrivateIye.query`` fills in the session's
    default purpose) without poisoning the cached parse.
    """
    if not isinstance(text, str):
        raise QueryError("PIQL input must be a non-empty string")
    return _parse_piql_cached(text).clone()


# functools rather than repro.cache: the query layer sits below the cache
# layer (REP004 ranks), and a parse depends on nothing but its text — no
# epoch can invalidate it.  Failed parses raise and are never cached.
@functools.lru_cache(maxsize=256)
def _parse_piql_cached(text):
    parser = _PiqlParser(_tokenize(text), text)
    query = parser.parse_query()
    parser.expect_end()
    return query


def _render_literal(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


# Compiled once at import: every token except paths (bracket-depth
# tracking) and strings (doubled-quote escapes) is regular.  Alternative
# order matters only for ``number`` vs ``word``/``op``: a sign or dot is
# numeric solely when a digit follows, which the pattern encodes.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>[+\-.]?\d[\d.]*)
    | (?P<op><=|>=|!=|<>|[=<>])
    | (?P<punct>[(),*])
    | (?P<word>[^\W\d][\w-]*)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    if not isinstance(text, str) or not text.strip():
        raise QueryError("PIQL input must be a non-empty string")
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "/":
            j = i
            depth = 0
            while j < n:
                c = text[j]
                if c == "[":
                    depth += 1
                elif c == "]":
                    depth -= 1
                elif depth == 0 and (c.isspace() or c in "(),"):
                    break
                j += 1
            tokens.append(("path", text[i:j]))
            i = j
        elif ch == "'":
            j = i + 1
            buffer = []
            while True:
                if j >= n:
                    raise QueryError(f"unterminated string in {text!r}")
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buffer.append("'")
                        j += 2
                        continue
                    break
                buffer.append(text[j])
                j += 1
            tokens.append(("string", "".join(buffer)))
            i = j + 1
        else:
            match = _TOKEN_RE.match(text, i)
            if match is None:
                raise QueryError(f"unexpected character {ch!r} at offset {i}")
            i = match.end()
            kind = match.lastgroup
            if kind == "ws":
                continue
            value = match.group()
            if kind == "op":
                tokens.append(("op", "!=" if value == "<>" else value))
            elif kind == "word":
                lowered = value.lower()
                if lowered in _KEYWORDS:
                    tokens.append(("keyword", lowered))
                else:
                    tokens.append(("word", value))
            else:
                tokens.append((kind, value))
    return tokens


class _PiqlParser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def parse_query(self):
        self._expect_keyword("select")
        select = [self._parse_item()]
        while self._accept_punct(","):
            select.append(self._parse_item())
        source_hint = None
        if self._accept_keyword("from"):
            source_hint = self._expect_word()
        where = []
        if self._accept_keyword("where"):
            where.append(self._parse_predicate())
            while self._accept_keyword("and"):
                where.append(self._parse_predicate())
        group_by = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._expect_path())
            while self._accept_punct(","):
                group_by.append(self._expect_path())
        purpose = None
        if self._accept_keyword("purpose"):
            purpose = self._expect_word()
        max_loss = 1.0
        if self._accept_keyword("maxloss"):
            kind, value = self._next()
            if kind != "number":
                raise self._error("MAXLOSS needs a number")
            max_loss = float(value)
        return PiqlQuery(select, where, group_by, purpose, max_loss, source_hint)

    def expect_end(self):
        if self.pos != len(self.tokens):
            raise self._error(f"trailing tokens {self.tokens[self.pos:]}")

    def _parse_item(self):
        kind, value = self._peek()
        if kind == "path":
            self.pos += 1
            return parse_path(value)
        if kind == "word" and value.lower() in AGGREGATE_FUNCS:
            self.pos += 1
            self._expect_punct("(")
            inner_kind, inner_value = self._next()
            if inner_kind == "punct" and inner_value == "*":
                target = "*"
            elif inner_kind == "path":
                target = inner_value
            else:
                raise self._error(f"bad aggregate argument {inner_value!r}")
            self._expect_punct(")")
            alias = None
            if self._accept_keyword("as"):
                alias = self._expect_word()
            return PiqlAggregate(value.lower(), target, alias)
        raise self._error(f"bad select item {value!r}")

    def _parse_predicate(self):
        path = self._expect_path()
        kind, op = self._next()
        if kind != "op":
            raise self._error(f"expected a comparison operator, got {op!r}")
        literal = self._parse_literal()
        return PiqlPredicate(path, op, literal)

    def _parse_literal(self):
        kind, value = self._next()
        if kind == "string":
            return value
        if kind == "number":
            number = float(value)
            if number.is_integer() and "." not in value:
                return int(number)
            return number
        if kind == "keyword" and value in ("true", "false"):
            return value == "true"
        raise self._error(f"bad literal {value!r}")

    # -- cursor helpers ------------------------------------------------------

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def _next(self):
        token = self._peek()
        self.pos += 1
        return token

    def _expect_keyword(self, word):
        kind, value = self._next()
        if kind != "keyword" or value != word:
            raise self._error(f"expected {word.upper()}, got {value!r}")

    def _accept_keyword(self, word):
        kind, value = self._peek()
        if kind == "keyword" and value == word:
            self.pos += 1
            return True
        return False

    def _expect_word(self):
        kind, value = self._next()
        if kind not in ("word", "keyword"):
            raise self._error(f"expected a name, got {value!r}")
        return value

    def _expect_path(self):
        kind, value = self._next()
        if kind != "path":
            raise self._error(f"expected a path, got {value!r}")
        return parse_path(value)

    def _expect_punct(self, char):
        kind, value = self._next()
        if kind != "punct" or value != char:
            raise self._error(f"expected {char!r}, got {value!r}")

    def _accept_punct(self, char):
        kind, value = self._peek()
        if kind == "punct" and value == char:
            self.pos += 1
            return True
        return False

    def _error(self, message):
        return QueryError(f"{message} (near token {self.pos} in {self.text!r})")
