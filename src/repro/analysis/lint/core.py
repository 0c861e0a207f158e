"""Lint framework: rule registry, suppression comments, file driver.

Rules are plain functions registered with the :func:`rule` decorator;
each receives a :class:`LintContext` (parsed AST, source lines, dotted
module name) and yields :class:`Finding` objects.  Findings are filtered
through per-line suppression comments before they reach a reporter::

    # repro-lint: disable=REP003 -- why this is intentional

A suppression comment applies to the physical line it sits on; a comment
alone on a line applies to the next line instead.  The justification
after ``--`` is required by convention (the linter records whether one
was given, and the CI gate treats codes without justification the same —
review enforces the habit).  A suppression naming a code the linter does
not know (a typo, or a rule that was renamed) is itself a finding
(``REP000``): a misspelled suppression silently suppresses *nothing*,
which is the worst possible failure mode for a directive whose whole job
is to be deliberate.

Two codes are *whole-program*: REP010 (confidential flow to sink) and
REP011 (unguarded shared mutation) are produced by the interprocedural
analyzer in :mod:`repro.analysis.flow`, not by per-file rules here —
but their suppression comments use this framework's syntax and are
validated against :data:`WHOLE_PROGRAM_CODES` alongside the per-file
registry.

Everything here is stdlib-only (``ast``, ``tokenize``): the linter must
run in the barest CI container, before any dependency is installed.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.errors import ReproError

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z0-9, ]+)"
    r"(?:\s*--\s*(?P<why>.*))?"
)

#: Codes produced by the whole-program analyzer (repro.analysis.flow),
#: not by per-file rules — valid suppression targets nonetheless.
WHOLE_PROGRAM_CODES = {
    "REP010": "unsanitized confidential flow reaches a sink",
    "REP011": "shared mutable state mutated without its guarding lock",
}

#: The meta-code for a suppression directive that names no known rule.
UNKNOWN_SUPPRESSION_CODE = "REP000"


class Finding:
    """One lint finding, pointing at a file position."""

    __slots__ = ("code", "message", "path", "line", "col")

    def __init__(self, code, message, path, line, col=0):
        self.code = code
        self.message = message
        self.path = path
        self.line = line
        self.col = col

    def to_dict(self):
        return {
            "code": self.code,
            "message": self.message,
            "path": str(self.path),
            "line": self.line,
            "col": self.col,
        }

    def __repr__(self):
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class LintContext:
    """Everything a rule may inspect about one file."""

    def __init__(self, path, source, tree, module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.module = module  # dotted module name, e.g. "repro.mediator.engine"

    @property
    def in_repro(self):
        """Whether the file belongs to the ``repro`` package."""
        return self.module is not None and (
            self.module == "repro" or self.module.startswith("repro.")
        )

    def finding(self, code, message, node):
        return Finding(code, message, self.path,
                       getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0))


class Rule:
    """A registered rule: code, one-line summary, and its check function."""

    def __init__(self, code, summary, check):
        self.code = code
        self.summary = summary
        self.check = check

    def run(self, context):
        return list(self.check(context))

    def __repr__(self):
        return f"Rule({self.code}: {self.summary})"


_REGISTRY = {}


def rule(code, summary):
    """Register a rule function under ``code`` (e.g. ``"REP003"``)."""

    def decorator(func):
        if code in _REGISTRY:
            raise ReproError(f"duplicate lint rule {code}")
        _REGISTRY[code] = Rule(code, summary, func)
        return func

    return decorator


def all_rules():
    """Registered rules, sorted by code."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


class Suppressions:
    """Per-line ``repro-lint: disable=`` directives of one file."""

    def __init__(self, lines):
        self._by_line = {}  # line number → set of codes
        self.unjustified = []  # (line, codes) with no -- justification
        self.directives = []  # (directive line, set of codes), in order
        for number, text in enumerate(lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            codes = {
                code.strip() for code in match.group("codes").split(",")
                if code.strip()
            }
            target = number
            if text.lstrip().startswith("#"):
                # comment-only line: the directive covers the next
                # statement line (skipping the rest of the comment block)
                target = number + 1
                while target <= len(lines):
                    following = lines[target - 1].strip()
                    if following and not following.startswith("#"):
                        break
                    target += 1
            self._by_line.setdefault(target, set()).update(codes)
            self.directives.append((number, codes))
            if not (match.group("why") or "").strip():
                self.unjustified.append((number, sorted(codes)))

    def covers(self, finding):
        return finding.code in self._by_line.get(finding.line, ())

    def unknown_code_findings(self, path, known_codes):
        """One REP000 finding per suppressed code the linter doesn't know.

        A ``disable=REP0003`` typo never matches a real finding, so the
        directive silently does nothing while reading as if it worked;
        surfacing the unknown code keeps suppressions honest.
        """
        for line, codes in self.directives:
            for code in sorted(codes - known_codes):
                yield Finding(
                    UNKNOWN_SUPPRESSION_CODE,
                    f"suppression names unknown rule code {code!r} — it "
                    "suppresses nothing (known codes: per-file REP002-9 "
                    "and REP012-13, whole-program REP010-11)",
                    path, line,
                )


def module_name_for(path):
    """Dotted module name for ``path``, or None outside a package tree.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/mediator/engine.py`` → ``repro.mediator.engine``.
    """
    path = Path(path).resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else None


def known_codes():
    """Every valid suppression target: per-file rules + whole-program codes."""
    codes = set(_REGISTRY) | set(WHOLE_PROGRAM_CODES)
    codes.add(UNKNOWN_SUPPRESSION_CODE)
    return codes


def lint_source(source, path="<string>", module=None, select=None):
    """Lint one source text; returns ``(findings, suppressed_count)``."""
    tree = ast.parse(source, filename=str(path))
    context = LintContext(path, source, tree, module)
    suppressions = Suppressions(context.lines)
    findings, suppressed = [], 0
    for lint_rule in all_rules():
        if select is not None and lint_rule.code not in select:
            continue
        for finding in lint_rule.run(context):
            if suppressions.covers(finding):
                suppressed += 1
            else:
                findings.append(finding)
    if select is None or UNKNOWN_SUPPRESSION_CODE in select:
        for finding in suppressions.unknown_code_findings(path,
                                                          known_codes()):
            if suppressions.covers(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (str(f.path), f.line, f.col, f.code))
    return findings, suppressed


def iter_python_files(paths):
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    seen = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            seen.extend(sorted(entry.rglob("*.py")))
        elif entry.suffix == ".py":
            seen.append(entry)
    return seen


class LintRunError:
    """One file the linter could not check (parse/read failure).

    A file that fails to parse yielded *no* findings — reporting that as
    exit status 1 ("findings") would let a syntax error masquerade as a
    policy verdict.  The CLI maps these to exit status 2 instead.
    """

    __slots__ = ("path", "message")

    def __init__(self, path, message):
        self.path = path
        self.message = message

    def to_dict(self):
        return {"path": str(self.path), "message": self.message}

    def __repr__(self):
        return f"{self.path}: error: {self.message}"


def lint_paths(paths, select=None):
    """Lint files/trees; returns ``(findings, files_checked, suppressed)``.

    Parse failures raise (the historical contract); callers that need to
    distinguish findings from broken input use :func:`lint_paths_detailed`.
    """
    findings, checked, suppressed, errors = lint_paths_detailed(
        paths, select=select
    )
    if errors:
        raise SyntaxError(str(errors[0]))
    return findings, checked, suppressed


def lint_paths_detailed(paths, select=None):
    """Lint files/trees, capturing per-file failures instead of raising.

    Returns ``(findings, files_checked, suppressed, errors)`` where
    ``errors`` is a list of :class:`LintRunError` — one per file that
    could not be read or parsed.  Files that error are not counted in
    ``files_checked``.
    """
    findings, suppressed, checked, errors = [], 0, 0, []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            file_findings, file_suppressed = lint_source(
                source, path=path, module=module_name_for(path),
                select=select,
            )
        except (SyntaxError, ValueError, OSError) as error:
            errors.append(LintRunError(path, str(error)))
            continue
        findings.extend(file_findings)
        suppressed += file_suppressed
        checked += 1
    return findings, checked, suppressed, errors
