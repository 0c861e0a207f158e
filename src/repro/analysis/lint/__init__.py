"""repro-lint: repo-specific invariant checking over the Python AST.

Machine-checks the conventions earlier PRs established by hand:

* **REP002** refusals caught and retried (refusal finality)
* **REP003** raising builtin exceptions instead of the ReproError hierarchy
* **REP004** layering violations (a lower layer importing a higher one)
* **REP005** bare ``except`` / silently swallowed exceptions
* **REP006** mutable default arguments
* **REP007** ad-hoc dict-based caches outside ``repro.cache``

Run ``python -m repro.analysis.lint src/`` (``--format=json`` in CI).
Suppress a finding in place with a justification::

    raise TypeError(...)  # repro-lint: disable=REP003 -- test-asserted API

See ``docs/static_analysis.md`` for the full rule catalog.
"""

from repro.analysis.lint.core import (
    Finding,
    LintContext,
    Rule,
    all_rules,
    lint_paths,
    lint_source,
    rule,
)
from repro.analysis.lint import rules as _rules  # registers the rules

__all__ = [
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "rule",
]

del _rules
