"""``python -m repro.analysis.lint`` — the repro-lint command line.

Exit status contract (the CI gate keys off it):

* ``0`` — every file parsed and no unsuppressed finding remains;
* ``1`` — the linter ran to completion and found violations;
* ``2`` — the linter itself could not do its job: usage errors, or one
  or more files failed to read/parse.  A syntax error yields *no*
  findings, so conflating it with status 1 would let broken input
  masquerade as a clean-or-dirty verdict.

Unknown rule codes inside suppression comments are findings (REP000),
not errors: the file parsed fine, the directive is just inert.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.lint.core import (
    WHOLE_PROGRAM_CODES,
    all_rules,
    known_codes,
    lint_paths_detailed,
)
from repro.analysis.lint.reporters import RENDERERS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repro-lint: repo-specific invariant checks "
                    "(REP002-9, REP012-13; "
                    "REP010/REP011 are whole-program — see "
                    "python -m repro.analysis.flow)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=sorted(RENDERERS),
                        default="text", help="output format")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for lint_rule in all_rules():
            # repro-lint: disable=REP008 -- CLI entry point: human output
            # on stdout *is* the command's contract.
            print(f"{lint_rule.code}  {lint_rule.summary}")
        for code, summary in sorted(WHOLE_PROGRAM_CODES.items()):
            # repro-lint: disable=REP008 -- CLI entry point (as above)
            print(f"{code}  {summary} [whole-program: "
                  "python -m repro.analysis.flow]")
        return 0
    select = None
    if args.select:
        select = {code.strip() for code in args.select.split(",")
                  if code.strip()}
        unknown = select - known_codes()
        if unknown:
            print(  # repro-lint: disable=REP008 -- CLI usage error
                f"unknown rule code(s): {sorted(unknown)}",
                file=sys.stderr,  # repro-lint: disable=REP008 -- CLI stderr
            )
            return 2
    findings, files_checked, suppressed, errors = lint_paths_detailed(
        args.paths, select=select
    )
    # repro-lint: disable=REP008 -- CLI entry point: the rendered report
    # on stdout *is* the command's contract.
    print(RENDERERS[args.format](findings, files_checked, suppressed))
    if errors:
        for error in errors:
            print(  # repro-lint: disable=REP008 -- CLI stderr diagnostics
                f"error: {error}",
                file=sys.stderr,  # repro-lint: disable=REP008 -- CLI stderr
            )
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
