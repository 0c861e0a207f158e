"""Operations CLI for persistence stores — ``python -m repro.persistence``.

Two subcommands, both offline (they open an existing WAL store and
never need a running mediator):

* ``verify PATH`` — load snapshot + log and re-verify every sha256
  link of the audit-journal chain, snapshot head and log tail alike.
  Exit 0 when the chain holds, 1 when it does not or a pose record is
  in no layout this build reads — the runbook's post-recovery check.
* ``stats PATH`` — backend counters (log length, snapshot presence,
  last seq) as JSON.

``PATH`` is a WAL directory.  A path that holds no store (a typo, a
regular file) exits 1 with a JSON error on stderr and creates nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.errors import PersistenceError
from repro.observatory.journal import verify_records
from repro.persistence import PersistenceSink
from repro.persistence.recovery import chain_of
from repro.persistence.wal import LOG_NAME, SNAPSHOT_NAME, WalBackend


def open_sink(path):
    """Open the existing WAL store at ``path``; never creates one."""
    path = str(path)
    if not any(os.path.isfile(os.path.join(path, name))
               for name in (LOG_NAME, SNAPSHOT_NAME)):
        raise PersistenceError(f"no persistence store at {path!r}")
    return PersistenceSink(WalBackend(path))


def verify_store(path):
    """Verify the journal chain in the store; returns a report dict."""
    sink = open_sink(path)
    try:
        snapshot, records = sink.load()
        chain = chain_of(snapshot, records)
        ok, bad_seq = verify_records(chain)
        return {
            "path": str(path),
            "backend": sink.backend.name,
            "snapshot_through_seq": (snapshot["through_seq"]
                                     if snapshot else 0),
            "log_records": len(records),
            "journal_records": len(chain),
            "chain_valid": ok,
            "first_bad_seq": bad_seq,
        }
    finally:
        sink.close()


def stats_store(path):
    """The store's backend stats, plus its last sequence number."""
    sink = open_sink(path)
    try:
        return sink.stats()
    finally:
        sink.close()


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.persistence",
        description="Inspect and verify persistence stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser(
        "verify", help="re-verify the journal hash chain in a store"
    )
    verify.add_argument("path")
    stats = commands.add_parser("stats", help="backend counters as JSON")
    stats.add_argument("path")
    arguments = parser.parse_args(argv)

    try:
        if arguments.command == "verify":
            report = verify_store(arguments.path)
            # repro-lint: disable=REP008 -- CLI entry point: human output
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0 if report["chain_valid"] else 1
        # repro-lint: disable=REP008 -- CLI entry point: human output
        print(json.dumps(stats_store(arguments.path), indent=2,
                         sort_keys=True))
        return 0
    except PersistenceError as error:
        print(  # repro-lint: disable=REP008 -- CLI error rendering
            json.dumps({"error": str(error)}),
            file=sys.stderr,  # repro-lint: disable=REP008 -- CLI stderr
        )
        return 1
