"""``python -m repro.telemetry.report`` — per-requester disclosure summaries.

Replays a JSON-Lines event stream (written by the
:class:`~repro.telemetry.events.JsonlSink`, or dumped via
:func:`repro.telemetry.http.dump_events`) and, optionally, a disclosure
audit journal (``PrivateIye.audit_journal().to_jsonl()``), and renders
one summary row per requester:

* poses seen, answered vs refused (with the refusal-kind breakdown);
* cumulative disclosure ``1 − Π(1 − loss_i)`` over the requester's
  answered queries (from the journal when given, else from pose events);
* snooper-watch alerts attributed to the requester;
* journal chain verification status when a journal is supplied.

Usage::

    python -m repro.telemetry.report events.jsonl
    python -m repro.telemetry.report events.jsonl --journal journal.jsonl
    python -m repro.telemetry.report events.jsonl --format json
    python -m repro.telemetry.report events.jsonl --requester epi

This module is the sanctioned home for human-facing output (REP008:
every other ``src/repro`` module must route diagnostics through the
event log, not stdout).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError

#: Event names the summary understands (emitted by the mediation engine
#: and the observatory; see docs/observability.md for the full schema).
POSE_ANSWERED = "pose.answered"
POSE_REFUSED = "pose.refused"
ALERT = "snooperwatch.alert"


def load_jsonl(path):
    """Parse one JSON object per non-blank line; returns a list of dicts."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{number}: not valid JSON ({error})"
                ) from error
            if not isinstance(record, dict):
                raise ReproError(f"{path}:{number}: expected a JSON object")
            records.append(record)
    return records


def summarize(events, journal_records=None):
    """Fold events (+ optional journal records) into per-requester rows.

    Returns ``{"requesters": {name: row}, "totals": {...}}`` where each
    row carries poses / answered / refused / refusal_kinds / alerts /
    cumulative_disclosure / last_ts.
    """
    rows = {}

    def row(requester):
        return rows.setdefault(requester, {
            "poses": 0, "answered": 0, "refused": 0,
            "refusal_kinds": {}, "alerts": 0,
            "cumulative_disclosure": 0.0, "last_ts": None,
        })

    for event in events:
        name = event.get("name")
        attributes = event.get("attributes", {})
        requester = attributes.get("requester")
        if requester is None:
            continue
        entry = row(requester)
        ts = event.get("ts")
        if ts is not None and (entry["last_ts"] is None
                               or ts > entry["last_ts"]):
            entry["last_ts"] = ts
        if name == POSE_ANSWERED:
            entry["poses"] += 1
            entry["answered"] += 1
            cumulative = attributes.get("cumulative_loss")
            if cumulative is not None:
                entry["cumulative_disclosure"] = max(
                    entry["cumulative_disclosure"], float(cumulative)
                )
        elif name == POSE_REFUSED:
            entry["poses"] += 1
            entry["refused"] += 1
            kind = attributes.get("kind", "ReproError")
            entry["refusal_kinds"][kind] = (
                entry["refusal_kinds"].get(kind, 0) + 1
            )
        elif name == ALERT:
            entry["alerts"] += 1

    # the journal is authoritative for disclosure when supplied
    for record in journal_records or ():
        chained = record.get("chained") or {}
        requester = chained.get("requester")
        if requester is None:
            continue
        entry = row(requester)
        cumulative = chained.get("cumulative_loss")
        if cumulative is not None:
            entry["cumulative_disclosure"] = max(
                entry["cumulative_disclosure"], float(cumulative)
            )

    totals = {
        "requesters": len(rows),
        "poses": sum(r["poses"] for r in rows.values()),
        "answered": sum(r["answered"] for r in rows.values()),
        "refused": sum(r["refused"] for r in rows.values()),
        "alerts": sum(r["alerts"] for r in rows.values()),
    }
    return {"requesters": rows, "totals": totals}


def render_text(summary, journal_status=None):
    """The summary as an aligned human-readable table."""
    rows = summary["requesters"]
    lines = ["DISCLOSURE OBSERVATORY — per-requester summary", ""]
    header = (f"{'requester':<20} {'poses':>6} {'answered':>9} "
              f"{'refused':>8} {'alerts':>7} {'cum. disclosure':>16}")
    lines.append(header)
    lines.append("-" * len(header))
    for requester in sorted(rows):
        entry = rows[requester]
        lines.append(
            f"{requester:<20} {entry['poses']:>6} {entry['answered']:>9} "
            f"{entry['refused']:>8} {entry['alerts']:>7} "
            f"{entry['cumulative_disclosure']:>16.4f}"
        )
        for kind in sorted(entry["refusal_kinds"]):
            lines.append(
                f"{'':<20}   refused[{kind}] ×{entry['refusal_kinds'][kind]}"
            )
    totals = summary["totals"]
    lines.append("")
    lines.append(
        f"totals: {totals['requesters']} requesters, "
        f"{totals['poses']} poses ({totals['answered']} answered / "
        f"{totals['refused']} refused), {totals['alerts']} alerts"
    )
    if journal_status is not None:
        lines.append(f"journal chain: {journal_status}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("events", help="JSONL event stream to replay")
    parser.add_argument("--journal", help="disclosure audit journal (JSONL)")
    parser.add_argument("--requester", help="restrict to one requester")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)

    try:
        events = load_jsonl(args.events)
        journal_records = load_jsonl(args.journal) if args.journal else None
    except (OSError, ReproError) as error:
        print(f"report: {error}", file=sys.stderr)
        return 2

    journal_status = None
    if journal_records is not None:
        from repro.observatory.journal import verify_records
        ok, bad_seq = verify_records(journal_records)
        journal_status = (
            "VERIFIED" if ok else f"TAMPERED (first bad record seq={bad_seq})"
        )

    summary = summarize(events, journal_records)
    if args.requester is not None:
        row = summary["requesters"].get(args.requester)
        summary["requesters"] = (
            {args.requester: row} if row is not None else {}
        )

    if args.format == "json":
        payload = dict(summary)
        if journal_status is not None:
            payload["journal_chain"] = journal_status
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_text(summary, journal_status))
    return 0 if journal_status in (None, "VERIFIED") else 1


if __name__ == "__main__":
    sys.exit(main())
