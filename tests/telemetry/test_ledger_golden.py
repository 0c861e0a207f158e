"""Golden ledger differential: every pose's explain ledger, key for key.

One deployment (the two-source clinic/lab set-up of ``test_explain.py``,
with the observatory on so ledgers carry their journal record) is
scripted through every way a pose can settle: answered, repeated (all
cache tiers hit), refused by the sequence guard, refused statically,
refused by the sources at runtime (wholly and in part), refused for
MAXLOSS, answered around a ``PathError`` source, with a source
unreachable under ``require_all`` and under ``quorum``, and a
``pose_many`` batch.  ``golden/ledgers.json`` holds the
``to_dict()`` of each ledger as the engine wrote it by hand
(commit fec2c71), before the ledger became a projection of the pose
record and its span tree.  The ledgers of the current tree must match
it exactly once the fields below are normalized.

Regenerate the golden file only for an intended ledger change::

    PYTHONPATH=src python -m tests.telemetry.test_ledger_golden \\
        > tests/telemetry/golden/ledgers.json
"""

import json
import sys
from pathlib import Path

from repro import PrivateIye
from repro.errors import PathError, ReproError, TransientSourceError
from repro.mediator.dispatch import DispatchPolicy
from repro.relational import Table
from tests.telemetry.test_explain import AGGREGATE, POLICIES

GOLDEN = Path(__file__).parent / "golden" / "ledgers.json"

#: Fields that differ from run to run and are normalized to ``None``:
#: clock readings at any depth (``duration_ms``, ``wall_ms``,
#: ``analysis_ms``, the journal's ``ts`` and the ``hash`` that covers
#: it), the event log's ``ts`` and ``seq`` inside ``events``, and the
#: ``trace_id`` events carry, which embeds the process id.
CLOCK_FIELDS = ("duration_ms", "wall_ms", "analysis_ms", "ts", "hash")
EVENT_FIELDS = ("ts", "seq")
RUN_FIELDS = ("trace_id",)

PROBE = ("SELECT AVG(//patient/hba1c) AS mean "
         "WHERE //patient/city = '{city}' "
         "PURPOSE outbreak-surveillance MAXLOSS 0.6")
MARKETING = "SELECT AVG(//patient/hba1c) PURPOSE marketing"
CITY = "SELECT //patient/city PURPOSE research"


def build_system():
    system = PrivateIye(telemetry=True, observatory=True)
    system.load_policies(
        POLICIES,
        view_source={"clinic_private": "clinic", "lab_private": "lab"},
    )
    clinic_rows = [
        {"ssn": f"1-{i:03d}", "hba1c": 60.0 + i % 25,
         "city": ["pittsburgh", "butler"][i % 2]}
        for i in range(30)
    ]
    lab_rows = [
        {"ssn": f"2-{i:03d}", "hba1c": 65.0 + i % 20,
         "city": ["pittsburgh", "erie"][i % 2]}
        for i in range(20)
    ]
    system.add_relational_source(
        "clinic", Table.from_dicts("patients", clinic_rows)
    )
    system.add_relational_source(
        "lab", Table.from_dicts("patients", lab_rows)
    )
    # one distinct aggregate signature per requester
    system.engine.max_distinct_probes = 1
    return system


def failing(exception):
    def answer(piql, **kwargs):
        raise exception
    return answer


def scenario():
    """``[(step, [ledger dict, ...]), ...]`` for the scripted poses."""
    system = build_system()
    lab = system.source("lab")
    steps = []

    def step(name, text, requester, **kwargs):
        before = len(system.telemetry.explain)
        try:
            if isinstance(text, list):
                system.pose_many(text, requester=requester)
            else:
                system.query(text, requester=requester)
        except ReproError:
            pass
        reports = system.telemetry.explain.reports()[before:]
        steps.append((name, [report.to_dict() for report in reports]))

    step("answered", AGGREGATE, "epi")
    step("repeat", AGGREGATE, "epi")
    step("guard-first-probe", PROBE.format(city="pittsburgh"), "snooper")
    step("guard-refusal", PROBE.format(city="butler"), "snooper")
    step("static-refuse", MARKETING, "advertiser")
    step("runtime-refusal", PROBE.format(city="nowhere"), "nowhere")
    step("runtime-partial", PROBE.format(city="erie"), "erie")
    step("maxloss-refusal", AGGREGATE.replace("MAXLOSS 0.6", "MAXLOSS 0.005"),
         "strict")
    lab.answer = failing(PathError("lab cannot resolve //patient/hba1c"))
    step("path-error", AGGREGATE, "path")
    lab.answer = failing(TransientSourceError("lab link down"))
    system.engine.dispatcher.policy = DispatchPolicy(retries=0)
    step("unreachable-require-all", AGGREGATE, "require-all")
    system.engine.dispatcher.policy = DispatchPolicy(
        retries=0, partial=("quorum", 1)
    )
    step("unreachable-quorum", AGGREGATE, "quorum")
    del lab.answer
    system.engine.dispatcher.policy = DispatchPolicy()
    step("batch", [AGGREGATE, CITY, MARKETING, AGGREGATE, CITY], "batch")
    return steps


def normalize(value, within_events=False):
    if isinstance(value, dict):
        blank = CLOCK_FIELDS + RUN_FIELDS
        if within_events:
            blank += EVENT_FIELDS
        return {
            key: (None if key in blank
                  else normalize(item, within_events or key == "events"))
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [normalize(item, within_events) for item in value]
    return value


def recorded():
    """The scenario's ledgers, normalized, in JSON's value model."""
    return json.loads(json.dumps(
        [[name, normalize(ledgers)] for name, ledgers in scenario()]
    ))


def test_every_scripted_ledger_matches_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = recorded()
    assert [name for name, _ in current] == [name for name, _ in golden]
    for (name, ledgers), (_, expected) in zip(current, golden):
        assert len(ledgers) == len(expected), name
        for ledger, want in zip(ledgers, expected):
            assert sorted(ledger) == sorted(want), name
            for section in want:
                assert ledger[section] == want[section], (name, section)


def test_golden_file_covers_every_settle_path():
    golden = dict((name, ledgers) for name, ledgers in
                  json.loads(GOLDEN.read_text(encoding="utf-8")))
    assert golden["repeat"][0]["cache"]["answer"] == "hit"
    assert golden["guard-refusal"][0]["sequence_guard"]["verdict"] == \
        "refused"
    assert golden["static-refuse"][0]["static"]["verdict"] == "REFUSE"
    assert golden["runtime-refusal"][0]["refusal"]["kind"] == \
        "PrivacyViolation"
    assert "MAXLOSS" in golden["maxloss-refusal"][0]["refusal"]["reason"]
    assert golden["path-error"][0]["sources"]["lab"]["kind"] == "PathError"
    for name, status in (("unreachable-require-all", "refused"),
                         ("unreachable-quorum", "answered")):
        ledger = golden[name][0]
        assert ledger["status"] == status
        assert ledger["sources"]["lab"]["outcome"] == "unavailable"
    assert len(golden["batch"]) == 5


if __name__ == "__main__":
    json.dump(recorded(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
