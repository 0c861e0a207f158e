"""``python -m repro.telemetry.report``: summaries, chain verdicts, exits."""

import json

import pytest

from repro.errors import ReproError
from repro.observatory.journal import AuditJournal
from repro.telemetry.report import load_jsonl, main, summarize
from tests.observatory.test_journal import pose_record

EVENTS = [
    {"seq": 1, "name": "pose.answered", "ts": 10.0,
     "attributes": {"requester": "epi", "rows": 2,
                    "cumulative_loss": 0.3}},
    {"seq": 2, "name": "pose.answered", "ts": 11.0,
     "attributes": {"requester": "epi", "rows": 2,
                    "cumulative_loss": 0.37}},
    {"seq": 3, "name": "pose.refused", "ts": 12.0,
     "attributes": {"requester": "advertiser",
                    "kind": "PrivacyViolation"}},
    {"seq": 4, "name": "snooperwatch.alert", "ts": 13.0,
     "attributes": {"requester": "epi", "measure": "mean",
                    "source": "lab", "width": 1.2}},
    {"seq": 5, "name": "warehouse.epoch_invalidation", "ts": 14.0,
     "attributes": {"key": "k"}},  # no requester: ignored by the summary
]


def write_events(tmp_path, events=EVENTS):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events))
    return str(path)


def write_journal(tmp_path, tamper=False):
    journal = AuditJournal(clock=lambda: 100.0)
    journal.append(pose_record("epi", "fp-1", "answered",
                               aggregated_loss=0.3))
    journal.append(pose_record("epi", "fp-2", "answered",
                               aggregated_loss=0.1))
    path = tmp_path / "journal.jsonl"
    text = journal.to_jsonl()
    if tamper:
        text = text.replace('"aggregated_loss": 0.3', '"aggregated_loss": 0.0')
    path.write_text(text)
    return str(path)


class TestSummarize:
    def test_per_requester_rows(self):
        summary = summarize(EVENTS)
        epi = summary["requesters"]["epi"]
        assert epi["poses"] == 2
        assert epi["answered"] == 2
        assert epi["alerts"] == 1
        assert epi["cumulative_disclosure"] == pytest.approx(0.37)
        assert epi["last_ts"] == 13.0
        advertiser = summary["requesters"]["advertiser"]
        assert advertiser["refused"] == 1
        assert advertiser["refusal_kinds"] == {"PrivacyViolation": 1}
        assert summary["totals"] == {
            "requesters": 2, "poses": 3, "answered": 2,
            "refused": 1, "alerts": 1,
        }

    def test_journal_is_authoritative_for_disclosure(self):
        records = [
            {"chained": {"requester": "epi", "cumulative_loss": 0.5}},
            {"chained": {"requester": "fresh", "cumulative_loss": 0.1}},
        ]
        summary = summarize(EVENTS, journal_records=records)
        assert summary["requesters"]["epi"][
            "cumulative_disclosure"] == pytest.approx(0.5)
        assert "fresh" in summary["requesters"]


class TestCli:
    def test_text_report(self, tmp_path, capsys):
        assert main([write_events(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "DISCLOSURE OBSERVATORY" in out
        assert "epi" in out and "advertiser" in out
        assert "refused[PrivacyViolation]" in out
        assert "journal chain" not in out  # no journal supplied

    def test_json_report_with_verified_journal(self, tmp_path, capsys):
        code = main([write_events(tmp_path), "--format", "json",
                     "--journal", write_journal(tmp_path)])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["journal_chain"] == "VERIFIED"
        assert document["totals"]["poses"] == 3

    def test_tampered_journal_fails_the_run(self, tmp_path, capsys):
        code = main([write_events(tmp_path),
                     "--journal", write_journal(tmp_path, tamper=True)])
        assert code == 1
        assert "TAMPERED (first bad record seq=1)" in capsys.readouterr().out

    def test_requester_filter(self, tmp_path, capsys):
        assert main([write_events(tmp_path), "--requester", "epi",
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert list(document["requesters"]) == ["epi"]
        assert main([write_events(tmp_path), "--requester", "nobody",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["requesters"] == {}

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.jsonl")]) == 2
        assert "report:" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main([str(bad)]) == 2

    def test_module_is_executable(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1]),
             env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.telemetry.report",
             write_events(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert completed.returncode == 0
        assert "DISCLOSURE OBSERVATORY" in completed.stdout


class TestLoadJsonl:
    def test_skips_blank_lines_and_validates_objects(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert load_jsonl(path) == [{"a": 1}, {"b": 2}]
        path.write_text("[1, 2]\n")
        with pytest.raises(ReproError, match="expected a JSON object"):
            load_jsonl(path)
