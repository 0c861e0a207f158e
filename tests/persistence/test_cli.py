"""The ops CLI: ``python -m repro.persistence verify|stats``."""

import json

import pytest

from repro import PrivateIye
from repro.persistence.cli import main
from repro.persistence.wal import LOG_NAME
from repro.relational import Table

POLICIES = """
VIEW s1_private { PRIVATE //patient/hba1c FORM aggregate; }

POLICY s1 DEFAULT deny {
    ALLOW //patient/hba1c FOR research FORM aggregate MAXLOSS 0.6;
}
"""

AGGREGATE = "SELECT AVG(//patient/hba1c) AS mean PURPOSE research"


def populate(path, poses=3):
    system = PrivateIye(telemetry=True, observatory=True, persistence=path)
    system.load_policies(POLICIES, view_source={"s1_private": "s1"})
    rows = [{"hba1c": 60.0 + i} for i in range(20)]
    system.add_relational_source("s1", Table.from_dicts("patients", rows))
    for _ in range(poses):
        system.query(AGGREGATE, requester="epi")
    system.persistence.close()
    return system


class TestVerify:
    def test_verify_reports_a_valid_chain(self, tmp_path, capsys):
        path = str(tmp_path / "wal-store")
        populate(path)
        assert main(["verify", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chain_valid"] is True
        assert report["first_bad_seq"] is None
        assert report["journal_records"] == 3
        assert report["backend"] == "wal"

    def test_verify_fails_on_a_tampered_chain(self, tmp_path, capsys):
        path = str(tmp_path / "wal-store")
        populate(path)
        log = tmp_path / "wal-store" / LOG_NAME
        text = log.read_text().replace('"status":"answered"',
                                       '"status":"denied"', 1)
        log.write_text(text)
        assert main(["verify", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["chain_valid"] is False
        assert report["first_bad_seq"] is not None

    def test_verify_missing_store_is_an_error_not_a_traceback(
            self, tmp_path, capsys):
        missing = tmp_path / "typo-store"
        code = main(["verify", str(missing)])
        captured = capsys.readouterr()
        # a mistyped path must fail the runbook check, not verify the
        # empty chain of a store it just created
        assert code == 1
        assert captured.out == ""
        assert "no persistence store" in json.loads(captured.err)["error"]
        assert not missing.exists()

    def test_verify_rejects_a_regular_file(self, tmp_path, capsys):
        leftover = tmp_path / "store.sqlite"
        leftover.write_bytes(b"SQLite format 3\x00")
        assert main(["verify", str(leftover)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
        assert leftover.read_bytes() == b"SQLite format 3\x00"


class TestStats:
    def test_stats_shape(self, tmp_path, capsys):
        path = str(tmp_path / "wal-store")
        populate(path)
        assert main(["stats", path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["backend"] == "wal"
        assert info["last_seq"] >= 3

    def test_stats_missing_store_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "typo-store"
        assert main(["stats", str(missing)]) == 1
        assert "error" in json.loads(capsys.readouterr().err)
        assert not missing.exists()


class TestArgparse:
    def test_unknown_command_exits_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
