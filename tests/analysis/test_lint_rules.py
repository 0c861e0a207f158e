"""Golden-file tests for repro-lint (repro.analysis.lint).

Each ``golden/repNNN.py`` fixture contains violations *and* idiomatic
negative cases for one rule; ``golden/repNNN.expected.json`` freezes the
exact ``(code, line)`` findings.  Regenerate an expected file only after
reviewing the new findings by hand — that review is the point of golden
files.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, lint_paths, lint_source
from repro.analysis.lint.cli import main
from repro.analysis.lint.core import (
    Finding,
    Suppressions,
    module_name_for,
    rule,
)
from repro.analysis.lint.reporters import render_json, render_text
from repro.errors import ReproError

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
REPO_ROOT = HERE.parents[1]
FIXTURES = sorted(GOLDEN.glob("rep*.py"))


def lint_fixture(path):
    expected = json.loads(path.with_suffix(".expected.json").read_text())
    findings, suppressed = lint_source(
        path.read_text(), path=path, module=expected["module"]
    )
    return findings, suppressed, expected


class TestGoldenFixtures:
    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_fixture_matches_expected(self, path):
        findings, suppressed, expected = lint_fixture(path)
        got = [{"code": f.code, "line": f.line} for f in findings]
        assert got == expected["findings"]
        assert suppressed == expected["suppressed"]

    def test_every_rule_has_a_fixture(self):
        covered = {path.stem.upper() for path in FIXTURES}
        assert covered == {lint_rule.code for lint_rule in all_rules()}


class TestSuppressions:
    def test_suppression_fixture_is_fully_silenced(self):
        path = GOLDEN / "suppressed.py"
        findings, suppressed = lint_source(
            path.read_text(), path=path, module="repro.golden.suppressed"
        )
        assert findings == []
        assert suppressed == 4

    def test_unjustified_directives_are_tracked(self):
        path = GOLDEN / "suppressed.py"
        suppressions = Suppressions(path.read_text().splitlines())
        assert suppressions.unjustified == [(22, ["REP003"])]

    def test_directive_only_covers_named_codes(self):
        source = (
            "def f():\n"
            "    raise ValueError('x')  # repro-lint: disable=REP005 -- wrong code\n"
        )
        findings, suppressed = lint_source(source, module="repro.x.y")
        assert [f.code for f in findings] == ["REP003"]
        assert suppressed == 0

    def test_directive_suppresses_multiple_codes(self):
        source = (
            "def f(bucket=[]):\n"
            "    raise ValueError('x')  # repro-lint: disable=REP003,REP006 -- both\n"
        )
        # REP006 points at line 1, so only REP003 (line 2) is covered
        findings, _ = lint_source(source, module="repro.x.y")
        assert [f.code for f in findings] == ["REP006"]


class TestTreeInvariants:
    def test_src_tree_is_lint_clean(self):
        findings, files_checked, _suppressed = lint_paths(
            [REPO_ROOT / "src" / "repro"]
        )
        assert findings == [], render_text(findings, files_checked, 0)
        assert files_checked > 100  # the whole package was actually walked

    def test_module_name_resolution(self):
        engine = REPO_ROOT / "src" / "repro" / "mediator" / "engine.py"
        package = REPO_ROOT / "src" / "repro" / "__init__.py"
        assert module_name_for(engine) == "repro.mediator.engine"
        assert module_name_for(package) == "repro"


class TestRep012Scoping:
    """REP012 fires only inside the vectorized kernel modules."""

    SOURCE = "def f(records):\n    return [r for r in records]\n"

    def test_kernel_module_is_flagged(self):
        findings, _ = lint_source(
            self.SOURCE, module="repro.anonymity.mondrian"
        )
        assert [f.code for f in findings] == ["REP012"]

    def test_non_kernel_module_is_exempt(self):
        for module in ("repro.mediator.engine", "repro.anonymity.lattice",
                       "repro.golden.rep012"):
            findings, _ = lint_source(self.SOURCE, module=module)
            assert findings == [], module


class TestRep013Scoping:
    """REP013 fires only inside the observatory hot modules."""

    SOURCE = ("def _on_event(self, event):\n"
              "    self.telemetry.events.emit('echo', name=event.name)\n")

    def test_obs_hot_module_is_flagged(self):
        findings, _ = lint_source(
            self.SOURCE, module="repro.telemetry.obs.recorder"
        )
        assert [f.code for f in findings] == ["REP013"]

    def test_other_modules_are_exempt(self):
        for module in ("repro.telemetry.obs.slo", "repro.mediator.engine",
                       "repro.golden.rep013"):
            findings, _ = lint_source(self.SOURCE, module=module)
            assert findings == [], module

    def test_cold_paths_in_hot_modules_are_exempt(self):
        source = ("def dump(self, reason):\n"
                  "    self.telemetry.events.emit('dumped', reason=reason)\n")
        findings, _ = lint_source(
            source, module="repro.telemetry.obs.profiler"
        )
        assert findings == []


class TestFramework:
    def test_rule_catalog(self):
        codes = [lint_rule.code for lint_rule in all_rules()]
        assert codes == ["REP002", "REP003", "REP004", "REP005",
                         "REP006", "REP007", "REP008", "REP009",
                         "REP012", "REP013"]

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            rule("REP002", "again")(lambda context: iter(()))

    def test_select_filters_rules(self):
        path = GOLDEN / "rep006.py"
        findings, _ = lint_source(
            path.read_text(), path=path,
            module="repro.golden.rep006", select={"REP005"},
        )
        assert findings == []


class TestReporters:
    def test_text_report_shape(self):
        finding = Finding("REP003", "raise ValueError", "a.py", 3, 4)
        text = render_text([finding], files_checked=2, suppressed=1)
        assert "a.py:3:4: REP003 raise ValueError" in text
        assert "1 finding(s) in 2 file(s), 1 suppressed" in text

    def test_json_report_round_trips(self):
        finding = Finding("REP005", "bare except", "b.py", 7)
        data = json.loads(render_json([finding], 1, 0))
        assert data["summary"] == {
            "findings": 1, "files_checked": 1, "suppressed": 0,
        }
        assert data["findings"][0]["code"] == "REP005"
        assert data["findings"][0]["line"] == 7


class TestCli:
    def test_findings_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("try:\n    pass\nexcept:\n    pass\n")
        assert main([str(bad)]) == 1
        assert "REP005" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        assert main([str(good)]) == 0
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main([str(bad), "--format=json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["findings"] == 1

    def test_select_restricts_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        assert main([str(bad), "--select=REP005"]) == 0
        capsys.readouterr()

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path), "--select=REP999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP002", "REP006"):
            assert code in out
