"""Unit tests for the whole-program taint engine (repro.analysis.flow).

Each test writes a tiny standalone tree to ``tmp_path`` and runs the
engine over it; catalog classification resolves through the same
``*.name`` fallbacks the real tree uses.
"""

import textwrap

import pytest

from repro.analysis.flow.catalog import (
    DEFAULT_CATALOG,
    Catalog,
    SinkSpec,
)
from repro.analysis.flow.engine import analyze_flows
from repro.analysis.flow.loader import load_program
from repro.errors import ReproError


def analyze(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return analyze_flows([path])


def finding_lines(analysis):
    return sorted(f.line for f in analysis.findings)


class TestTaintPropagation:
    def test_direct_source_to_event_sink(self, tmp_path):
        analysis = analyze(tmp_path, """
            def leak(table, events):
                rows = table.rows_as_dicts()
                events.emit("leak", rows=rows)
        """)
        assert len(analysis.findings) == 1
        assert analysis.findings[0].code == "REP010"

    def test_interprocedural_return_flow(self, tmp_path):
        analysis = analyze(tmp_path, """
            def fetch(table):
                return table.rows_as_dicts()

            def leak(table, events):
                events.emit("leak", rows=fetch(table))
        """)
        assert len(analysis.findings) == 1

    def test_interprocedural_argument_flow(self, tmp_path):
        analysis = analyze(tmp_path, """
            def emit_it(events, payload):
                events.emit("leak", payload=payload)

            def leak(table, events):
                emit_it(events, table.rows_as_dicts())
        """)
        assert len(analysis.findings) == 1

    def test_clean_tree_has_no_findings(self, tmp_path):
        analysis = analyze(tmp_path, """
            def fine(events):
                events.emit("ok", value=42)
        """)
        assert analysis.findings == []

    def test_exception_sink(self, tmp_path):
        analysis = analyze(tmp_path, """
            def explode(table):
                row = table.rows_as_dicts()[0]
                raise ValueError(f"bad row {row!r}")
        """)
        assert len(analysis.findings) == 1
        assert "exception" in analysis.findings[0].message


class TestSanitizers:
    def test_digest_clears_taint(self, tmp_path):
        analysis = analyze(tmp_path, """
            from repro.telemetry.redact import digest

            def safe(table, events):
                row = table.rows_as_dicts()[0]
                events.emit("safe", value=digest(row))
        """)
        assert analysis.findings == []

    def test_len_aggregation_clears_taint(self, tmp_path):
        analysis = analyze(tmp_path, """
            def safe(table, events):
                events.emit("safe", count=len(table.rows_as_dicts()))
        """)
        assert analysis.findings == []

    def test_mapping_keys_are_identifiers(self, tmp_path):
        # the documented refinement: .keys() of a tainted mapping yields
        # column names, not cells
        analysis = analyze(tmp_path, """
            def safe(table, events):
                row = table.rows_as_dicts()[0]
                events.emit("safe", columns=list(row.keys()))
        """)
        assert analysis.findings == []

    def test_values_stay_tainted(self, tmp_path):
        analysis = analyze(tmp_path, """
            def leak(table, events):
                row = table.rows_as_dicts()[0]
                events.emit("leak", cells=list(row.values()))
        """)
        assert len(analysis.findings) == 1


class TestCallMapping:
    def test_classmethod_receiver_offset(self, tmp_path):
        # regression: classmethod positional args must shift past `cls`,
        # or arg 0 lands on cls and every later param is off by one
        analysis = analyze(tmp_path, """
            class Builder:
                @classmethod
                def build(cls, name, rows, events):
                    events.emit("built", rows=rows)

            def go(table, events):
                Builder.build("t", table.rows_as_dicts(), events)
        """)
        assert len(analysis.findings) == 1
        tainted_args = analysis.findings[0].message
        assert "rows" in tainted_args
        assert "name" not in tainted_args

    def test_constructor_carries_field_taint(self, tmp_path):
        analysis = analyze(tmp_path, """
            class Holder:
                def __init__(self, payload):
                    self.payload = payload

            def leak(table, events):
                held = Holder(table.rows_as_dicts())
                events.emit("leak", value=held)
        """)
        assert len(analysis.findings) == 1

    def test_dataclass_fields_carry_their_own_taint(self, tmp_path):
        # the generated __init__ stores each argument in its field, so a
        # method's self.<field> read sees exactly that argument's taint
        analysis = analyze(tmp_path, """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Record:
                name: str
                cells: tuple

                @classmethod
                def of(cls, name, table):
                    return cls(name, tuple(table.rows_as_dicts()))

                def announce(self, events):
                    events.emit("named", name=self.name)
                    events.emit("cells", cells=self.cells)

            def go(table, events):
                Record.of("t", table).announce(events)
        """)
        assert finding_lines(analysis) == [15]

    def test_dataclass_keyword_arguments_map_to_their_fields(self, tmp_path):
        analysis = analyze(tmp_path, """
            from dataclasses import dataclass

            @dataclass
            class Record:
                name: str
                cells: tuple

                def announce(self, events):
                    events.emit("named", name=self.name)
                    events.emit("cells", cells=self.cells)

            def go(table, events):
                Record(cells=(), name=table.rows_as_dicts()).announce(events)
        """)
        assert finding_lines(analysis) == [10]

    def test_loop_body_sinks_are_deduplicated(self, tmp_path):
        # the interpreter walks loop bodies twice; a sink inside one
        # must still produce exactly one finding
        analysis = analyze(tmp_path, """
            def leak(table, events):
                for row in table.rows_as_dicts():
                    events.emit("leak", row=row)
        """)
        assert len(analysis.findings) == 1


class TestSpeculativeResolution:
    def test_untyped_append_is_not_a_wal_sink(self, tmp_path):
        # `x.append(...)` on an untyped receiver must not match the
        # journal/WAL `*.append` sinks (their receiver hints gate them)
        analysis = analyze(tmp_path, """
            def collect(table):
                out = []
                for row in table.rows_as_dicts():
                    out.append(row)
                return out
        """)
        assert analysis.findings == []

    def test_hinted_receiver_is_a_sink(self, tmp_path):
        analysis = analyze(tmp_path, """
            class Recorder:
                def __init__(self, journal):
                    self._journal = journal

                def record(self, table):
                    self._journal.append(table.rows_as_dicts())
        """)
        assert len(analysis.findings) == 1


class TestInventory:
    def test_event_names_from_literal_first_args(self, tmp_path):
        analysis = analyze(tmp_path, """
            def emitting(events, value):
                events.emit("alpha.one", v=value)
                events.emit("beta.two")
        """)
        assert analysis.event_names() == ["alpha.one", "beta.two"]

    def test_sink_inventory_entries(self, tmp_path):
        analysis = analyze(tmp_path, """
            def emitting(events, metrics):
                events.emit("gamma", v=1)
                metrics.counter("hits").inc()
        """)
        inventory = analysis.sink_inventory()
        kinds = {entry["kind"] for entry in inventory}
        assert "event" in kinds
        assert "metric" in kinds
        event = [e for e in inventory if e["kind"] == "event"][0]
        assert event["event_name"] == "gamma"
        assert event["function"] == "mod.emitting"


class TestCatalog:
    def test_source_label_matches_glob(self):
        label = DEFAULT_CATALOG.source_label(["*.rows_as_dicts"])
        assert label == "relational row/cell accessor"

    def test_sink_receiver_hint_gates_match(self):
        catalog = Catalog({}, [], [
            SinkSpec("journal", "*.append", receiver_hint=r"journal"),
        ])
        assert catalog.sink_for(["*.append"], "self._journal") is not None
        assert catalog.sink_for(["*.append"], "rows") is None
        assert catalog.sink_for(["*.append"], None) is None

    def test_sanitizer_match(self):
        assert DEFAULT_CATALOG.is_sanitizer(
            ["repro.telemetry.redact.digest"]
        )
        assert not DEFAULT_CATALOG.is_sanitizer(["mod.leak"])


class TestLoader:
    def test_missing_paths_raise(self, tmp_path):
        with pytest.raises(ReproError):
            load_program([tmp_path / "nothing"])

    def test_program_indexes_methods_and_locks(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""
            import queue
            import threading

            class Thing:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def method(self):
                    return 1
        """))
        program = load_program([path])
        info = program.classes["mod.Thing"]
        assert "method" in info.methods
        assert info.lock_attrs == {"_lock"}
        assert info.sync_attrs == {"_queue"}
