"""Exported spans: nested free text is scrubbed, objects become data.

The stages of a pose set what they decide on their spans — per-source
outcomes with refusal reasons, the static verdict, violation notices.
Flight-recorder bundles and Chrome traces must scrub that text at any
depth (:func:`repro.telemetry.redact.scrub_reason`) and stay
JSON-serializable.
"""

import json

from repro.errors import PathError
from repro.telemetry.export import chrome_trace, json_safe
from repro.telemetry.obs.recorder import FlightRecorder
from repro.telemetry.redact import scrub_reason
from tests.telemetry.test_explain import AGGREGATE, build_system

REASON = "lab cannot resolve //patient/hba1c for ssn 2-007 at row 42"


def pose_with_refusing_source():
    system = build_system()

    def broken(piql, **kwargs):
        raise PathError(REASON)

    system.source("lab").answer = broken
    system.query(AGGREGATE, requester="epi")
    assert system.explain_last().sources["lab"]["reason"] == REASON
    return system


def fanout_outcomes(spans):
    """The exported ``outcomes`` of the first ``mediator.fanout`` span."""
    stack = list(spans)
    while stack:
        span = stack.pop()
        if span["name"] == "mediator.fanout":
            return span["attributes"]["outcomes"]
        stack.extend(span["children"])
    raise AssertionError("no mediator.fanout span")


class TestExportedSpans:
    def test_bundle_scrubs_nested_refusal_reasons(self):
        system = pose_with_refusing_source()
        bundle = FlightRecorder(system.telemetry).dump(force=True)
        text = json.dumps(bundle)
        assert "2-007" not in text and "row 42" not in text
        outcomes = fanout_outcomes(bundle["spans"])
        assert outcomes["lab"]["reason"] == scrub_reason(REASON)
        assert outcomes["lab"]["kind"] == "PathError"
        assert outcomes["clinic"]["outcome"] == "answered"

    def test_chrome_trace_scrubs_nested_refusal_reasons(self):
        system = pose_with_refusing_source()
        document = chrome_trace(system.last_trace())
        text = json.dumps(document)
        assert "2-007" not in text and "row 42" not in text
        fanout = next(event for event in document["traceEvents"]
                      if event["name"] == "mediator.fanout")
        lab = fanout["args"]["outcomes"]["lab"]
        assert lab["reason"] == scrub_reason(REASON)
        static = next(event for event in document["traceEvents"]
                      if event["name"] == "mediator.static_check")
        assert static["args"]["plan_verdict"]["verdict"] == "RUNTIME_CHECK"

    def test_json_safe_walks_containers_and_objects(self):
        class Notice:
            def to_dict(self):
                return {"detail": "budget 0.6 exceeded", "budget": 0.6}

        value = {
            "notices": [Notice()],
            "refusal_reason": "row 7",
            "reasons": ("keep 1",),
            "error": ["step 3"],
            "opaque": object(),
            "plain": 4,
        }
        safe = json_safe(value)
        json.dumps(safe)
        assert safe["notices"] == [{"detail": "budget # exceeded",
                                    "budget": 0.6}]
        assert safe["refusal_reason"] == "row #"
        assert safe["reasons"] == ["keep 1"]     # not a free-text key
        assert safe["error"] == ["step #"]
        assert safe["opaque"].startswith("<object")
        assert safe["plain"] == 4
