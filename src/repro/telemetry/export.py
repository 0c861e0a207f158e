"""Exporters: Chrome trace events, Prometheus text format, events JSONL.

The in-process instruments (spans, metrics, events) become useful at
production scale only when external tools can consume them.  Three
zero-dependency encoders:

* :func:`chrome_trace` — the span tree as a Chrome *trace-event* JSON
  document (``{"traceEvents": [...]}``, ``"ph": "X"`` complete events
  with microsecond timestamps), loadable in Perfetto / ``chrome://tracing``;
* :func:`prometheus_text` — the metrics registry in the Prometheus text
  exposition format (version 0.0.4): counters as ``_total`` samples,
  gauges verbatim, histograms as ``_count`` / ``_sum`` plus quantile
  samples in summary style;
* :func:`events_jsonl` — the event ring as JSON Lines, the same record
  shape the asynchronous :class:`~repro.telemetry.events.JsonlSink`
  writes, so live rings and persisted files replay identically.

The stdlib HTTP endpoint (:mod:`repro.telemetry.http`) serves the first
two at ``/trace`` and ``/metrics``; the report CLI
(:mod:`repro.telemetry.report`) consumes the third.
"""

from __future__ import annotations

import json
import re

from repro.telemetry.redact import scrub_reason

#: Free-text keys whose string values are scrubbed on export, at any
#: depth, also as a ``_``-suffix (``refusal_reason``).
SCRUB_KEYS = ("reason", "error", "message", "detail")

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


# -- Chrome trace-event format -------------------------------------------------

def chrome_trace(roots, pid=1, tid=1):
    """Encode finished root spans as a Chrome trace-event document.

    ``roots`` is an iterable of :class:`~repro.telemetry.tracer.Span`
    (e.g. ``tracer.finished``); a single span is accepted too.  Every
    span becomes a complete event (``"ph": "X"``) whose ``ts``/``dur``
    are microseconds on the span's own ``perf_counter`` clock — absolute
    origin is arbitrary, nesting is what the viewer renders.  Returns a
    JSON-serializable dict.
    """
    if roots is None:
        roots = []
    if hasattr(roots, "walk"):  # a single span
        roots = [roots]
    trace_events = []
    for root in roots:
        for span in root.walk():
            if span.start is None:
                continue
            end = span.end if span.end is not None else span.start
            args = json_safe(span.attributes)
            if getattr(span, "trace_id", None) is not None:
                # cross-thread correlation key: spans of one pose share
                # it even when they render in different lanes
                args["trace_id"] = span.trace_id
            trace_events.append({
                "name": span.name,
                "ph": "X",
                "cat": "mediation",
                "ts": span.start * 1e6,
                "dur": max(0.0, (end - span.start) * 1e6),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
    trace_events.sort(key=lambda e: e["ts"])
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def json_safe(value, key=""):
    """``value`` as plain JSON data, with free text scrubbed.

    Span attributes hold the objects a stage decided (a fragment plan, a
    static verdict, per-source outcomes): an object exports as its
    ``to_dict()`` when it has one, else as its ``repr``; containers are
    walked to any depth.  A string under a :data:`SCRUB_KEYS` key, or
    inside a container under one, passes through
    :func:`~repro.telemetry.redact.scrub_reason`.
    """
    if isinstance(value, str):
        if key.rpartition("_")[2] in SCRUB_KEYS:
            return scrub_reason(value)
        return str(value)
    if value is None or isinstance(value, (bool, int, float)):
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v, str(k)) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(item, key) for item in value]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return json_safe(to_dict(), key)
    return repr(value)


# -- Prometheus text exposition ------------------------------------------------

def metric_name(name, prefix="repro"):
    """A raw instrument name as a valid Prometheus metric name.

    Dots (the registry's namespacing) become underscores; any other
    illegal character is replaced too.  ``prefix`` is prepended so the
    exported namespace is recognizable (``mediator.pose_ms`` →
    ``repro_mediator_pose_ms``).
    """
    flat = _NAME_SANITIZE.sub("_", name)
    full = f"{prefix}_{flat}" if prefix else flat
    if not _NAME_OK.match(full):
        full = "_" + full
    return full


def prometheus_text(snapshot, prefix="repro"):
    """Render a ``metrics_snapshot()`` dict in Prometheus text format.

    Counters gain the conventional ``_total`` suffix; histograms export
    summary-style quantiles plus ``_count`` and ``_sum``.  The output
    ends with a newline (required by the exposition format).
    """
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        flat = metric_name(name, prefix) + "_total"
        lines.append(f"# HELP {flat} Counter {name!r} from the repro registry.")
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_format_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        flat = metric_name(name, prefix)
        lines.append(f"# HELP {flat} Gauge {name!r} from the repro registry.")
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format_value(value)}")
    for name, summary in sorted(snapshot.get("histograms", {}).items()):
        flat = metric_name(name, prefix)
        lines.append(f"# HELP {flat} Histogram {name!r} from the repro "
                     "registry (windowed quantiles).")
        lines.append(f"# TYPE {flat} summary")
        for quantile, key in _QUANTILES:
            lines.append(
                f'{flat}{{quantile="{quantile}"}} '
                f"{_format_value(summary.get(key, 0.0))}"
            )
        count = summary.get("count", 0)
        mean = summary.get("mean", 0.0)
        lines.append(f"{flat}_count {_format_value(count)}")
        # lifetime sum is not in the summary dict; approximate from the
        # window when absent so the pair stays self-consistent
        total = summary.get("sum", mean * count)
        lines.append(f"{flat}_sum {_format_value(total)}")
    return "\n".join(lines) + "\n"


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


# -- events as JSON Lines ------------------------------------------------------

def events_jsonl(events):
    """Encode events (ring objects or dicts) as JSON Lines text."""
    lines = []
    for event in events:
        record = event.to_dict() if hasattr(event, "to_dict") else dict(event)
        lines.append(json.dumps(record, sort_keys=True, default=repr))
    return "\n".join(lines) + ("\n" if lines else "")
