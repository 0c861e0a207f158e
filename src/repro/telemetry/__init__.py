"""Observability for the PRIVATE-IYE pipeline: tracing, metrics, explain.

The paper argues (Figure 1, §5) that privacy-preserving integration is an
*accounting* problem — what did each query disclose, which source refused
and why, how did per-source losses compound after integration?  This
package gives the reproduction the instruments to answer those questions:

* :mod:`repro.telemetry.tracer` — ``Span``/``Tracer`` with a
  context-manager API and thread-local nesting, so per-source pipeline
  stages nest under the mediator's ``pose`` span without any context
  threading;
* :mod:`repro.telemetry.metrics` — a counters/gauges/histograms registry
  with p50/p95/p99 summaries;
* :mod:`repro.telemetry.explain` — per-query *privacy ledgers*
  (fragmentation plan, per-source rewrite decisions and refusal kinds,
  warehouse hit/miss, sequence-guard verdict, aggregated loss vs MAXLOSS),
  each built once when its pose settles and read off the pose's record
  and span tree.

One :class:`Telemetry` object bundles the three and is shared by the
mediation engine, the warehouse, and every registered source.  Telemetry
is **off by default**: every component falls back to the module-level
:data:`NOOP` instance, whose tracer/metrics/explain are shared singletons
that record nothing and build no ledger, so the production hot path pays
only an attribute lookup per instrumentation point.  Enable it with
``PrivateIye(telemetry=True)``, ``MediationEngine(telemetry=...)``, or the
environment variable ``REPRO_TELEMETRY=1``.

See ``docs/observability.md`` for the span/attribute reference and
``docs/architecture.md`` for where each instrument sits in Figure 2.
"""

from __future__ import annotations

import os

from repro.telemetry.events import (
    NOOP_EVENTS,
    Event,
    EventLog,
    JsonlSink,
    NoopEventLog,
    resolve_events,
)
from repro.telemetry.explain import (
    NOOP_EXPLAIN,
    ExplainLog,
    ExplainReport,
    NoopExplainLog,
)
from repro.telemetry.metrics import (
    NOOP_INSTRUMENT,
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopMetrics,
)
from repro.telemetry.tracer import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopSpan,
    NoopTracer,
    Span,
    Tracer,
)

ENV_FLAG = "REPRO_TELEMETRY"


class Telemetry:
    """Tracer + metrics registry + explain log behind one enabled flag.

    ``Telemetry(enabled=False)`` (and the shared :data:`NOOP` instance)
    wires all three members to their no-op counterparts; the instrumented
    call sites are identical either way.
    """

    __slots__ = ("enabled", "tracer", "metrics", "explain", "events")

    def __init__(self, enabled=True, max_roots=256, max_reports=64,
                 events=None, max_events=2048):
        self.enabled = bool(enabled)
        if self.enabled:
            self.tracer = Tracer(max_roots=max_roots)
            self.metrics = MetricsRegistry()
            self.explain = ExplainLog(max_reports=max_reports)
            self.events = resolve_events(events, max_events=max_events)
        else:
            self.tracer = NOOP_TRACER
            self.metrics = NOOP_METRICS
            self.explain = NOOP_EXPLAIN
            self.events = NOOP_EVENTS

    def span(self, name, **attributes):
        """Shorthand for ``telemetry.tracer.span(...)``."""
        return self.tracer.span(name, **attributes)

    def explain_last(self, requester=None):
        """The newest explain report (optionally for one requester)."""
        return self.explain.last(requester)

    def metrics_snapshot(self):
        """Plain-dict snapshot of every metric."""
        return self.metrics.snapshot()

    def emit(self, name, **attributes):
        """Shorthand for ``telemetry.events.emit(...)``."""
        return self.events.emit(name, **attributes)

    def events_tail(self, n=20):
        """The ``n`` newest structured events, oldest first."""
        return self.events.tail(n)

    def reset(self):
        """Clear finished spans and metrics (explain log is append-only)."""
        self.tracer.reset()
        self.metrics.reset()

    def close(self):
        """Flush and close the event sink, if one is attached."""
        self.events.close()

    def __repr__(self):
        return f"Telemetry(enabled={self.enabled})"


NOOP = Telemetry(enabled=False)


def env_enabled(environ=None):
    """Whether ``REPRO_TELEMETRY`` requests telemetry (``1/true/yes/on``)."""
    value = (environ or os.environ).get(ENV_FLAG, "")
    return value.strip().lower() in ("1", "true", "yes", "on")


def resolve_telemetry(telemetry=None):
    """Normalize a constructor argument into a :class:`Telemetry`.

    ``None`` defers to the environment (``REPRO_TELEMETRY=1`` enables,
    otherwise the shared :data:`NOOP`); a bool builds a fresh instance;
    an existing :class:`Telemetry` passes through, which is how the
    engine, warehouse, and sources end up sharing one.
    """
    if telemetry is None:
        return Telemetry(enabled=True) if env_enabled() else NOOP
    if isinstance(telemetry, bool):
        return Telemetry(enabled=telemetry) if telemetry else NOOP
    if isinstance(telemetry, Telemetry):
        return telemetry
    # repro-lint: disable=REP003 -- test-asserted API contract:
    # constructor-argument type errors are TypeError by Python convention.
    raise TypeError(
        f"telemetry must be None, a bool, or a Telemetry instance, "
        f"not {type(telemetry).__name__}"
    )


__all__ = [
    "Telemetry",
    "NOOP",
    "resolve_telemetry",
    "env_enabled",
    "ENV_FLAG",
    "Tracer",
    "Span",
    "NoopTracer",
    "NoopSpan",
    "NOOP_TRACER",
    "NOOP_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "NoopMetrics",
    "NOOP_METRICS",
    "NOOP_INSTRUMENT",
    "Event",
    "EventLog",
    "JsonlSink",
    "NoopEventLog",
    "NOOP_EVENTS",
    "resolve_events",
    "ExplainLog",
    "ExplainReport",
    "NoopExplainLog",
    "NOOP_EXPLAIN",
]
