"""The anomaly flight recorder — context *around* a failure, kept cheap.

Post-hoc debugging of a p99 regression or a tripped breaker needs what
was happening *just before* — and by the time a human looks, the rings
have rotated past it.  The :class:`FlightRecorder` watches the event
stream for anomaly triggers and freezes a diagnostic bundle the moment
one fires:

* **triggers** — an SLO breach (via :meth:`SloEngine.on_breach`), a
  circuit breaker opening (``dispatch.breaker_transition`` → ``open``),
  or ``SIGUSR2`` (operator-initiated, opt-in via
  :meth:`install_signal_handler`);
* **bundle** — recent finished spans (with trace ids), the event-log
  tail, a metrics snapshot, SLO status, and the profiler's heaviest
  collapsed stacks; span and event attributes pass through
  :func:`repro.telemetry.export.json_safe`, which scrubs free text at
  any depth and renders the objects spans hold as plain data, so a
  bundle shipped off-box discloses no more than the event stream
  already may (REP010's sink discipline);
* **bounds** — at most ``max_bundles`` retained in a ring, at most one
  *auto* dump per ``min_interval_s`` (a breaker flapping open cannot
  turn the recorder into the overload).

The recorder's event listener is a REP013 hot path: it runs inline in
every ``emit()``, so it must only *test* the event and return — all
bundle assembly happens in :meth:`dump`, which only triggers fire.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

from repro.telemetry.export import json_safe
from repro.telemetry.redact import scrub_reason

#: Bundle schema version, bumped when the shape changes.
BUNDLE_VERSION = 1


class FlightRecorder:
    """Bounded ring of diagnostic bundles, frozen on anomaly triggers."""

    def __init__(self, telemetry, profiler=None, slo=None, bundle_dir=None,
                 max_bundles=8, min_interval_s=5.0, events_tail=128,
                 spans_tail=32, stacks_tail=40, clock=time.monotonic):
        self.telemetry = telemetry
        self.profiler = profiler
        self.slo = slo
        self.bundle_dir = str(bundle_dir) if bundle_dir is not None else None
        self.max_bundles = int(max_bundles)
        self.min_interval_s = float(min_interval_s)
        self.events_tail = int(events_tail)
        self.spans_tail = int(spans_tail)
        self.stacks_tail = int(stacks_tail)
        self._clock = clock
        self._bundles = []
        self._lock = threading.Lock()
        self._last_auto = None
        self._listener = None
        self._signal_installed = False
        self.dumps = 0
        self.suppressed = 0

    # -- wiring --------------------------------------------------------------

    def attach(self):
        """Subscribe to the event log and the SLO engine's breach hook."""
        with self._lock:
            if self._listener is None:
                self._listener = self.telemetry.events.subscribe(
                    self._on_event
                )
        if self.slo is not None:
            self.slo.on_breach(self._on_breach)
        return self

    def detach(self):
        """Unsubscribe from the event log (SLO hooks stay registered)."""
        with self._lock:
            listener, self._listener = self._listener, None
        if listener is not None:
            self.telemetry.events.unsubscribe(listener)

    def install_signal_handler(self, signum=signal.SIGUSR2):
        """Dump on ``SIGUSR2`` (main thread only; no-op elsewhere)."""
        try:
            signal.signal(signum, self._on_signal)
        except ValueError:
            return False  # not the main thread; triggers still work
        with self._lock:
            self._signal_installed = True
        return True

    # -- triggers (REP013 hot path: test-and-return only) --------------------

    def _on_event(self, event):
        if (event.name == "dispatch.breaker_transition"
                and event.attributes.get("state") == "open"):
            self.dump(reason=f"breaker-open:{event.attributes.get('source')}")

    def _on_breach(self, name, entry):
        self.dump(reason=f"slo-breach:{name}")

    def _on_signal(self, signum, frame):
        self.dump(reason="signal", force=True)

    # -- dumping -------------------------------------------------------------

    def dump(self, reason="manual", force=False):
        """Freeze one diagnostic bundle; returns it (or None if limited).

        Auto-triggered dumps are rate-limited to one per
        ``min_interval_s``; ``force=True`` (manual/CLI/signal) bypasses
        the limit.  The bundle lands in the in-memory ring and — when
        ``bundle_dir`` is set — as a JSON file named after its sequence
        number.
        """
        now = self._clock()
        with self._lock:
            if not force and self._last_auto is not None and (
                    now - self._last_auto < self.min_interval_s):
                self.suppressed += 1
                return None
            self._last_auto = now
            self.dumps += 1
            seq = self.dumps
        bundle = self._assemble(seq, reason)
        with self._lock:
            self._bundles.append(bundle)
            del self._bundles[:-self.max_bundles]
        path = self._write(bundle)
        # emitted after assembly so the bundle itself never contains the
        # event announcing it (no recursion: the listener only reacts to
        # breaker transitions).
        self.telemetry.events.emit(
            "obs.flight_recorder.dump", seq=seq,
            reason=scrub_reason(reason), path=path,
        )
        return bundle

    def _assemble(self, seq, reason):
        """Build the bundle dict (redaction applied here, once)."""
        telemetry = self.telemetry
        spans = [
            self._redact_span(root.to_dict())
            for root in telemetry.tracer.finished[-self.spans_tail:]
        ]
        events = [
            self._redact_event(event.to_dict())
            for event in telemetry.events.tail(self.events_tail)
        ]
        bundle = {
            "version": BUNDLE_VERSION,
            "seq": seq,
            "reason": scrub_reason(reason),
            "ts": time.time(),
            "spans": spans,
            "events": events,
            "metrics": telemetry.metrics.snapshot(),
            "slo": self.slo.status() if self.slo is not None else None,
            "profile": {
                "collapsed": (self.profiler.collapsed(limit=self.stacks_tail)
                              if self.profiler is not None else ""),
                "stage_totals": (self.profiler.stage_totals()
                                 if self.profiler is not None else {}),
            },
        }
        return bundle

    @classmethod
    def _redact_event(cls, event_dict):
        event_dict["attributes"] = json_safe(event_dict["attributes"])
        return event_dict

    @classmethod
    def _redact_span(cls, span_dict):
        span_dict["attributes"] = json_safe(span_dict["attributes"])
        span_dict["children"] = [
            cls._redact_span(child) for child in span_dict["children"]
        ]
        return span_dict

    def _write(self, bundle):
        """Persist the bundle as JSON when a bundle_dir is configured."""
        if self.bundle_dir is None:
            return None
        os.makedirs(self.bundle_dir, exist_ok=True)
        path = os.path.join(self.bundle_dir,
                            f"flight-{bundle['seq']:04d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, sort_keys=True, indent=1)
        return path

    # -- reading -------------------------------------------------------------

    @property
    def bundles(self):
        """Retained bundles, oldest first."""
        with self._lock:
            return list(self._bundles)

    def last(self):
        """The newest bundle (or None)."""
        with self._lock:
            return self._bundles[-1] if self._bundles else None

    def __repr__(self):
        return (f"FlightRecorder(dumps={self.dumps}, "
                f"retained={len(self.bundles)})")
