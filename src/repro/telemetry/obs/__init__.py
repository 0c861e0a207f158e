"""``repro.telemetry.obs`` — the always-on performance observatory.

One object, four capabilities, layered on the PR 1 telemetry plumbing
without touching the measured path:

* :class:`~repro.telemetry.obs.profiler.StackProfiler` — sampling stack
  profiler with per-stage attribution (collapsed-stack + Chrome-trace
  exports);
* :class:`~repro.telemetry.obs.context.TraceContext` — explicit trace
  capture/restore so one trace id follows a ``pose()`` across executor
  workers and batch pipelines;
* :class:`~repro.telemetry.obs.slo.SloEngine` — declarative objectives
  with multi-window burn-rate evaluation and ``slo.breach`` events;
* :class:`~repro.telemetry.obs.recorder.FlightRecorder` — bounded
  anomaly bundles on breach / breaker-open / ``SIGUSR2``.

Typical wiring::

    system = PrivateIye(..., telemetry=True)
    obs = PerfObservatory(system.telemetry).start()
    ...
    print(obs.profiler.collapsed(limit=20))
    obs.stop()

"Always-on" is a measured claim, not a slogan: ``benchmarks/bench_obs.py``
runs the 8-source Figure 1 pose workload with the observatory off and on
and gates the overhead at ≤5% (``BENCH_obs.json``, CI ``observability``
job).
"""

from __future__ import annotations

from repro.telemetry.obs.context import EMPTY_CONTEXT, TraceContext
from repro.telemetry.obs.profiler import StackProfiler
from repro.telemetry.obs.recorder import FlightRecorder
from repro.telemetry.obs.slo import (
    ErrorRateObjective,
    ExactObjective,
    LatencyObjective,
    SloEngine,
    default_objectives,
)

__all__ = [
    "EMPTY_CONTEXT",
    "ErrorRateObjective",
    "ExactObjective",
    "FlightRecorder",
    "LatencyObjective",
    "PerfObservatory",
    "SloEngine",
    "StackProfiler",
    "TraceContext",
    "default_objectives",
]


class PerfObservatory:
    """Bundles profiler + SLO engine + flight recorder over one telemetry.

    Construction wires the pieces together (the recorder watches the
    SLO engine's breach hook); :meth:`start` turns the background
    threads on.  Both are cheap and idempotent, so a CLI or a test can
    spin one up around any live :class:`~repro.telemetry.Telemetry`.
    """

    def __init__(self, telemetry, hz=50, objectives=None, bundle_dir=None,
                 slo_interval=5.0, signal_handler=False, **slo_kwargs):
        self.telemetry = telemetry
        self.slo_interval = float(slo_interval)
        self.profiler = StackProfiler(telemetry, hz=hz)
        self.slo = SloEngine(
            telemetry,
            default_objectives() if objectives is None else objectives,
            **slo_kwargs,
        )
        self.recorder = FlightRecorder(
            telemetry, profiler=self.profiler, slo=self.slo,
            bundle_dir=bundle_dir,
        )
        if signal_handler:
            self.recorder.install_signal_handler()

    def start(self):
        """Start sampling, SLO ticking, and anomaly watching."""
        self.profiler.start()
        self.slo.start(self.slo_interval)
        self.recorder.attach()
        return self

    def stop(self):
        """Stop the background threads and detach the recorder."""
        self.recorder.detach()
        self.slo.stop()
        self.profiler.stop()
        return self

    @property
    def running(self):
        """True while the profiler thread is alive."""
        return self.profiler.running

    def status(self):
        """One JSON-serializable roll-up of all three components."""
        return {
            "running": self.running,
            "profiler": {
                "hz": self.profiler.hz,
                "samples": self.profiler.sample_count,
                "overflowed": self.profiler.overflowed,
                "stage_totals": self.profiler.stage_totals(),
            },
            "slo": self.slo.status(),
            "recorder": {
                "dumps": self.recorder.dumps,
                "suppressed": self.recorder.suppressed,
                "retained": len(self.recorder.bundles),
            },
        }

    def __repr__(self):
        return f"PerfObservatory(running={self.running})"
