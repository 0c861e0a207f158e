"""Static refusal vs fan-out-then-refuse — wall-clock saved by the gate.

A query every source is guaranteed to refuse (wrong purpose under
DEFAULT-deny policies) is posed against the same 8-source deployment
(real ``RemoteSource`` pipelines behind deterministic ``FlakySource``
delays) three ways:

* **static gate on** (the default): the plan analyzer proves the refusal
  from policies alone and ``pose()`` raises before any source is
  contacted — the simulated per-source latency never runs;
* **gate off, concurrent dispatch**: all sources are fanned out to, each
  pays its latency, and the refusal comes back after roughly one
  latency (the slowest source);
* **gate off, sequential dispatch**: latencies sum — the worst case the
  paper's rewrite-then-execute split is designed to avoid.

Representative numbers (this container, 8 sources, 50 ms latency,
best of 5)::

    BENCH_STATIC_CHECK static refusal vs fan-out-then-refuse
     sources  latency            mode     wall-clock    saved
           8     50ms          static          0.7ms        -
           8     50ms  concurrent-off         51.9ms    74.3x
           8     50ms  sequential-off        403.5ms   577.3x

The static path is pure computation (each source's compiled plan:
transform → policy → rewrite, then the loss estimate), so its cost is
microseconds per
source and *independent of source latency*; the saved wall-clock grows
with both source count and latency.

Usage::

    PYTHONPATH=src python benchmarks/bench_static_check.py           # table
    PYTHONPATH=src python benchmarks/bench_static_check.py --smoke   # CI gate

``--smoke`` runs the 8-source cell and exits non-zero unless the static
refusal is at least ``--min-speedup`` (default 5×) faster than the
concurrent fan-out-then-refuse, so CI catches a gate that silently
starts dispatching.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import PrivacyViolation
from repro.mediator.dispatch import DispatchPolicy
from repro.testing import FaultSchedule, build_flaky_system

REFUSED_QUERY = "SELECT //patient/age PURPOSE marketing"


def delay_schedule_factory(latency_s, calls=64):
    def schedule_for(name, index):
        return FaultSchedule([("delay", latency_s)] * calls)

    return schedule_for


def build(n_sources, latency_s, mode, gated):
    policy = DispatchPolicy(mode=mode, retries=0, partial="best_effort")
    system, _ = build_flaky_system(
        n_sources,
        schedule_for=delay_schedule_factory(latency_s),
        dispatch=policy,
        seed=42,
    )
    if not gated:
        system.engine.static_analyzer = None
    return system


def time_refusal(system, repeats):
    """Best-of-``repeats`` wall-clock for one refused pose."""
    best = float("inf")
    for attempt in range(repeats):
        started = time.perf_counter()
        try:
            system.engine.pose(
                REFUSED_QUERY,
                requester=f"bench-{attempt}",
                use_warehouse=False,
            )
        except PrivacyViolation:
            pass
        else:
            raise AssertionError("query was expected to refuse")
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


def run_cell(n_sources, latency_ms, repeats):
    latency_s = latency_ms / 1000.0
    static_ms = time_refusal(
        build(n_sources, latency_s, "concurrent", gated=True), repeats
    )
    concurrent_ms = time_refusal(
        build(n_sources, latency_s, "concurrent", gated=False), repeats
    )
    sequential_ms = time_refusal(
        build(n_sources, latency_s, "sequential", gated=False), repeats
    )
    return {
        "sources": n_sources,
        "latency_ms": latency_ms,
        "static_ms": static_ms,
        "concurrent_ms": concurrent_ms,
        "sequential_ms": sequential_ms,
        "speedup_concurrent": concurrent_ms / max(static_ms, 1e-9),
        "speedup_sequential": sequential_ms / max(static_ms, 1e-9),
    }


def print_table(cells):
    print("BENCH_STATIC_CHECK static refusal vs fan-out-then-refuse")
    print(f"{'sources':>8} {'latency':>8} {'mode':>15} "
          f"{'wall-clock':>12} {'saved':>8}")
    for cell in cells:
        rows = [
            ("static", cell["static_ms"], None),
            ("concurrent-off", cell["concurrent_ms"],
             cell["speedup_concurrent"]),
            ("sequential-off", cell["sequential_ms"],
             cell["speedup_sequential"]),
        ]
        for mode, wall_ms, saved in rows:
            saved_text = f"{saved:>7.1f}x" if saved is not None else f"{'-':>8}"
            print(f"{cell['sources']:>8} {cell['latency_ms']:>6.0f}ms "
                  f"{mode:>15} {wall_ms:>10.1f}ms {saved_text}")


def collect_results(repeats=5):
    """The acceptance cell as a JSON-serializable dict (for run_all)."""
    return {"cells": [run_cell(n_sources=8, latency_ms=50.0,
                               repeats=repeats)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="acceptance cell only; gate on --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="smoke: required concurrent-off/static ratio")
    parser.add_argument("--repeats", type=int, default=5,
                        help="take the best of this many runs per cell")
    args = parser.parse_args(argv)

    if args.smoke:
        cell = run_cell(n_sources=8, latency_ms=50.0, repeats=args.repeats)
        print_table([cell])
        if cell["speedup_concurrent"] < args.min_speedup:
            print(
                f"SMOKE FAIL: static refusal only "
                f"{cell['speedup_concurrent']:.1f}x faster than "
                f"concurrent fan-out (< {args.min_speedup:.1f}x)",
                file=sys.stderr,
            )
            return 1
        return 0

    cells = [
        run_cell(n_sources, latency_ms, args.repeats)
        for n_sources in (2, 4, 8)
        for latency_ms in (10.0, 50.0)
    ]
    print_table(cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
