"""Durability tax and recovery cost of the persistence layer.

Two questions an operator asks before turning on
``PrivateIye(persistence=...)``:

* **poses/sec** — what does the write-ahead append cost per pose,
  against the in-memory baseline?  The fsynced JSONL WAL pays one disk
  barrier per pose (the price of surviving power loss); its relaxed
  setting (``fsync=False``) shows the share of the tax that is the
  barrier rather than the serialization.
* **recovery time vs log length** — how long is the restart window?
  ``recover()`` replays snapshot + log and re-verifies the journal's
  sha256 chain, so the cost is linear in the un-compacted tail.

Representative numbers (this container, 20-row source, best of 3)::

    BENCH_PERSISTENCE write-ahead durability tax
        backend      poses/sec   vs memory
           none         1050/s           -
         memory          990/s       1.00x
    wal-nofsync          940/s       0.95x
            wal          180/s       0.18x

Usage::

    PYTHONPATH=src python benchmarks/bench_persistence.py           # full
    PYTHONPATH=src python benchmarks/bench_persistence.py --smoke   # CI

``--smoke`` runs one small cell per setting and exits non-zero unless
recovery reproduces the live run's cumulative disclosure exactly and
the journal chain verifies — the correctness gate; throughput is
reported but never gated (CI disks are too noisy).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro import PrivateIye
from repro.persistence import PersistenceSink
from repro.persistence.wal import WalBackend
from repro.relational import Table

POLICIES = """
VIEW s1_private { PRIVATE //patient/hba1c FORM aggregate; }

POLICY s1 DEFAULT deny {
    ALLOW //patient/hba1c FOR research FORM aggregate MAXLOSS 0.9;
}
"""

AGGREGATE = "SELECT AVG(//patient/hba1c) AS mean PURPOSE research"
REQUESTER = "bench-persistence"


def make_sink(backend_name, directory):
    """A fresh sink for ``backend_name`` under ``directory`` (or None)."""
    if backend_name == "none":
        return None
    if backend_name == "memory":
        return True
    root = Path(directory)
    if backend_name == "wal":
        return PersistenceSink(WalBackend(root / "wal"))
    if backend_name == "wal-nofsync":
        return PersistenceSink(WalBackend(root / "wal-nofsync",
                                          fsync=False))
    raise ValueError(f"unknown backend {backend_name!r}")


def build(persistence):
    system = PrivateIye(telemetry=True, observatory=True,
                        persistence=persistence)
    system.load_policies(POLICIES, view_source={"s1_private": "s1"})
    rows = [{"hba1c": 60.0 + i} for i in range(20)]
    system.add_relational_source("s1", Table.from_dicts("patients", rows))
    return system


def time_poses(system, poses):
    started = time.perf_counter()
    for _ in range(poses):
        system.query(AGGREGATE, requester=REQUESTER)
    return time.perf_counter() - started


def run_throughput_cell(backend_name, poses, repeats):
    """Best-of-``repeats`` poses/sec for one backend."""
    best = float("inf")
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as scratch:
            system = build(make_sink(backend_name, scratch))
            elapsed = time_poses(system, poses)
            if system.persistence is not None:
                system.persistence.close()
            best = min(best, elapsed)
    return {
        "backend": backend_name,
        "poses": poses,
        "elapsed_s": best,
        "poses_per_sec": poses / max(best, 1e-9),
    }


def run_recovery_cell(poses, repeats, snapshot_every=None):
    """WAL recovery wall-clock and correctness for one log length.

    Builds a deployment, poses ``poses`` times, simulates the crash
    (close, discard), rebuilds, and times ``recover()``.  Returns the
    timing plus the correctness verdict: recovered cumulative loss must
    equal the live run's, and the journal chain must verify.
    """
    best = float("inf")
    verdicts = []
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as scratch:
            make = lambda: PersistenceSink(
                WalBackend(Path(scratch) / "wal"),
                snapshot_every=snapshot_every,
            )
            system = build(make())
            for _ in range(poses):
                system.query(AGGREGATE, requester=REQUESTER)
            expected = system.audit_journal().cumulative_loss(REQUESTER)
            system.persistence.close()

            rebuilt = build(make())
            started = time.perf_counter()
            report = rebuilt.recover()
            elapsed = time.perf_counter() - started
            best = min(best, elapsed)
            journal = rebuilt.audit_journal()
            verdicts.append(
                report.chain_valid
                and journal.verify_chain() == (True, None)
                and abs(journal.cumulative_loss(REQUESTER) - expected)
                < 1e-12
            )
            rebuilt.persistence.close()
    return {
        "backend": "wal",
        "poses": poses,
        "snapshot_every": snapshot_every,
        "recovery_ms": best * 1000.0,
        "recovered_exactly": all(verdicts),
    }


def print_throughput(cells):
    print("BENCH_PERSISTENCE write-ahead durability tax")
    baseline = next(
        (c["poses_per_sec"] for c in cells if c["backend"] == "none"), None
    )
    print(f"{'backend':>14} {'poses/sec':>12} {'vs none':>10}")
    for cell in cells:
        ratio = (f"{cell['poses_per_sec'] / baseline:>9.2f}x"
                 if baseline else f"{'-':>10}")
        print(f"{cell['backend']:>14} {cell['poses_per_sec']:>10.0f}/s "
              f"{ratio}")


def print_recovery(cells):
    print("BENCH_PERSISTENCE recovery time vs log length")
    print(f"{'backend':>14} {'poses':>7} {'snapshot':>9} "
          f"{'recovery':>11} {'exact':>6}")
    for cell in cells:
        cadence = (str(cell["snapshot_every"])
                   if cell["snapshot_every"] else "off")
        print(f"{cell['backend']:>14} {cell['poses']:>7} {cadence:>9} "
              f"{cell['recovery_ms']:>9.1f}ms "
              f"{'yes' if cell['recovered_exactly'] else 'NO':>6}")


#: Backends in the throughput sweep, baseline first.
THROUGHPUT_BACKENDS = ("none", "memory", "wal-nofsync", "wal")


def collect_results(repeats=3):
    """The acceptance cells as a JSON-serializable dict (for run_all)."""
    throughput = [run_throughput_cell(name, poses=20, repeats=repeats)
                  for name in THROUGHPUT_BACKENDS]
    recovery = [run_recovery_cell(poses, repeats=repeats)
                for poses in (20, 60)]
    recovery.append(run_recovery_cell(60, repeats=repeats,
                                      snapshot_every=16))
    return {"throughput": throughput, "recovery": recovery}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small cells; gate on recovery correctness")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of this many runs per cell")
    parser.add_argument("--json", action="store_true",
                        help="emit the results dict as JSON instead")
    args = parser.parse_args(argv)

    if args.smoke:
        throughput = [run_throughput_cell(name, poses=5, repeats=1)
                      for name in THROUGHPUT_BACKENDS]
        recovery = [run_recovery_cell(poses=10, repeats=1)]
        if args.json:
            print(json.dumps({"throughput": throughput,
                              "recovery": recovery}, indent=2))
        else:
            print_throughput(throughput)
            print_recovery(recovery)
        broken = [c["backend"] for c in recovery
                  if not c["recovered_exactly"]]
        if broken:
            print(f"SMOKE FAIL: recovery diverged on {broken}",
                  file=sys.stderr)
            return 1
        print("SMOKE OK: the WAL recovered the exact accounting")
        return 0

    results = collect_results(repeats=args.repeats)
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print_throughput(results["throughput"])
        print()
        print_recovery(results["recovery"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
