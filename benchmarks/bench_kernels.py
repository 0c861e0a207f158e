"""Experiment KERN: vectorized kernels and the batched pose pipeline.

Every hot kernel is timed on the same seeded input twice — through its
scalar reference (the test oracle in ``tests/kernels/oracles.py``) and
through the vectorized production function — and the end-to-end
``pose_many`` batch pipeline is raced against the identical workload
through a looped ``query()``.  The differential suites
(``tests/kernels/``, ``tests/mediator/test_pose_many.py``) pin the two
paths to identical *outputs*; this bench publishes what the vectorized
paths buy (``BENCH_kernels.json``, the KERN table of EXPERIMENTS.md).

Acceptance: ≥5x on the solver constraint sweep and the k-anonymity
class counting, ≥3x end-to-end for ``pose_many`` over a 256-query
workload, at identical outcomes.
"""

import gc
import random
import sys
import time
from pathlib import Path

import numpy as np

from repro.anonymity.hierarchy import interval_hierarchy
from repro.anonymity.kanonymity import FullDomainGeneralizer, class_sizes
from repro.inference.bounds import (
    AggregateConstraints,
    cell_bounds,
    propagate_intervals,
)
from repro.metrics.privacy_loss import budget_fixed_point
from repro.statdb.laplace import LaplaceMechanism
from repro.testing.faults import build_flaky_system

# The scalar references are test oracles: put the repo root on sys.path
# so ``tests.kernels.oracles`` imports however this script is launched.
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.kernels.oracles import (  # noqa: E402
    oracle_anonymize,
    oracle_budget_fixed_point,
    oracle_cell_bounds,
    oracle_class_sizes,
    oracle_laplace_answers,
)


def best_of(fn, repeats):
    """Best wall time over ``repeats`` runs, in ms, with GC paused.

    The scalar reference arms are allocation-heavy (dicts of tuples), so
    a collection landing inside one run skews the ratio; pausing GC
    during timing removes that noise source for both arms equally.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
    finally:
        if was_enabled:
            gc.enable()
    return best * 1000.0  # ms


def both_paths(scalar, vectorized, repeats):
    """Time the scalar oracle and the vectorized kernel on one input."""
    scalar_ms = best_of(scalar, repeats)
    vectorized_ms = best_of(vectorized, repeats)
    return {
        "scalar_ms": round(scalar_ms, 3),
        "vectorized_ms": round(vectorized_ms, 3),
        "speedup": round(scalar_ms / vectorized_ms, 2),
    }


# -- kernel inputs (seeded, shared by timing and smoke tests) -----------------

def solver_problem():
    """A 4x6 bound problem: 24 unknowns, stds + column-mean constraints.

    Larger than Figure 1's 3x4 so the per-cell sweep dominates — the
    shape where the scalar per-constraint closures hurt most.
    """
    rng = random.Random(1)
    n_rows, n_cols = 4, 6
    table = [[rng.uniform(20.0, 90.0) for _ in range(n_cols)]
             for _ in range(n_rows)]
    return AggregateConstraints(
        n_rows, n_cols, {0: [row[0] for row in table]},
        row_means=[sum(row) / n_cols for row in table],
        row_stds=[float(np.std(row, ddof=1)) for row in table],
        column_means={1: sum(row[1] for row in table) / n_rows},
    )


def propagation_problem():
    rng = random.Random(2)
    n_rows, n_cols = 24, 10
    table = [[rng.uniform(0.0, 100.0) for _ in range(n_cols)]
             for _ in range(n_rows)]
    return AggregateConstraints(
        n_rows, n_cols, {0: [row[0] for row in table]},
        row_means=[sum(row) / n_cols for row in table],
        column_means={
            j: sum(row[j] for row in table) / n_rows for j in (1, 2, 3)
        },
    )


def qi_table(n=100_000):
    rng = random.Random(3)
    return [
        {"age": rng.randrange(100), "zip": rng.randrange(30),
         "sex": rng.randrange(2)}
        for _ in range(n)
    ]


def lattice_records(n=800):
    rng = random.Random(4)
    return [
        {"age": rng.randrange(20, 80), "visits": rng.randrange(10)}
        for _ in range(n)
    ]


def loss_profile(n=300):
    rng = random.Random(5)
    losses = {f"s{i}": rng.random() * 0.2 for i in range(n)}
    budgets = {f"s{i}": 0.5 + rng.random() * 0.5 for i in range(0, n, 2)}
    return losses, budgets


POSE_QUERIES = 256
POSE_REQUESTERS = 8


def pose_workload():
    """256 queries over 8 requesters: 45 MAXLOSS variants per requester."""
    per_requester = POSE_QUERIES // POSE_REQUESTERS
    return {
        f"r{r:02d}": [
            f"SELECT //patient/age PURPOSE research MAXLOSS 0.{50 + i % 45:02d}"
            for i in range(per_requester)
        ]
        for r in range(POSE_REQUESTERS)
    }


def run_pose_looped(system, workload):
    rows = 0
    for requester, queries in workload.items():
        for text in queries:
            rows += len(system.query(text, requester=requester).rows)
    return rows


def run_pose_batched(system, workload):
    rows = 0
    for requester, queries in workload.items():
        for outcome in system.pose_many(queries, requester=requester):
            rows += len(outcome.unwrap().rows)
    return rows


def pose_lane(repeats):
    workload = pose_workload()
    looped_ms, batched_ms = float("inf"), float("inf")
    looped_rows = batched_rows = None
    for _ in range(max(1, repeats)):
        looped_system, _ = build_flaky_system(4, seed=7)
        looped_ms = min(looped_ms, best_of(
            lambda: run_pose_looped(looped_system, workload), 1
        ))
        looped_rows = run_pose_looped(looped_system, workload)

        batched_system, _ = build_flaky_system(4, seed=7)
        batched_ms = min(batched_ms, best_of(
            lambda: run_pose_batched(batched_system, workload), 1
        ))
        batched_rows = run_pose_batched(batched_system, workload)
    assert batched_rows == looped_rows  # identical outcomes, or no lane
    return {
        "queries": POSE_QUERIES,
        "sources": 4,
        "requesters": POSE_REQUESTERS,
        "rows": looped_rows,
        "looped_ms_per_query": round(looped_ms / POSE_QUERIES, 3),
        "pose_many_ms_per_query": round(batched_ms / POSE_QUERIES, 3),
        "speedup": round(looped_ms / batched_ms, 2),
    }


def solver_lane(repeats):
    solver = solver_problem()
    return both_paths(
        lambda: oracle_cell_bounds(solver, starts=2, seed=0),
        lambda: cell_bounds(solver, starts=2, seed=0),
        repeats,
    )


def kanon_lane(repeats):
    records = qi_table()
    attributes = ("age", "zip", "sex")
    return both_paths(
        lambda: oracle_class_sizes(records, attributes),
        lambda: class_sizes(records, attributes),
        repeats,
    )


def lattice_lane(repeats):
    generalizer = FullDomainGeneralizer([
        interval_hierarchy("age", [5, 10, 20]),
        interval_hierarchy("visits", [2, 4]),
    ])
    lattice = lattice_records()
    return both_paths(
        lambda: oracle_anonymize(generalizer, lattice, 3, max_suppressed=10),
        lambda: generalizer.anonymize(lattice, 3, max_suppressed=10),
        repeats,
    )


def laplace_lane(repeats):
    values, fingerprints = [0.0] * 50_000, range(50_000)
    return both_paths(
        lambda: oracle_laplace_answers(
            LaplaceMechanism(0.5, rng=11), values, fingerprints
        ),
        lambda: LaplaceMechanism(0.5, rng=11).answer_many(
            values, fingerprints
        ),
        repeats,
    )


def fixed_point_lane(repeats):
    losses, budgets = loss_profile()
    return both_paths(
        lambda: oracle_budget_fixed_point(losses, budgets),
        lambda: budget_fixed_point(losses, budgets),
        repeats,
    )


def propagation_lane(repeats):
    propagation = propagation_problem()
    return {
        "vectorized_ms": round(
            best_of(lambda: propagate_intervals(propagation), repeats), 3
        ),
        "note": "no scalar reference: vectorized-only observatory path",
    }


#: Lane name -> callable(repeats) -> JSON cell.  The regression check
#: re-measures individual lanes through this registry.
LANES = {
    "solver_sweep": solver_lane,
    "kanon_counting": kanon_lane,
    "lattice_search": lattice_lane,
    "laplace_batch": laplace_lane,
    "loss_fixed_point": fixed_point_lane,
    "interval_propagation": propagation_lane,
    "pose_many": pose_lane,
}


def collect_results(repeats=1):
    """Every kernel lane as a JSON-serializable dict (for run_all)."""
    return {name: lane(repeats) for name, lane in LANES.items()}


# -- pytest smoke lanes --------------------------------------------------------

def test_kernel_speedups(report):
    results = collect_results(repeats=2)
    report(
        "=== KERN: vectorized kernels vs scalar references ===",
        f"{'lane':20s} {'scalar ms':>10s} {'vector ms':>10s} {'speedup':>8s}",
    )
    for lane, cell in results.items():
        if "speedup" not in cell:
            continue
        scalar = cell.get("scalar_ms", cell.get("looped_ms_per_query"))
        vector = cell.get("vectorized_ms",
                          cell.get("pose_many_ms_per_query"))
        report(f"{lane:20s} {scalar:>10.3f} {vector:>10.3f} "
               f"{cell['speedup']:>7.2f}x")
    assert results["solver_sweep"]["speedup"] >= 5.0
    assert results["kanon_counting"]["speedup"] >= 5.0
    assert results["pose_many"]["speedup"] >= 3.0


def test_pose_many_matches_looped_rows(report):
    lane = pose_lane(repeats=1)
    report(
        "=== KERN: pose_many batch lane ===",
        f"{lane['queries']} queries, {lane['sources']} sources: "
        f"{lane['looped_ms_per_query']:.3f} -> "
        f"{lane['pose_many_ms_per_query']:.3f} ms/query "
        f"({lane['speedup']:.2f}x)",
    )
    assert lane["rows"] > 0


def check_regressions(results, baseline, tolerance):
    """Lanes whose fresh speedup regressed >``tolerance`` vs committed.

    Compares speedups, not milliseconds: both arms of a lane run on the
    same machine in the same process, so the ratio cancels absolute
    machine speed and only a genuine kernel regression (or severe CI
    noise) moves it.
    """
    failures = []
    for lane, cell in baseline.items():
        committed = cell.get("speedup")
        fresh = results.get(lane, {}).get("speedup")
        if committed is None or fresh is None:
            continue
        floor = committed * (1.0 - tolerance)
        if fresh < floor:
            failures.append(
                f"{lane}: speedup {fresh:.2f}x < {floor:.2f}x "
                f"(committed {committed:.2f}x - {tolerance:.0%})"
            )
    return failures


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI setting: force repeats=1")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per lane")
    parser.add_argument("--check", metavar="BASELINE.json",
                        help="fail when a lane's speedup regresses past "
                             "--tolerance vs this committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative speedup regression "
                             "(default 0.10)")
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else args.repeats

    results = collect_results(repeats=repeats)
    if args.check:
        with open(args.check) as handle:
            payload = json.load(handle)
        baseline = payload.get("results", payload)  # run_all wraps results
        failures = check_regressions(results, baseline, args.tolerance)
        if failures and repeats < 3:
            # Smoke timings are single-shot: before failing CI, re-run
            # just the regressed lanes at best-of-3 — scheduler noise
            # shrinks with repeats, a real kernel regression does not.
            for failure in failures:
                lane = failure.split(":", 1)[0]
                results[lane] = LANES[lane](3)
            failures = check_regressions(results, baseline, args.tolerance)
        print(json.dumps(results, indent=2))
        for failure in failures:
            print(f"REGRESSION {failure}", file=sys.stderr)
        return 1 if failures else 0
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
