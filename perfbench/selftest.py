"""Self-tests of the benchmark itself: the gate and count determinism.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py gate
    python3 perfbench/selftest.py counts
    python3 perfbench/selftest.py stability

``gate`` slows one layer by a known delay inside the benchmark's own
wrapper (``run.py --inject``): ``integrator`` on ``hmo4-cold`` and
``persistence.record_pose`` on ``hmo4-warm-durable``.  It checks that the
``pose_p50_ms`` bound in ``BENCHMARK.json`` trips on the median over the
seeds, and that a traced run puts the added time in the slowed layer.

``counts`` runs the traced pass twice with one seed and checks that
every count repeats exactly on the single-client workloads, and that
another seed generates other inputs.  ``persistence.bytes_per_pose``
carries the process id and the wall clock (each WAL record holds a trace
id and a timestamp), so its two values are reported instead.  On
``fanout8-faults`` the counts that depend on timing are reported with
their spread instead.

``stability`` runs every workload with ten seeds twice, the two sets
interleaved ABBA, and checks each end-to-end metric against its bound
in ``BENCHMARK.json``: the spread of each set (the distance between the
first and third quartile as a share of the median; not checked for
``setup_s``) and how much worse the second set's median is than the
first's.

Every run measures ``run_seconds`` from ``BENCHMARK.json``.  Each
sub-command prints a summary, writes it as JSON under
``perfbench/results/`` and exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: (workload, layer, injected delay in ms)
GATE_CASES = (
    ("hmo4-cold", "integrator", 8.0),
    ("hmo4-warm-durable", "persistence.record_pose", 1.0),
)

#: Counts that must repeat exactly for one seed on a single client.
COUNTS = (
    "cache.plan.hit_ratio", "cache.static.hit_ratio",
    "cache.rewrite.hit_ratio", "cache.answer.hit_ratio",
    "cache.answer.invalidations", "history.entries",
    "fragmenter.calls_per_query", "plancheck.analyze.calls_per_query",
    "plancheck.refuse_frac", "source.answer.calls_per_query",
    "source.refused_frac", "source.execute.rows_scanned_per_row_out",
    "integrator.rows_in_per_query", "integrator.duplicates_removed_frac",
    "batch.source_answers_per_query", "batch.executes_per_query",
    "batch.integrations_per_query", "persistence.bytes_per_pose",
    "persistence.compactions", "dispatch.attempts_per_source",
    "dispatch.retries_per_query", "dispatch.timeouts_per_query",
    "dispatch.unavailable_frac",
)
#: Counts that carry the process id and the wall clock: every WAL record
#: holds a trace id ``t-<pid in hex>-...`` and the journal's
#: ``time.time()`` stamp, whose printed lengths vary from run to run.
CLOCK_DEPENDENT = ("persistence.bytes_per_pose",)
SINGLE_CLIENT = ("hmo4-cold", "hmo4-warm-durable", "batch256-stream")
TIMED = "fanout8-faults"
GATE_SEEDS = (1, 2, 3)
#: Seeds of the two stability sets; pair ``i`` runs one seed of each.
STABILITY_SEEDS = (tuple(range(1, 11)), tuple(range(11, 21)))
SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]


def run(workload, seed, trace, inject=None):
    """One ``run.py`` invocation; returns its result and report dicts."""
    report = HERE / "results" / f".{workload}-{seed}-{trace}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS),
               "--trace", str(trace), "--report", str(report)]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=CHECKOUT, capture_output=True,
                          text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    details = json.loads(report.read_text())
    report.unlink()
    return result, details


def bound_of(name):
    for entry in SPEC["end_to_end"]:
        if entry["name"] == name:
            return entry["bound"]
    raise KeyError(name)


def gate():
    bound = bound_of("pose_p50_ms")
    seeds = GATE_SEEDS
    summary, ok = [], True
    for workload, layer, delay_ms in GATE_CASES:
        base, slow = [], []
        for index, seed in enumerate(seeds):
            # Alternate which side runs first so drift hits both.
            order = ((None, base), (f"{layer}={delay_ms}", slow))
            for inject, bucket in (order if index % 2 == 0 else order[::-1]):
                result, _ = run(workload, seed, 0, inject)
                bucket.append(result["metrics"]["pose_p50_ms"]["value"])
        change = statistics.median(slow) / statistics.median(base) - 1.0
        tripped = change > bound
        _, traced_base = run(workload, seeds[0], 1)
        _, traced_slow = run(workload, seeds[0], 1, f"{layer}={delay_ms}")
        deltas = {
            name: traced_slow["layers_ms"][name]
            - traced_base["layers_ms"][name]
            for name in traced_base["layers_ms"]
        }
        largest = max(deltas, key=deltas.get)
        attributed = largest == layer
        ok = ok and tripped and attributed
        summary.append({
            "workload": workload, "layer": layer, "delay_ms": delay_ms,
            "seeds": list(seeds), "p50_base_ms": base, "p50_slowed_ms": slow,
            "p50_change": change, "bound": bound, "tripped": tripped,
            "layer_delta_ms": deltas, "largest_delta_layer": largest,
            "attributed": attributed,
        })
        print(f"{workload}: +{delay_ms} ms in {layer}: pose_p50_ms "
              f"{statistics.median(base):.3f} -> "
              f"{statistics.median(slow):.3f} ms ({change:+.1%}, bound "
              f"{bound:.0%}) {'TRIPS' if tripped else 'DOES NOT TRIP'}; "
              f"largest layer delta {largest} {deltas[largest]:+.3f} ms "
              f"{'(attributed)' if attributed else '(MISATTRIBUTED)'}")
    return summary, ok


def input_digest(workload, seed, n=2048):
    """sha256 of the first ``n`` generated queries of one seed."""
    for path in (str(CHECKOUT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    instance = WORKLOADS[workload](seed, str(HERE / "results"))
    if instance.batched:
        stream = (text for _, texts in instance.batches() for text in texts)
    else:
        stream = ("|".join(item[:2]) for item in instance.items())
    digest = hashlib.sha256()
    for _, text in zip(range(n), stream):
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def counts(seed=1, other_seed=2):
    summary, ok = {}, True
    for workload in SINGLE_CLIENT:
        result, report = run(workload, seed, 1)
        first = result["metrics"]
        again = run(workload, seed, 1)[0]["metrics"]
        differ = [name for name in COUNTS if name not in CLOCK_DEPENDENT
                  and first[name]["value"] != again[name]["value"]]
        clock = {name: [first[name]["value"], again[name]["value"]]
                 for name in CLOCK_DEPENDENT}
        new_inputs = (input_digest(workload, seed)
                      != input_digest(workload, other_seed))
        ok = ok and not differ and new_inputs
        summary[workload] = {
            "counts": {name: first[name]["value"] for name in COUNTS},
            "differ_same_seed": differ,
            "clock_dependent_same_seed": clock,
            "other_seed_changes_inputs": new_inputs,
            "layers_ms": report["layers_ms"],
            "metrics": {name: entry["value"]
                        for name, entry in first.items()},
        }
        exact = len(COUNTS) - len(CLOCK_DEPENDENT)
        print(f"{workload}: {exact - len(differ)}/{exact} counts repeat for "
              f"seed {seed}; seed {other_seed} "
              f"{'changes' if new_inputs else 'DOES NOT CHANGE'} the inputs"
              + (f"; DIFFER: {differ}" if differ else "")
              + "".join(f"; {name} {a:.4f} vs {b:.4f}"
                        for name, (a, b) in clock.items() if a != b))
    reports = [run(TIMED, seed, 1) for _ in range(3)]
    runs = [result["metrics"] for result, _ in reports]
    spread = {}
    for name in COUNTS:
        values = [metrics[name]["value"] for metrics in runs]
        if len(set(values)) > 1:
            spread[name] = {"min": min(values), "max": max(values)}
    summary[TIMED] = {
        "timing_dependent": spread,
        "layers_ms": reports[0][1]["layers_ms"],
        "metrics": {name: entry["value"] for name, entry in runs[0].items()},
    }
    print(f"{TIMED}: {len(spread)} counts vary across 3 runs of seed "
          f"{seed}: " + ", ".join(
              f"{name} {entry['min']:.4g}..{entry['max']:.4g}"
              for name, entry in spread.items()))
    return summary, ok


def spread(values):
    """Distance between the first and third quartile, over the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def stability():
    summary, ok = {}, True
    for workload in SPEC["workloads"]:
        name = workload["name"]
        sets, measured = ([], []), ([], [])
        for index, seeds in enumerate(zip(*STABILITY_SEEDS)):
            # ABBA: the set that runs first alternates pair by pair.
            order = (0, 1) if index % 2 == 0 else (1, 0)
            for side in order:
                result, details = run(name, seeds[side], 0)
                ok = ok and result["correct"]
                sets[side].append(result["metrics"])
                measured[side].append(details["measured"])
        rows = {}
        for entry in SPEC["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            values = [[run_metrics[metric]["value"] for run_metrics in side]
                      for side in sets]
            spreads = [spread(side) for side in values]
            medians = [statistics.median(side) for side in values]
            ratio = medians[1] / medians[0]
            worse = ratio - 1.0 if entry["better"] == "lower" else (
                1.0 - ratio)
            held = worse <= bound and (metric == "setup_s"
                                       or max(spreads) <= bound)
            ok = ok and held
            as_measured = [[run_metrics[metric]["value"]
                            for run_metrics in side] for side in measured]
            rows[metric] = {"values": values, "medians": medians,
                            "spreads": spreads, "second_worse_by": worse,
                            "bound": bound, "held": held,
                            "measured_spreads": [spread(side)
                                                 for side in as_measured],
                            "measured_values": as_measured}
            print(f"{name:18} {metric:17} median {medians[0]:10.4g} "
                  f"{medians[1]:10.4g}  spread {spreads[0]:6.1%} "
                  f"{spreads[1]:6.1%}  second worse by {worse:+6.1%}  "
                  f"bound {bound:.0%} {'ok' if held else 'EXCEEDED'}")
        summary[name] = {"seeds": [list(seeds) for seeds in STABILITY_SEEDS],
                         "metrics": rows}
    return summary, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=("gate", "counts", "stability"))
    args = parser.parse_args(argv)
    (HERE / "results").mkdir(exist_ok=True)
    summary, ok = {"gate": gate, "counts": counts,
                   "stability": stability}[args.check]()
    out = HERE / "results" / f"selftest_{args.check}.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{'PASS' if ok else 'FAIL'} (written to {out.relative_to(CHECKOUT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
