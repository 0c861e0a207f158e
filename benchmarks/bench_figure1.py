"""Experiments F1ab and F1cd: reproduce every sub-table of Figure 1.

F1ab regenerates the published aggregate tables 1(a) and 1(b) from
synthetic per-HMO microdata calibrated to the paper's 2001 numbers.
F1cd runs the snooping HMO1's non-linear-programming inference and prints
the reproduced Figure 1(d) intervals next to the paper's.
"""

import time

import pytest

# bench_kernels puts the repo root on sys.path for the test oracles.
from bench_kernels import oracle_cell_bounds
from repro.data import FIGURE1, HealthcareGenerator
from repro.inference import PublishedAggregates, SnoopingSource, cell_bounds


def collect_results(repeats=1):
    """Both experiments as a JSON-serializable dict (for run_all).

    ``repeats`` scales the inference multistart count (more starts,
    tighter reproduced intervals) — 1 is the CI smoke setting.
    """
    generator = HealthcareGenerator(patients_per_hmo=400, seed=2006)
    published = PublishedAggregates.from_matrix(
        generator.measures, generator.sources,
        generator.compliance_matrix(), 1,
    )
    row_mean_error = max(
        abs(published.row_means[i] - FIGURE1.row_means[i])
        for i in range(len(generator.measures))
    )
    paper_published = PublishedAggregates(
        FIGURE1.measures, FIGURE1.sources, FIGURE1.row_means,
        FIGURE1.row_stds, FIGURE1.source_means, precision=1,
    )
    snooper = SnoopingSource(paper_published, "HMO1", FIGURE1.hmo1_values)
    inferred = snooper.infer(starts=max(2, 2 * repeats), seed=0)
    endpoint_error = sum(
        abs(low - paper_low) + abs(high - paper_high)
        for cell, (low, high) in inferred.items()
        for paper_low, paper_high in [FIGURE1.paper_intervals[cell]]
    ) / (2 * len(FIGURE1.paper_intervals))
    # KERN tie-in: the snooping inference's bound problem through the
    # scalar oracle and the vectorized solver.  The constraint sweep
    # behind ``infer`` is hot kernel (1); this lane smoke-checks that the
    # scalar reference still reproduces the figure and publishes what the
    # vectorized encoding buys on this workload.
    constraints = snooper.constraints()
    modes = {}
    mode_intervals = {}
    for label, bounds in (("scalar", oracle_cell_bounds),
                          ("vectorized", cell_bounds)):
        started = time.perf_counter()
        mode_intervals[label] = bounds(
            constraints, starts=max(2, 2 * repeats), seed=0
        )
        modes[f"{label}_ms"] = round(
            (time.perf_counter() - started) * 1000.0, 3
        )
    modes["speedup"] = round(
        modes["scalar_ms"] / modes["vectorized_ms"], 2
    )
    modes["max_endpoint_divergence"] = max(
        abs(a - b)
        for cell in mode_intervals["scalar"]
        for a, b in zip(mode_intervals["scalar"][cell],
                        mode_intervals["vectorized"][cell])
    )
    return {
        "f1ab": {
            "row_means": list(published.row_means),
            "paper_row_means": list(FIGURE1.row_means),
            "max_row_mean_error": row_mean_error,
        },
        "f1cd": {
            "intervals": {
                f"{measure}@{source}": [low, high]
                for (measure, source), (low, high) in sorted(inferred.items())
            },
            "mean_endpoint_error": endpoint_error,
        },
        "kernel_modes": modes,
    }


@pytest.fixture(scope="module")
def generator():
    return HealthcareGenerator(patients_per_hmo=400, seed=2006)


@pytest.fixture(scope="module")
def matrix(generator):
    return generator.compliance_matrix()


def test_figure1_tables_ab(benchmark, report, generator, matrix):
    published = benchmark(
        PublishedAggregates.from_matrix,
        generator.measures, generator.sources, matrix, 1,
    )
    report(
        "=== F1ab: Figure 1(a) — test compliance (reproduced | paper) ===",
        f"{'Test':16s} {'mean':>6s} {'sigma':>6s}   {'paper mean':>10s} {'paper sigma':>11s}",
    )
    for i, measure in enumerate(generator.measures):
        report(
            f"{measure:16s} {published.row_means[i]:6.1f} "
            f"{published.row_stds[i]:6.1f}   {FIGURE1.row_means[i]:10.1f} "
            f"{FIGURE1.row_stds[i]:11.1f}"
        )
    report("=== F1ab: Figure 1(b) — HMO average performance ===")
    for j, source in enumerate(generator.sources):
        report(
            f"{source}: {published.source_means[j]:5.1f}   "
            f"(paper: {FIGURE1.source_means[j]:5.1f})"
        )
    for i in range(len(generator.measures)):
        assert published.row_means[i] == pytest.approx(
            FIGURE1.row_means[i], abs=0.2
        )


def test_kernel_modes_agree_on_figure1d(report):
    published = PublishedAggregates(
        FIGURE1.measures, FIGURE1.sources, FIGURE1.row_means,
        FIGURE1.row_stds, FIGURE1.source_means, precision=1,
    )
    snooper = SnoopingSource(published, "HMO1", FIGURE1.hmo1_values)
    constraints = snooper.constraints()
    intervals = {
        "scalar": oracle_cell_bounds(constraints, starts=2, seed=0),
        "vectorized": cell_bounds(constraints, starts=2, seed=0),
    }
    report("=== F1cd: scalar and vectorized solver agree ===")
    assert set(intervals["scalar"]) == set(intervals["vectorized"])
    for cell, (low, high) in intervals["scalar"].items():
        v_low, v_high = intervals["vectorized"][cell]
        assert v_low == pytest.approx(low, abs=1e-6)
        assert v_high == pytest.approx(high, abs=1e-6)


def test_figure1_inferred_intervals_cd(benchmark, report):
    published = PublishedAggregates(
        FIGURE1.measures, FIGURE1.sources, FIGURE1.row_means,
        FIGURE1.row_stds, FIGURE1.source_means, precision=1,
    )
    snooper = SnoopingSource(published, "HMO1", FIGURE1.hmo1_values)
    inferred = benchmark.pedantic(
        lambda: snooper.infer(starts=4, seed=0), rounds=1, iterations=1
    )
    report(
        "=== F1cd: Figure 1(d) — intervals inferred by snooping HMO1 ===",
        f"{'Test':16s} {'HMO':5s} {'reproduced':>16s} {'paper':>16s}",
    )
    total_error = 0.0
    for cell in sorted(FIGURE1.paper_intervals):
        low, high = inferred[cell]
        paper_low, paper_high = FIGURE1.paper_intervals[cell]
        total_error += abs(low - paper_low) + abs(high - paper_high)
        report(
            f"{cell[0]:16s} {cell[1]:5s} "
            f"[{low:5.1f}, {high:5.1f}]  [{paper_low:5.1f}, {paper_high:5.1f}]"
        )
    mean_error = total_error / (2 * len(FIGURE1.paper_intervals))
    report(f"mean absolute endpoint error vs paper: {mean_error:.2f} points")
    assert mean_error < 1.0
