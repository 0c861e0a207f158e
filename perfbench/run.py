"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hmo4-cold --seed 1 --seconds 18 --trace 0

One client thread drives the public API in a closed loop: each query
waits for its answer before the next is posed.  The process runs on one
CPU (see :func:`pin_to_one_cpu`).  ``--trace 0`` measures
the end-to-end metrics with no wrapper installed; ``--trace 1`` runs the
layer wrappers of :mod:`spans` and reports the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--inject LAYER=MS`` adds a known delay inside that layer's wrapper
(the gate self-test); ``--report PATH`` writes the layer table and every
metric there as JSON.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
#: Set-up is timed at least this many times and for at least this long
#: in total; the median is reported, so the cheap builds are repeated
#: more.
MIN_REPEATS, MIN_REPEAT_S = 5, 2.0
#: Restarts are timed in slices of at least this long, one after each
#: measured block, so their samples span the whole window and not one
#: stretch of it; the host's speed changes over seconds.
RESTART_SLICE_S = 0.25
#: The p99 needs ten samples beyond it; memory is read at this count.
MIN_QUERIES = 1000
#: The untraced window is cut into this many blocks; throughput and CPU
#: per query are the medians over the blocks, so a few slow seconds of
#: a shared host do not move them.
BLOCKS = 9
BLOCK_S = 1.0   # traced/untraced alternation in a --trace 1 run
#: The loop times the reference kernel between queries this often.
SAMPLE_EVERY_S = 0.1
#: Reported times are scaled to the host speed at which the reference
#: kernel takes this long (on the 2-vCPU shared virtual machine the
#: README's numbers come from, it took 0.84-1.44 ms); see
#: :class:`HostSpeed`.
REFERENCE_S = 0.001

#: Layers of the self-time table, in pipeline order.
LAYERS = (
    "fragmenter", "history.guard", "plancheck.analyze", "warehouse.answer",
    "dispatch", "source.answer", "source.transform", "source.rewrite",
    "source.plan", "source.execute", "statdb.laplace", "integrator",
    "control.verify", "history.record", "observatory.record_pose",
    "observatory.observe_result", "persistence.record_pose",
    "persistence.compact",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", action="append", default=[],
                        metavar="LAYER=MS")
    parser.add_argument("--report", default=None)
    return parser.parse_args(argv)


# -- instrumentation ---------------------------------------------------------


def instrument(recorder, system, layers=None):
    """Wrap every layer callable reachable on ``system``'s built objects.

    ``layers`` limits the wrappers to those layers (the untraced gate
    self-test wraps only the layer it slows).
    """
    import repro.source.server as server_module
    from repro.analysis.plancheck import REFUSE
    from repro.mediator.dispatch import FAULT_DEADLINE

    engine = system.engine
    bump = recorder.bump

    def install(owner, attribute, layer, observe=None, span=True):
        if layers is None or layer in layers:
            recorder.install(owner, attribute, layer, observe, span)

    def on_verdict(verdict, args, kwargs):
        if verdict.verdict == REFUSE:
            bump("plancheck.refused")

    def on_dispatch(result, args, kwargs):
        outcomes = result.outcomes.values()
        bump("dispatch.sources", len(result.outcomes))
        bump("dispatch.attempts", sum(o.attempts for o in outcomes))
        bump("dispatch.retries", result.total_retries)
        bump("dispatch.timeouts", sum(
            o.faults.count(FAULT_DEADLINE) for o in outcomes))
        bump("dispatch.unavailable", len(result.unavailable))

    def on_execute(table, args, kwargs):
        query, catalog = args[0], args[1]
        bump("execute.rows_scanned", len(catalog.table(query.table)))
        bump("execute.rows_out", len(table))

    def on_integrate(result, args, kwargs):
        rows, _, duplicates = result
        bump("integrator.rows_in", len(rows) + duplicates)
        bump("integrator.duplicates", duplicates)

    def on_compact(result, args, kwargs):
        bump("persistence.compactions")

    def on_append(seq, args, kwargs):
        record = args[0]
        bump("persistence.bytes", len(json.dumps(
            record, sort_keys=True, separators=(",", ":"))) + 1)

    install(engine.fragmenter, "fragment", "fragmenter")
    install(engine._sequence_guard, "check", "history.guard")
    install(engine.history, "record", "history.record")
    if engine.static_analyzer is not None:
        install(engine.static_analyzer, "analyze", "plancheck.analyze",
                on_verdict)
    install(engine.warehouse, "answer", "warehouse.answer")
    install(engine.dispatcher, "dispatch", "dispatch", on_dispatch)
    install(engine.integrator, "integrate", "integrator", on_integrate)
    install(engine.control, "verify", "control.verify")
    install(server_module, "execute", "source.execute", on_execute)
    for name in sorted(engine.sources):
        source = engine.sources[name]
        install(source, "answer", "source.answer")
        install(source.transformer, "transform", "source.transform")
        install(source.rewriter, "rewrite", "source.rewrite")
        install(source.optimizer, "plan", "source.plan")
        mechanism = source.output_mechanism
        if mechanism is not None:
            install(mechanism, "answer", "statdb.laplace")
            install(mechanism, "answer_many", "statdb.laplace")
    observatory = engine.observatory
    if observatory is not None:
        install(observatory, "record_pose", "observatory.record_pose")
        install(observatory, "observe_result", "observatory.observe_result")
    sink = engine.persistence
    if sink is not None:
        install(sink, "record_pose", "persistence.record_pose")
        install(sink, "state_provider", "persistence.compact")
        install(sink.backend, "compact", "persistence.compact", on_compact)
        install(sink.backend, "append", "persistence.append", on_append,
                span=False)


# -- the closed loop ---------------------------------------------------------


class Loop:
    """One client posing queries back to back; records every outcome."""

    def __init__(self, workload, system):
        from repro.errors import ReproError

        self.workload = workload
        self.system = system
        self.refusal = ReproError   # the program's refusals and errors
        self.latencies = []
        self.starts = []    # when each query was posed (perf_counter)
        self.cpus = []      # process CPU seconds per query, all threads
        self.log = []       # (item, result, error) per query, in order
        self.unexpected = []
        if workload.batched:
            self._batches = workload.batches()
        else:
            self._items = workload.items()

    @property
    def posed(self):
        return len(self.log)

    def restart(self, system):
        """Start the inputs over on ``system``, a fresh deployment."""
        self.system = system
        if self.workload.batched:
            self._batches = self.workload.batches()
        else:
            self._items = self.workload.items()

    def step(self, recorder=None):
        """Pose the next query (or batch); returns queries posed."""
        if self.workload.batched:
            return self._batch(recorder)
        item = next(self._items)
        requester, text, _ = item
        query_id = len(self.log)
        cpu_started = time.process_time()
        started = time.perf_counter()
        result = error = None
        try:
            if recorder is not None:
                with recorder.query(query_id):
                    result = self.system.query(text, requester=requester)
            else:
                result = self.system.query(text, requester=requester)
        except self.refusal as caught:
            error = caught
        except Exception as caught:  # noqa: BLE001 -- counted as wrong
            error = caught
            self.unexpected.append((query_id, f"{requester}: {caught!r}"))
        self.starts.append(started)
        self.latencies.append(time.perf_counter() - started)
        self.cpus.append(time.process_time() - cpu_started)
        self._record(item, result, error)
        return 1

    def _record(self, item, result, error):
        keep = self.workload.keep_results
        if keep is not None and len(self.log) >= keep:
            result = None
        self.log.append((item, result, error))

    def _batch(self, recorder):
        requester, texts = next(self._batches)
        stream = self.system.pose_stream(texts, requester=requester)
        previous_cpu = time.process_time()
        previous = time.perf_counter()
        for text in texts:
            query_id = len(self.log)
            try:
                if recorder is not None:
                    with recorder.query(query_id):
                        outcome = next(stream)
                else:
                    outcome = next(stream)
            except Exception as caught:  # noqa: BLE001 -- counted as wrong
                self.unexpected.append((query_id, f"{requester}: {caught!r}"))
                return len(texts)
            now = time.perf_counter()
            now_cpu = time.process_time()
            self.starts.append(previous)
            self.latencies.append(now - previous)
            self.cpus.append(now_cpu - previous_cpu)
            previous, previous_cpu = now, now_cpu
            self._record((requester, text, "replay"), outcome.result,
                         outcome.error)
        return len(texts)


def percentile(values, share):
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work():
    """A fixed slice of interpreter work (about 1 ms): integer
    arithmetic and branches, no allocation.  Over stretches of seconds
    its time tracks the program's CPU time per query through the host's
    speed changes (slope 1.06 on hmo4-cold, 1.10 on batch256-stream);
    a kernel that builds and sorts records over-reacted (slope 0.6-0.7),
    see ``perfbench/README.md``."""
    total = 0
    for i in range(6000):
        total += (i * 3) ^ (i >> 2)
        if total & 1:
            total -= i
    return total


class HostSpeed:
    """Scales measured times to one nominal host speed.

    On a shared host the CPU's speed changes by up to 1.7x, for seconds
    to minutes at a time (see ``perfbench/README.md``), and every time a
    run measures moves with it.  :meth:`sample` times
    :func:`reference_work` with the collector paused; the loop samples
    between queries, and set-up and restarts between builds, every
    ``SAMPLE_EVERY_S``.  :meth:`factor` is the
    mean of ``REFERENCE_S / sample`` over the samples taken in an
    interval and the one on each side of it: multiplied by it, a time
    measured in that interval is the time it would have taken at the
    nominal speed.  The program never runs the kernel, so a change to
    the program moves the scaled times in full; only the host's own
    drift cancels.  The time spent sampling is kept in ``spent_wall``
    and ``spent_cpu``, so it can be taken out of a block's time.
    """

    def __init__(self):
        self.times = []     # when each sample was taken (perf_counter)
        self.ratios = []    # REFERENCE_S / sample
        self.spent_wall = self.spent_cpu = 0.0

    def sample(self):
        """Time the kernel once warm: the first call after the program
        has run pays for caches the program left cold (about 20% more on
        this benchmark's workloads), so it only warms them, and the
        faster of the next two calls is kept."""
        enabled = gc.isenabled()
        gc.disable()
        cpu_started = time.process_time()
        started = time.perf_counter()
        reference_work()
        best = math.inf
        for _ in range(2):
            call_started = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - call_started)
        ended = time.perf_counter()
        self.spent_cpu += time.process_time() - cpu_started
        if enabled:
            gc.enable()
        self.spent_wall += ended - started
        self.times.append(ended)
        self.ratios.append(REFERENCE_S / best)

    def due(self):
        """Sample if ``SAMPLE_EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start, end):
        """The mean ratio over ``[start, end]`` and one sample each side."""
        first = max(0, bisect.bisect_left(self.times, start) - 1)
        last = bisect.bisect_right(self.times, end) + 1
        return statistics.fmean(self.ratios[first:last])

    def nominal(self, start, wall, cpu):
        """``wall`` seconds from ``start``, of which ``cpu`` were CPU time,
        at the nominal speed: the CPU time is scaled, waiting (sleeps,
        timers, I/O) is not."""
        return max(0.0, wall - cpu) + cpu * self.factor(start, start + wall)

    def reference_ms(self):
        """The median reference time over the run, in ms."""
        return REFERENCE_S * 1000.0 / statistics.median(self.ratios)


def timed_repeats(action, settle, seconds, repeats, host):
    """Time ``action()`` at least ``repeats`` times and for at least
    ``seconds`` in total; returns ``(as measured, at nominal speed)``
    seconds per call (see :meth:`HostSpeed.nominal`).

    ``settle(result)`` runs untimed after each call.  The collector is
    paused during a call and runs between calls.  Whatever lived before
    the first call (the deployment, the run's log) is frozen out of it,
    so a collection scans only what the calls left behind.
    """
    gc.collect()
    gc.freeze()
    spans = []    # (start, wall s, CPU s) per call
    try:
        host.sample()
        while len(spans) < repeats or sum(
                wall for _, wall, _ in spans) < seconds:
            gc.disable()
            cpu_started = time.process_time()
            started = time.perf_counter()
            result = action()
            spans.append((started, time.perf_counter() - started,
                          time.process_time() - cpu_started))
            gc.enable()
            settle(result)
            gc.collect()
            host.due()
        host.sample()
    finally:
        gc.enable()
        gc.unfreeze()
    return [(wall, host.nominal(started, wall, cpu))
            for started, wall, cpu in spans]


def setup(workload, host):
    """Build the deployment repeatedly; keep the last one.

    Returns the system and ``(as measured, at nominal speed)`` seconds
    per build."""
    kept = []

    def settle(system):
        if kept:
            workload.close(kept.pop())
        kept.append(system)

    times = timed_repeats(workload.build, settle, MIN_REPEAT_S, MIN_REPEATS,
                          host)
    return kept[0], times


class Restarts:
    """Times restarting the deployment, a slice at a time;
    ``times`` holds ``(as measured, at nominal speed)`` per restart.

    A durable workload rebuilds on the WAL kept at its mark and
    ``recover()``s, and each recovery is checked; the others hold no
    durable state, so a restart is a rebuild.
    """

    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.causes = []

    def _settle(self, restarted):
        rebuilt, report = restarted
        if report is not None:
            self.causes.extend(self.workload.check_recovery(rebuilt, report))
        self.workload.close(rebuilt)

    def slice(self, host, seconds, repeats=1):
        """Time restarts for ``seconds`` (at least ``repeats`` of them)."""
        self.times += timed_repeats(self.workload.restart, self._settle,
                                    seconds, repeats, host)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, system, seconds, setup, host, prepare=None):
    """The untraced run: latency, throughput, CPU, errors, restart.

    ``setup`` is the set-up times from :func:`setup`; ``prepare(system)``,
    if given, runs on ``system`` and on every deployment an episode
    starts on (the gate self-test installs its delay there).  Returns the
    loop, the metrics at the nominal host speed, the same metrics as
    measured (for the report), and the failure causes.
    """
    if prepare is not None:
        prepare(system)
    loop = Loop(workload, system)
    restarts = Restarts(workload)
    gc.collect()
    gc.freeze()   # the deployment itself is not the loop's garbage
    block_s = seconds / BLOCKS
    # A workload whose per-query cost grows with the state it has built
    # up is measured in episodes of a fixed query count, each on a fresh
    # deployment, so a faster host does not build up more state.
    episode = workload.episode_queries
    blocks = []   # (queries, wall s, CPU s, host factor) per block
    rss = None
    started = time.perf_counter()
    deadline = started + seconds
    # A slow host stretches the window (up to twice) until MIN_QUERIES
    # are posed, so the p99 always has ten samples beyond it.
    while time.perf_counter() < deadline or (
            loop.posed < MIN_QUERIES
            and time.perf_counter() < deadline + seconds):
        host.sample()
        spent = host.spent_wall, host.spent_cpu
        block_started = time.perf_counter()
        cpu_started = time.process_time()
        block_end = block_started + block_s
        n = 0
        while (n < episode if episode else
               time.perf_counter() < block_end):
            n += loop.step()
            host.due()
            if rss is None and loop.posed >= MIN_QUERIES:
                # Memory and the durable state are taken at a fixed
                # query count, not at the end of a window fixed in
                # seconds, so a faster program does not read as a
                # bigger one or as a slower restart.
                rss = peak_rss_mb()
                workload.mark(loop.system)
        block_ended = time.perf_counter()
        host.sample()
        # The samples taken inside the block are not the program's time.
        wall = block_ended - block_started - (host.spent_wall - spent[0])
        cpu = time.process_time() - cpu_started - (host.spent_cpu - spent[1])
        blocks.append((n, wall, cpu,
                       host.factor(block_started, block_ended)))
        if rss is not None or not workload.durable:
            restarts.slice(host, RESTART_SLICE_S)
        if episode:
            workload.close(loop.system)
            fresh = workload.build()
            if prepare is not None:
                prepare(fresh)
            loop.restart(fresh)
        gc.freeze()
        # Restarts and rebuilds do not eat into the queries' window.
        deadline += time.perf_counter() - block_ended
    gc.unfreeze()
    if rss is None:
        rss = peak_rss_mb()
        workload.mark(loop.system)
    causes = loop.unexpected + workload.check(loop.log)
    restarts.slice(host, 0.0, MIN_REPEATS - len(restarts.times))
    workload.close(loop.system)
    n = loop.posed
    latencies = list(zip(loop.latencies, (
        host.nominal(start, latency, cpu) for start, latency, cpu in zip(
            loop.starts, loop.latencies, loop.cpus))))

    def metrics(at):
        """The metrics from the times as measured (``at=0``) or at the
        nominal speed (``at=1``)."""
        ms = [pair[at] * 1000.0 for pair in latencies]
        return {
            "pose_p50_ms": metric(statistics.median(ms), "ms"),
            "pose_p99_ms": metric(percentile(ms, 0.99), "ms"),
            "throughput_qps": metric(statistics.median(
                posed / (wall, max(0.0, wall - cpu) + cpu * factor)[at]
                for posed, wall, cpu, factor in blocks), "1/s"),
            "cpu_ms_per_query": metric(statistics.median(
                cpu * 1000.0 / posed * (1.0, factor)[at]
                for posed, wall, cpu, factor in blocks), "ms"),
            "ok_frac": metric(1.0 - failed_queries(causes) / n, "ratio"),
            "recovery_s": metric(statistics.median(
                pair[at] for pair in restarts.times), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(statistics.median(
                pair[at] for pair in setup), "s"),
        }

    measured = metrics(0)
    measured["blocks"] = blocks
    measured["restarts"] = restarts.times
    return (loop, metrics(1), measured,
            causes + [(None, cause) for cause in restarts.causes])


def failed_queries(causes):
    """Distinct failing queries (one query can fail more than one check)."""
    return len({index for index, _ in causes if index is not None})


def traced(workload, system, seconds, recorder):
    """The traced run: count phase, then alternating untraced/traced blocks."""
    from spans import layer_table

    loop = Loop(workload, system)
    started = time.perf_counter()
    deadline = started + seconds
    gc.collect()

    # Count phase: a fixed number of queries, so every count repeats
    # exactly for a given seed on the single-client workloads.
    before = cache_counts(system)
    instrument(recorder, system)
    while loop.posed < workload.count_queries:
        loop.step(recorder)
    recorder.uninstall()
    after = cache_counts(system)
    counts = dict(recorder.counts)
    counted = loop.posed
    history_entries = len(system.history())

    # Overhead blocks: the same deployment with and without wrappers.
    cpu = {False: 0.0, True: 0.0}
    posed = {False: 0, True: 0}
    traced_block = False
    while time.perf_counter() < deadline or not (posed[False]
                                                 and posed[True]):
        if traced_block:
            instrument(recorder, system)
        block_end = time.perf_counter() + BLOCK_S
        cpu_started = time.process_time()
        n = 0
        while time.perf_counter() < block_end:
            n += loop.step(recorder if traced_block else None)
        cpu[traced_block] += time.process_time() - cpu_started
        posed[traced_block] += n
        if traced_block:
            recorder.uninstall()
        traced_block = not traced_block

    causes = loop.unexpected + workload.check(loop.log)
    self_s, traced_s, n_traced = layer_table(recorder.spans)
    per_query = {False: cpu[False] / posed[False],
                 True: cpu[True] / posed[True]}
    metrics = layer_metrics(recorder.spans, self_s, traced_s, n_traced,
                            counts, before, after, counted, history_entries)
    metrics["trace.overhead_frac"] = metric(
        per_query[True] / per_query[False] - 1.0, "ratio")
    return loop, metrics, causes, self_s, traced_s, n_traced


def cache_counts(system):
    stats = system.cache_stats()
    return {tier: dict(stats[tier]) for tier in
            ("plan", "static", "rewrite", "answer") if tier in stats}


def layer_metrics(spans, self_s, traced_s, n_traced, counts, before, after,
                  n_counted, history_entries):
    """Every per-layer metric: self times per traced query, counts per
    counted query."""
    from spans import child_spans, spans_named

    def per_traced_ms(seconds):
        return metric(seconds * 1000.0 / n_traced, "ms")

    def per_counted(key, unit="count"):
        return metric(counts.get(key, 0) / n_counted, unit)

    def share(part, whole):
        return metric(part / whole if whole else 0.0, "ratio")

    out = {f"{layer}.self_ms": per_traced_ms(self_s.get(layer, 0.0))
           for layer in LAYERS}
    for tier in ("plan", "static", "rewrite", "answer"):
        hits = after.get(tier, {}).get("hits", 0) - before.get(
            tier, {}).get("hits", 0)
        misses = after.get(tier, {}).get("misses", 0) - before.get(
            tier, {}).get("misses", 0)
        out[f"cache.{tier}.hit_ratio"] = share(hits, hits + misses)
    out["cache.answer.invalidations"] = metric(
        after.get("answer", {}).get("invalidations", 0)
        - before.get("answer", {}).get("invalidations", 0), "count")
    out["history.entries"] = metric(history_entries, "count")
    out["fragmenter.calls_per_query"] = per_counted("fragmenter.calls")
    analyzed = counts.get("plancheck.analyze.calls", 0)
    out["plancheck.analyze.calls_per_query"] = per_counted(
        "plancheck.analyze.calls")
    out["plancheck.refuse_frac"] = share(counts.get("plancheck.refused", 0),
                                         analyzed)
    sources = counts.get("dispatch.sources", 0)
    out["dispatch.attempts_per_source"] = metric(
        counts.get("dispatch.attempts", 0) / sources if sources else 0.0,
        "count")
    out["dispatch.retries_per_query"] = per_counted("dispatch.retries")
    out["dispatch.timeouts_per_query"] = per_counted("dispatch.timeouts")
    out["dispatch.unavailable_frac"] = share(
        counts.get("dispatch.unavailable", 0), sources)
    waits = []
    answers = child_spans(spans, "dispatch", "source.answer")
    for dispatch in spans_named(spans, "dispatch"):
        kids = answers.get(dispatch[0], ())
        slowest = max((kid[3] - kid[2] for kid in kids), default=0.0)
        waits.append(max(0.0, (dispatch[3] - dispatch[2]) - slowest))
    out["dispatch.wait_ms"] = per_traced_ms(sum(waits))
    attempts = (counts.get("source.answer.calls", 0)
                + counts.get("source.answer.raised", 0))
    # Injected transport faults are not refusals: only policy answers count.
    refused = (counts.get("source.answer.raised", 0)
               - counts.get("source.answer.raised.TransientSourceError", 0))
    out["source.answer.calls_per_query"] = metric(attempts / n_counted,
                                                  "count")
    out["source.refused_frac"] = share(refused, attempts)
    out["source.execute.rows_scanned_per_row_out"] = metric(
        counts.get("execute.rows_scanned", 0)
        / max(1, counts.get("execute.rows_out", 0)), "ratio")
    out["integrator.rows_in_per_query"] = per_counted("integrator.rows_in")
    out["integrator.duplicates_removed_frac"] = share(
        counts.get("integrator.duplicates", 0),
        counts.get("integrator.rows_in", 0))
    out["batch.source_answers_per_query"] = dict(
        out["source.answer.calls_per_query"])
    out["batch.executes_per_query"] = per_counted("source.execute.calls")
    out["batch.integrations_per_query"] = per_counted("integrator.calls")
    records = counts.get("persistence.record_pose.calls", 0)
    out["persistence.bytes_per_pose"] = metric(
        counts.get("persistence.bytes", 0) / records if records else 0.0,
        "B")
    out["persistence.compactions"] = metric(
        counts.get("persistence.compactions", 0), "count")
    out["trace.traced_ms"] = per_traced_ms(traced_s)
    out["trace.unattributed_ms"] = per_traced_ms(self_s.get("query", 0.0))
    return out


# -- entry point ---------------------------------------------------------------


def pin_to_one_cpu():
    """Run the whole process on one CPU, the highest-numbered one.

    The program is bound by the interpreter lock, so a second CPU buys
    its fan-out threads nothing but lock hand-offs between CPUs.  On a
    2-vCPU shared host those hand-offs made the fan-out workloads both
    slower and noisier from run to run; CPU 0, which takes most device
    interrupts, gave slower set-up and restart times than CPU 1 (see
    ``perfbench/README.md``).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    source_root = CHECKOUT / "src"
    if not (source_root / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {source_root}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source_root))
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    delays = {}
    for entry in args.inject:
        layer, _, ms = entry.partition("=")
        delays[layer] = float(ms) / 1000.0

    workdir = CHECKOUT / ".perfbench_tmp" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        host = HostSpeed()
        system, setup_times = setup(workload, host)
        report = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            recorder = Recorder(delay_s=delays)
            loop, metrics, causes, self_s, traced_s, n_traced = traced(
                workload, system, args.seconds, recorder)
            report["layers_ms"] = {
                layer: self_s.get(layer, 0.0) * 1000.0 / n_traced
                for layer in LAYERS + ("query",)
            }
            print_layer_table(report["layers_ms"], traced_s * 1000.0
                              / n_traced, n_traced)
            workload.close(system)
        else:
            prepare = None
            if delays:
                slowed = Recorder(delay_s=delays)

                def prepare(deployment):
                    instrument(slowed, deployment, layers=delays)

            loop, metrics, measured, causes = end_to_end(
                workload, system, args.seconds, setup_times, host, prepare)
            report["queries"] = loop.posed
            report["error_frac"] = 1.0 - metrics["ok_frac"]["value"]
            report["measured"] = measured
            report["reference_ms"] = host.reference_ms()
            print_end_to_end(args.workload, metrics, measured, loop.posed,
                             host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for _, cause in causes[:20]:
        print(f"error: {cause}")
    report["metrics"] = metrics
    report["causes"] = [cause for _, cause in causes]
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2,
                                                sort_keys=True))
    print(json.dumps({
        "correct": not causes,
        "attempted": loop.posed,
        "failed": failed_queries(causes),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


def print_end_to_end(name, metrics, measured, posed, host):
    print(f"{name}: {posed} queries (closed loop, 1 client)")
    print(f"  reference kernel {host.reference_ms():.4f} ms (median of "
          f"{len(host.ratios)} samples; nominal {REFERENCE_S * 1000.0:.4f} ms)")
    print(f"  {'metric':<18} {'nominal speed':>14} {'as measured':>14}")
    for key in ("pose_p50_ms", "pose_p99_ms", "throughput_qps",
                "cpu_ms_per_query", "ok_frac", "setup_s", "recovery_s",
                "peak_rss_mb"):
        entry = metrics[key]
        print(f"  {key:<18} {entry['value']:14.4f} "
              f"{measured[key]['value']:14.4f} {entry['unit']}")
    print(f"  {'error_frac':<18} {1.0 - metrics['ok_frac']['value']:12.4f}"
          f" ratio")


def print_layer_table(layers_ms, traced_ms, n_traced):
    print(f"self time per traced query ({n_traced} traced queries)")
    for layer, ms in layers_ms.items():
        label = "unattributed" if layer == "query" else layer
        print(f"  {label:<28} {ms:9.4f} ms")
    print(f"  {'= traced query time':<28} {traced_ms:9.4f} ms")


if __name__ == "__main__":
    sys.exit(main())
