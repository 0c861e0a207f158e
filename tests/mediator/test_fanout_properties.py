"""Executor differential: in-line and threaded attempts settle alike.

The dispatcher is one state machine with two executors: an attempt runs
in-line on the posing thread or on the dispatch's worker pool, chosen
per source by whether the source can block.  Which executor ran must be
*unobservable*: the integrated result (rows, per-source losses, the
aggregated loss checked against MAXLOSS, refusal accounting) and the
dispatch record (attempts, retries, faults, breaker transitions,
refusal messages) have to be byte-identical.  Each property builds the
same seeded deployment, data and fault schedules once per executor,
forcing ``FlakySource.can_block`` either way; the same seed always
replays the same run.  No deadline is set: a deadline preempts only
threaded attempts, so it is the one knob that may tell them apart.
"""

import json
import random
import threading

import pytest

from repro.errors import ReproError
from repro.mediator.dispatch import DispatchPolicy
from repro.testing import FaultSchedule, FlakySource, build_flaky_system

SEEDS = [11, 23, 47]
EXECUTORS = ("inline", "threaded")
QUERY = "SELECT //patient/age PURPOSE research"
AGGREGATE = "SELECT AVG(//patient/visits) AS load PURPOSE research"


def result_bytes(result):
    """Canonical byte serialization of an IntegratedResult."""
    return json.dumps(
        {
            "rows": result.rows,
            "per_source_loss": result.per_source_loss,
            "aggregated_loss": result.aggregated_loss,
            "duplicates_removed": result.duplicates_removed,
            "refused": {
                s: (r.kind, r.reason)
                for s, r in sorted(result.refused_sources.items())
            },
        },
        sort_keys=True, default=str,
    ).encode()


def normalize_timing(value):
    """Timing fields and trace ids vary run to run; nothing else may."""
    if isinstance(value, dict):
        return {
            key: (None
                  if key in ("wall_ms", "duration_ms", "analysis_ms", "ts",
                             "trace_id")
                  else normalize_timing(item))
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [normalize_timing(item) for item in value]
    return value


class Run:
    """Everything one executor's run shows: answers, ledgers, events."""

    def __init__(self, system, flaky, results, transcript, threads):
        self.results = results
        self.transcript = transcript
        self.ledgers = [
            json.dumps(normalize_timing(report.to_dict()), sort_keys=True)
            for report in system.telemetry.explain.reports()
        ]
        self.transitions = [
            dict(event.attributes)
            for event in system.telemetry.events.events(
                "dispatch.breaker_transition")
        ]
        self.calls = {name: source.calls for name, source in flaky.items()}
        self.threads = threads
        self.retries = sum(
            outcome["retries"]
            for report in system.telemetry.explain.reports()
            for outcome in report.sources.values()
            if "retries" in outcome
        )

    def observable(self):
        return (self.transcript, self.ledgers, self.transitions, self.calls)


@pytest.fixture()
def run(monkeypatch):
    """``run(executor, seed, texts, policy, schedule_for)`` → :class:`Run`."""
    threads = []
    answer = FlakySource.answer

    def recording_answer(self, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return answer(self, *args, **kwargs)

    monkeypatch.setattr(FlakySource, "answer", recording_answer)

    def go(executor, seed, texts, policy=None, schedule_for=None,
           n_sources=5):
        monkeypatch.setattr(FlakySource, "can_block", executor == "threaded")
        del threads[:]
        system, flaky = build_flaky_system(
            n_sources, seed=seed, schedule_for=schedule_for, telemetry=True,
            dispatch=policy or DispatchPolicy(),
        )
        results, transcript = [], []
        for text in texts:
            try:
                result = system.query(text, requester="prop")
            except ReproError as error:
                results.append(None)
                transcript.append((type(error).__name__, str(error)))
            else:
                results.append(result)
                transcript.append(("answered", result_bytes(result)))
        if executor == "inline":
            assert set(threads) <= {threading.current_thread().name}
        else:
            assert all(name.startswith("repro-fanout") for name in threads)
        return Run(system, flaky, results, transcript, list(threads))

    return go


def both(run, *args, **kwargs):
    """The in-line and the threaded run of one scenario."""
    return [run(executor, *args, **kwargs) for executor in EXECUTORS]


class TestZeroFaultEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_concurrent_equals_sequential_byte_for_byte(self, run, seed):
        # mode="sequential" runs every source in-line; the concurrent
        # policy runs these (forced blocking) sources on the pool
        sequential = run("inline", seed, [QUERY],
                         DispatchPolicy(mode="sequential"))
        concurrent = run("threaded", seed, [QUERY])
        assert concurrent.transcript == sequential.transcript
        assert concurrent.calls == sequential.calls
        assert sequential.threads and concurrent.threads

    @pytest.mark.parametrize("seed", SEEDS)
    def test_aggregates_equal_across_modes(self, run, seed):
        inline, threaded = both(run, seed, [QUERY, AGGREGATE])
        assert threaded.observable() == inline.observable()
        assert all(status == "answered" for status, _ in inline.transcript)

    def test_scrambled_completion_order_is_unobservable(self, run):
        # Seeded random per-source delays scramble completion order on
        # the pool; in-line, the same delays run one after another.
        def delays(name, index):
            rng = random.Random(1000 + index)
            return FaultSchedule([("delay", rng.uniform(0.0, 0.03))])

        baseline = run("inline", 3, [QUERY])
        inline, threaded = both(run, 3, [QUERY], schedule_for=delays)
        assert threaded.observable() == inline.observable()
        # and the delays themselves leave the answer unchanged
        assert inline.transcript == baseline.transcript


class TestSeededTransients:
    """Retries, breaker transitions and refusal messages agree."""

    @staticmethod
    def _texts():
        texts = []
        for low in range(20, 80, 5):
            texts.append(f"SELECT //patient/age WHERE //patient/age >= {low} "
                         f"PURPOSE research")
            texts.append(f"SELECT AVG(//patient/visits) AS v "
                         f"WHERE //patient/age >= {low} PURPOSE research")
        return texts

    @staticmethod
    def _schedule(seed):
        def schedule_for(name, index):
            return FaultSchedule.seeded(
                seed * 100 + index, calls=200, transient_rate=0.45,
                refuse_rate=0.05,
            )
        return schedule_for

    @pytest.mark.parametrize("seed", SEEDS)
    def test_transcripts_ledgers_and_breakers_match(self, run, seed):
        # threshold 2 and a cooldown longer than the test: a source
        # trips after two consecutive faults and then fails fast, so the
        # breaker history depends on the schedules alone, never on time
        policy = DispatchPolicy(retries=1, backoff_base_s=0.001,
                                breaker_threshold=2, breaker_cooldown_s=600.0,
                                partial="best_effort")
        inline, threaded = both(run, seed, self._texts(), policy,
                                self._schedule(seed))
        assert threaded.observable() == inline.observable()
        # the scenario exercises what it compares
        assert inline.retries > 0
        assert any(t["state"] == "open" for t in inline.transitions)
        assert any(status == "answered" for status, _ in inline.transcript)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_require_all_refusal_messages_match(self, run, seed):
        policy = DispatchPolicy(retries=2, backoff_base_s=0.001)
        inline, threaded = both(run, seed, self._texts()[:6], policy,
                                self._schedule(seed))
        assert threaded.observable() == inline.observable()
        assert any(status == "SourceUnavailable"
                   for status, _ in inline.transcript)


class TestRefusalsAreFinal:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_refused_sources_called_exactly_once(self, run, seed):
        rng = random.Random(seed)
        refusers = {f"src{i:02d}" for i in rng.sample(range(5), 2)}

        def schedule_for(name, index):
            if name in refusers:
                return FaultSchedule.always(("refuse",), 5)
            return None

        inline, threaded = both(run, seed, [QUERY],
                                DispatchPolicy(retries=3), schedule_for)
        assert threaded.observable() == inline.observable()
        result = inline.results[0]
        for name in inline.calls:
            if name in refusers:
                # a PrivacyViolation is a final answer: one call, no retry
                assert inline.calls[name] == 1, name
                assert result.refused_sources[name].kind == "PrivacyViolation"
            else:
                assert name in result.per_source_loss
        assert {r["_source"] for r in result.rows}.isdisjoint(refusers)


class TestLossEnforcementOrderIndependent:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_aggregated_loss_identical_under_retries_and_delays(self, run,
                                                                seed):
        rng = random.Random(seed * 7)
        draws = []
        for _ in range(5):
            events = []
            if rng.random() < 0.5:
                events.append(("transient",))
            events.append(("delay", rng.uniform(0.0, 0.02)))
            draws.append(events)

        def noisy(name, index):
            return FaultSchedule(draws[index])

        policy = DispatchPolicy(retries=2, backoff_base_s=0.005)
        baseline = run("inline", seed, [QUERY])
        inline, threaded = both(run, seed, [QUERY], policy, noisy)
        assert threaded.observable() == inline.observable()
        assert inline.transcript == baseline.transcript

    @pytest.mark.parametrize("seed", SEEDS)
    def test_maxloss_violation_identical_across_modes(self, run, seed):
        inline, threaded = both(run, seed, [QUERY + " MAXLOSS 0.001"])
        assert threaded.observable() == inline.observable()
        assert inline.transcript[0][0] == "PrivacyViolation"
