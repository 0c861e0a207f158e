"""Fault-injection tests for the concurrent fan-out dispatcher.

Drives :class:`~repro.mediator.dispatch.FanoutDispatcher` — standalone
and through a full ``pose()`` — with scripted
:class:`~repro.testing.FaultSchedule` events: timeouts, transient
errors, hangs, refusals, and circuit-breaker lifecycles.
"""

import itertools
import threading
import time

import pytest

from repro.errors import (
    PrivacyViolation,
    SourceUnavailable,
    TransientSourceError,
)
from repro.mediator.dispatch import (
    FAULT_BREAKER,
    FAULT_DEADLINE,
    FAULT_TRANSIENT,
    CircuitBreaker,
    DispatchPolicy,
    FanoutDispatcher,
)
from repro.testing import FaultSchedule, FlakySource, build_flaky_system

QUERY = "SELECT //patient/age PURPOSE research"


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreakerLifecycle:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown_s=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 1
        assert breaker.acquire() is None  # failing fast

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0,
                                 clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(5.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.acquire() == "probe"
        # the probe slot is exclusive: concurrent callers fail fast
        assert breaker.acquire() is None
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.acquire() == CircuitBreaker.CLOSED

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.acquire() == "probe"
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(4.9)
        assert breaker.acquire() is None  # cooldown restarted at probe
        clock.advance(0.2)
        assert breaker.acquire() == "probe"


def scripted_dispatcher(policy, scripts):
    """A dispatcher plus a ``call`` that replays ``scripts[name]``.

    Each script entry is ``"ok"``, ``"transient"``, or ``"refuse"``;
    exhausted scripts answer ``ok``.  Returns (dispatcher, call, calls).
    """
    iterators = {
        name: itertools.chain(script, itertools.repeat("ok"))
        for name, script in scripts.items()
    }
    calls = {name: 0 for name in scripts}

    def call(name):
        calls[name] += 1
        event = next(iterators[name])
        if event == "transient":
            raise TransientSourceError(f"{name}: scripted transient")
        if event == "refuse":
            raise PrivacyViolation(f"{name}: scripted refusal")
        return f"answer-from-{name}"

    return FanoutDispatcher(policy), call, calls


class TestRetries:
    @pytest.mark.parametrize("mode", ["sequential", "concurrent"])
    def test_retry_then_succeed(self, mode):
        policy = DispatchPolicy(mode=mode, retries=2, backoff_base_s=0.001)
        dispatcher, call, calls = scripted_dispatcher(
            policy, {"a": ["transient", "transient"], "b": []}
        )
        result = dispatcher.dispatch(["a", "b"], call)
        assert result.responses == {"a": "answer-from-a",
                                    "b": "answer-from-b"}
        outcome = result.outcomes["a"]
        assert outcome.attempts == 3 and outcome.retries == 2
        assert outcome.faults == [FAULT_TRANSIENT, FAULT_TRANSIENT]
        assert calls == {"a": 3, "b": 1}

    @pytest.mark.parametrize("mode", ["sequential", "concurrent"])
    def test_transients_exhaust_into_unavailable(self, mode):
        policy = DispatchPolicy(mode=mode, retries=1, backoff_base_s=0.001,
                                partial="best_effort")
        dispatcher, call, calls = scripted_dispatcher(
            policy, {"a": ["transient", "transient"], "b": []}
        )
        result = dispatcher.dispatch(["a", "b"], call)
        assert "a" in result.unavailable
        assert result.unavailable["a"].kind == FAULT_TRANSIENT
        assert result.outcomes["a"].attempts == 2
        assert calls["a"] == 2

    @pytest.mark.parametrize("mode", ["sequential", "concurrent"])
    def test_refusals_are_never_retried(self, mode):
        policy = DispatchPolicy(mode=mode, retries=5)
        dispatcher, call, calls = scripted_dispatcher(
            policy, {"a": ["refuse"], "b": []}
        )
        result = dispatcher.dispatch(["a", "b"], call)
        assert result.refused["a"].kind == "PrivacyViolation"
        assert result.outcomes["a"].attempts == 1
        assert calls["a"] == 1


class TestPartialPolicies:
    def _scripts(self):
        return {"a": ["transient", "transient"], "b": [], "c": []}

    def _policy(self, partial):
        return DispatchPolicy(mode="concurrent", retries=1,
                              backoff_base_s=0.001, partial=partial)

    def test_require_all_raises_source_unavailable(self):
        dispatcher, call, _ = scripted_dispatcher(
            self._policy("require_all"), self._scripts()
        )
        with pytest.raises(SourceUnavailable, match="require_all"):
            dispatcher.dispatch(["a", "b", "c"], call)

    def test_quorum_met_tolerates_a_lost_source(self):
        dispatcher, call, _ = scripted_dispatcher(
            self._policy(("quorum", 2)), self._scripts()
        )
        result = dispatcher.dispatch(["a", "b", "c"], call)
        assert sorted(result.responses) == ["b", "c"]

    def test_quorum_unmet_raises(self):
        dispatcher, call, _ = scripted_dispatcher(
            self._policy(("quorum", 3)), self._scripts()
        )
        with pytest.raises(SourceUnavailable, match="quorum"):
            dispatcher.dispatch(["a", "b", "c"], call)

    def test_best_effort_never_raises(self):
        dispatcher, call, _ = scripted_dispatcher(
            self._policy("best_effort"), self._scripts()
        )
        result = dispatcher.dispatch(["a", "b", "c"], call)
        assert sorted(result.responses) == ["b", "c"]
        assert sorted(result.unavailable) == ["a"]


class TestBreakerThroughDispatcher:
    def test_open_breaker_fails_fast_then_probe_recovers(self):
        clock = FakeClock()
        policy = DispatchPolicy(mode="sequential", retries=0,
                                breaker_threshold=2, breaker_cooldown_s=30.0,
                                partial="best_effort")
        scripts = {"a": ["transient", "transient", "ok", "ok"]}
        iterators = {
            name: itertools.chain(script, itertools.repeat("ok"))
            for name, script in scripts.items()
        }
        calls = {"a": 0}

        def call(name):
            calls[name] += 1
            if next(iterators[name]) == "transient":
                raise TransientSourceError("boom")
            return "answer"

        dispatcher = FanoutDispatcher(policy, clock=clock)
        dispatcher.dispatch(["a"], call)          # failure 1
        dispatcher.dispatch(["a"], call)          # failure 2 → opens
        assert dispatcher.breaker("a").state == CircuitBreaker.OPEN

        result = dispatcher.dispatch(["a"], call)  # fails fast, no call
        assert calls["a"] == 2
        assert result.unavailable["a"].kind == FAULT_BREAKER
        assert result.outcomes["a"].faults == [FAULT_BREAKER]

        clock.advance(30.0)                        # cooldown elapses
        result = dispatcher.dispatch(["a"], call)  # half-open probe → ok
        assert calls["a"] == 3
        assert result.responses["a"] == "answer"
        assert dispatcher.breaker("a").state == CircuitBreaker.CLOSED

    def test_failed_probe_goes_straight_back_to_open(self):
        clock = FakeClock()
        policy = DispatchPolicy(mode="sequential", retries=3,
                                breaker_threshold=1, breaker_cooldown_s=10.0,
                                partial="best_effort")
        calls = {"a": 0}

        def call(name):
            calls[name] += 1
            raise TransientSourceError("always down")

        dispatcher = FanoutDispatcher(policy, clock=clock)
        dispatcher.dispatch(["a"], call)           # opens on first failure
        assert dispatcher.breaker("a").state == CircuitBreaker.OPEN
        clock.advance(10.0)
        result = dispatcher.dispatch(["a"], call)  # probe fails → open
        # a failed half-open probe is never retried, even with retries=3
        assert result.outcomes["a"].attempts == 1
        assert dispatcher.breaker("a").state == CircuitBreaker.OPEN


class TestTimeouts:
    def test_timeout_becomes_unavailable_with_deadline_kind(self):
        system, flaky = build_flaky_system(
            3,
            schedule_for=lambda name, i: (
                FaultSchedule([("hang", 0.4)]) if i == 0 else None
            ),
            dispatch=DispatchPolicy(
                mode="concurrent", timeout_s=0.05, retries=0,
                partial="best_effort",
            ),
            telemetry=True,
        )
        result = system.query(QUERY, requester="ops")
        assert sorted(result.per_source_loss) == ["src01", "src02"]
        assert result.refused_sources["src00"].kind == FAULT_DEADLINE

        report = system.explain_last()
        assert report.unavailable_sources() == ["src00"]
        outcome = report.sources["src00"]
        assert outcome["outcome"] == "unavailable"
        assert outcome["faults"] == [FAULT_DEADLINE]
        assert outcome["attempts"] == 1
        counters = system.metrics_snapshot()["counters"]
        assert counters["mediator.fanout.timeouts"] == 1
        assert counters["mediator.fanout.unavailable"] == 1

    def test_quorum_satisfied_despite_one_hung_source(self):
        system, flaky = build_flaky_system(
            3,
            schedule_for=lambda name, i: (
                FaultSchedule([("hang", 0.8)]) if i == 2 else None
            ),
            # deadline far above healthy-source latency (load tolerance)
            # but well under the hang, so src02 alone can miss it
            dispatch=DispatchPolicy(
                mode="concurrent", timeout_s=0.2, retries=0,
                partial=("quorum", 2),
            ),
        )
        result = system.query(QUERY, requester="ops")
        assert sorted(result.per_source_loss) == ["src00", "src01"]
        # the pose returns without waiting for the hang to drain
        assert result.refused_sources["src02"].kind == FAULT_DEADLINE

    def test_all_sources_unreachable_raises_source_unavailable(self):
        system, _ = build_flaky_system(
            2,
            schedule_for=lambda name, i: FaultSchedule.always(
                ("transient",), 4
            ),
            dispatch=DispatchPolicy(
                mode="concurrent", retries=1, backoff_base_s=0.001,
                partial="best_effort",
            ),
            telemetry=True,
        )
        with pytest.raises(SourceUnavailable, match="could be reached"):
            system.query(QUERY, requester="ops")
        report = system.explain_last()
        assert report.status == "refused"
        assert report.refusal["kind"] == "SourceUnavailable"
        # ledger still carries the per-source fault accounting
        assert report.unavailable_sources() == ["src00", "src01"]


class TestExplainWallClock:
    def test_source_outcomes_record_where_time_went(self):
        system, _ = build_flaky_system(
            3,
            schedule_for=lambda name, i: (
                FaultSchedule([("delay", 0.08)]) if i == 1 else None
            ),
            telemetry=True,
        )
        system.query(QUERY, requester="epi")
        report = system.explain_last()
        walls = report.source_wall_ms()
        assert sorted(walls) == ["src00", "src01", "src02"]
        assert walls["src01"] >= 80.0
        assert max(walls, key=walls.get) == "src01"
        for outcome in report.sources.values():
            assert outcome["attempts"] == 1
            assert outcome["retries"] == 0
            assert outcome["breaker_state"] == CircuitBreaker.CLOSED
        assert report.dispatch["mode"] == "concurrent"
        # concurrent fan-out: total wall tracks the slowest source, not
        # the sum of all three
        assert report.dispatch["wall_ms"] < sum(walls.values())

    def test_retry_accounting_lands_in_ledger_and_metrics(self):
        system, flaky = build_flaky_system(
            2,
            schedule_for=lambda name, i: (
                FaultSchedule([("transient",)]) if i == 0 else None
            ),
            dispatch=DispatchPolicy(
                mode="concurrent", retries=2, backoff_base_s=0.001
            ),
            telemetry=True,
        )
        system.query(QUERY, requester="epi")
        outcome = system.explain_last().sources["src00"]
        assert outcome["outcome"] == "answered"
        assert outcome["attempts"] == 2
        assert outcome["retries"] == 1
        assert outcome["faults"] == [FAULT_TRANSIENT]
        counters = system.metrics_snapshot()["counters"]
        assert counters["mediator.fanout.retries"] == 1
        assert counters["mediator.fanout.transients"] == 1



def _join_all(threads, timeout=5.0):
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return [t for t in threads if t.is_alive()]


class TestWorkerThreads:
    """Each dispatch's workers, including abandoned ones, drain away."""

    @staticmethod
    def _recording_call(workers, hang=None, release=None):
        def call(name):
            workers.add(threading.current_thread())
            if name == hang:
                release.wait(5.0)
            return name
        return call

    def test_many_concurrent_dispatches_leave_no_threads_behind(self):
        dispatcher = FanoutDispatcher(DispatchPolicy())
        workers = set()
        call = self._recording_call(workers)
        names = [f"s{i}" for i in range(8)]
        results = []

        def caller():
            for _ in range(25):
                results.append(dispatcher.dispatch(names, call))

        callers = [threading.Thread(target=caller) for _ in range(8)]
        for thread in callers:
            thread.start()
        assert _join_all(callers, timeout=30.0) == []
        assert len(results) == 200
        assert all(sorted(r.responses) == names for r in results)
        assert all(t.name.startswith("repro-fanout") for t in workers)
        assert _join_all(list(workers)) == []

    def test_queued_abandoned_attempt_never_runs(self):
        release = threading.Event()
        calls = {"hang": 0, "b": 0}
        workers = set()

        def call(name):
            workers.add(threading.current_thread())
            calls[name] += 1
            if name == "hang":
                release.wait(5.0)
            return name

        dispatcher = FanoutDispatcher(DispatchPolicy(
            max_workers=1, timeout_s=0.05, retries=1, backoff_base_s=0.001,
            partial="best_effort",
        ))
        try:
            result = dispatcher.dispatch(["hang", "b"], call)
        finally:
            release.set()
        # The single worker runs the hung attempt; every other attempt
        # waited in the queue past its deadline.
        assert sorted(result.unavailable) == ["b", "hang"]
        assert result.outcomes["b"].faults == [FAULT_DEADLINE] * 2
        # Once the worker has drained it has run whatever was left queued.
        assert len(workers) == 1
        assert _join_all(list(workers)) == []
        assert calls == {"hang": 1, "b": 0}

    def test_deadlines_preempt_a_hung_source_on_every_dispatch(self):
        release = threading.Event()
        workers = set()
        call = self._recording_call(workers, hang="hang", release=release)
        dispatcher = FanoutDispatcher(DispatchPolicy(
            timeout_s=0.05, retries=0, partial="best_effort",
        ))
        try:
            for _ in range(3):
                started = time.monotonic()
                result = dispatcher.dispatch(["a", "hang", "b"], call)
                assert time.monotonic() - started < 2.0
                assert sorted(result.responses) == ["a", "b"]
                assert result.unavailable["hang"].kind == FAULT_DEADLINE
        finally:
            release.set()
        assert _join_all(list(workers)) == []

    def test_a_source_that_never_returns_does_not_starve_healthy_ones(self):
        # Every dispatch re-probes the hung source (cooldown 0) and leaves
        # a worker stuck in it; more dispatches than max_workers must not
        # make the healthy source queue behind those workers.
        release = threading.Event()
        workers = set()
        call = self._recording_call(workers, hang="hang", release=release)
        dispatcher = FanoutDispatcher(DispatchPolicy(
            max_workers=2, timeout_s=0.05, retries=0, breaker_threshold=1,
            breaker_cooldown_s=0.0, partial="best_effort",
        ))
        try:
            for _ in range(6):
                result = dispatcher.dispatch(["hang", "ok"], call)
                assert result.responses == {"ok": "ok"}
                assert dispatcher.breaker("ok").state == CircuitBreaker.CLOSED
        finally:
            release.set()
        assert _join_all(list(workers)) == []


POLICIES = """
POLICY clinic DEFAULT deny { ALLOW //patient/age FOR research; }
POLICY lab DEFAULT deny { ALLOW //patient/age FOR research; }
POLICY hmo2 DEFAULT deny { ALLOW //patient/age FOR research; }
POLICY hmo3 DEFAULT deny { ALLOW //patient/age FOR research; }
"""


def table_source_system(names, dispatch=None):
    """A telemetry-on system with one in-process table source per name."""
    from repro import PrivateIye
    from repro.relational import Table

    system = PrivateIye(telemetry=True, dispatch=dispatch)
    system.load_policies(POLICIES)
    for offset, name in enumerate(names):
        rows = [{"age": 20 + offset + i} for i in range(4)]
        system.add_relational_source(name, Table.from_dicts("patients", rows))
    return system


class TestPerSourceExecutors:
    """Only sources that can block are isolated on a thread."""

    def test_table_sources_start_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        system = table_source_system(["clinic", "lab", "hmo2", "hmo3"])
        result = system.query(QUERY, requester="epi")
        assert len(result.per_source_loss) == 4
        assert not [name for name in started
                    if name.startswith("repro-fanout")]
        # the in-line attempts are traced exactly like threaded ones
        root = system.last_trace()
        assert root.name == "mediator.pose"
        attempts = [span for span in root.walk()
                    if span.name == "mediator.fanout.attempt"]
        assert sorted(span.attributes["source"] for span in attempts) == [
            "clinic", "hmo2", "hmo3", "lab"]
        assert {span.trace_id for span in attempts} == {root.trace_id}

    def test_mixed_dispatch_preempts_only_the_hang(self):
        from repro.source.server import RemoteSource

        system = table_source_system(
            ["clinic"],
            dispatch=DispatchPolicy(timeout_s=0.05, retries=0,
                                    partial="best_effort"),
        )
        clinic = system.source("clinic")
        inner = RemoteSource(
            "lab", clinic.catalog, "patients",
            system.policy_store.replicate(),
        )
        release = threading.Event()
        lab = FlakySource(inner, FaultSchedule([("hang", 5.0)]),
                          sleep=release.wait)
        system.engine.register_source(lab)
        answered_on = []
        answer = clinic.answer

        def recording_answer(*args, **kwargs):
            answered_on.append(threading.current_thread())
            return answer(*args, **kwargs)

        clinic.answer = recording_answer
        try:
            started = time.monotonic()
            result = system.query(QUERY, requester="epi")
            elapsed = time.monotonic() - started
        finally:
            release.set()
        assert elapsed < 2.0
        assert answered_on == [threading.current_thread()]
        assert sorted(result.per_source_loss) == ["clinic"]
        assert result.refused_sources["lab"].kind == FAULT_DEADLINE
        report = system.explain_last()
        # the hang was submitted first, yet outcomes keep plan order
        assert list(report.sources) == ["clinic", "lab"]
        assert report.sources["clinic"]["faults"] == []
        assert report.sources["lab"]["faults"] == [FAULT_DEADLINE]

    def test_threaded_attempt_finishing_late_during_inline_work_expires(
            self):
        # "late" finishes on its worker past the deadline while the
        # calling thread is still busy with the in-line "slow"; "quick"
        # finishes in time.  The deadline is judged by when each attempt
        # finished, not by when the coordinator got back to the pool.
        delays = {"late": 0.3, "quick": 0.0, "slow": 0.6}

        def call(name):
            time.sleep(delays[name])
            return name

        dispatcher = FanoutDispatcher(DispatchPolicy(
            timeout_s=0.15, retries=0, breaker_threshold=1,
            partial="best_effort"))
        result = dispatcher.dispatch(["late", "quick", "slow"], call,
                                     blocking={"late", "quick"})
        assert sorted(result.responses) == ["quick", "slow"]
        assert result.unavailable["late"].kind == FAULT_DEADLINE
        assert result.outcomes["late"].faults == [FAULT_DEADLINE]
        # the expired attempt counts against the breaker, not for it
        assert dispatcher.breaker("late").state == CircuitBreaker.OPEN
        assert dispatcher.breaker("quick").state == CircuitBreaker.CLOSED

    def test_outcomes_keep_plan_order_on_the_dispatcher(self):
        workers = []

        def call(name):
            workers.append((name, threading.current_thread()))
            return name

        dispatcher = FanoutDispatcher(DispatchPolicy())
        result = dispatcher.dispatch(["a", "b", "c"], call, blocking={"b"})
        assert list(result.outcomes) == ["a", "b", "c"]
        assert list(result.responses) == ["a", "b", "c"]
        ran = dict(workers)
        assert ran["a"] is threading.current_thread()
        assert ran["c"] is threading.current_thread()
        assert ran["b"].name.startswith("repro-fanout")

    @pytest.mark.parametrize("events, blocks", [
        ([], False),
        ([("transient",), ("ok",)], False),
        ([("refuse",), ("transient",)], False),
        ([("transient",), ("delay", 0.0)], True),
        ([("hang", 1.0)], True),
    ])
    def test_flaky_source_blocks_only_with_delays_or_hangs(self, events,
                                                           blocks):
        from repro.mediator.dispatch import can_block

        system = table_source_system(["clinic"])
        flaky = FlakySource(system.source("clinic"), FaultSchedule(events))
        assert system.source("clinic").can_block is False
        assert flaky.can_block is blocks
        assert can_block(flaky) is blocks

    def test_flag_is_never_inherited_through_getattr(self):
        from repro.mediator.dispatch import can_block

        class Quiet:
            can_block = False

        class Undeclared:
            pass

        delayed = FaultSchedule([("delay", 0.01)])
        assert "can_block" in vars(FlakySource)
        assert FlakySource(Quiet(), delayed).can_block is True
        # a duck-typed inner that does not say counts as blocking
        assert FlakySource(Undeclared()).can_block is True
        assert can_block(Undeclared()) is True
