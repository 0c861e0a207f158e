"""Concurrent fault-tolerant source fan-out for the mediation engine.

The seed engine answered every query by calling each remote source in a
blocking loop, so end-to-end latency was the *sum* of per-source
latencies and one hung source stalled the whole ``pose()``.  This module
gives the engine a dispatch layer that treats sources the way the
composition literature treats them — autonomous participants that fail
independently:

* **Concurrency** — per-source ``answer`` calls run on a
  ``ThreadPoolExecutor``; wall-clock becomes the *max* of per-source
  latencies instead of the sum.
* **Deadlines** — each attempt gets ``timeout_s``; a source that hangs
  past its deadline is abandoned (the coordinator stops waiting; the
  worker thread drains on its own) and the attempt counts as a fault.
* **Retries** — :class:`~repro.errors.TransientSourceError` and deadline
  expiries are retried with bounded exponential backoff.  A
  :class:`~repro.errors.PrivacyViolation` or :class:`~repro.errors.PathError`
  is a *final protocol answer* and is never retried.
* **Circuit breakers** — per-source, persistent across ``pose()`` calls:
  after ``breaker_threshold`` consecutive faults the breaker opens and
  calls fail fast; after ``breaker_cooldown_s`` one half-open probe is
  allowed through, closing the breaker on success.
* **Partial-results policies** — ``require_all`` (default: any
  unreachable source aborts the query), ``quorum(k)`` (at least ``k``
  answers), ``best_effort`` (integrate whatever arrived).  Policy
  refusals keep their existing semantics under every policy: a refusing
  source never blocks integration of the others.

Everything is observable: each dispatch returns per-source
:class:`SourceOutcome` records (attempts, retries, wall-clock, fault
kinds, breaker state) that the engine folds into the explain ledger and
the metrics registry, and per-attempt spans parent under the engine's
``mediator.fanout`` span even though they run on worker threads.

``mode="sequential"`` — and ``dispatch(..., inline=True)`` when no
deadline is configured — runs a second, in-line state machine
(:meth:`FanoutDispatcher._dispatch_sequential`): it shares the breaker,
retry and settle helpers with the concurrent machine (``_run_loop``) but
drives them from the calling thread, one source after another, with no
pool and no deadline preemption.  It is the benchmark baseline, the batch
pipeline's cheap path, and the behavioural reference the zero-fault
equivalence property tests pin the concurrent machine against.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

from repro.errors import (
    PathError,
    PrivacyViolation,
    Refusal,
    ReproError,
    SourceUnavailable,
    TransientSourceError,
)
from repro.telemetry.obs.context import TraceContext

#: Exceptions that are final protocol answers — recorded as refusals,
#: never retried, never counted against the circuit breaker.
REFUSAL_ERRORS = (PrivacyViolation, PathError)

#: Fault kinds a :class:`SourceOutcome` may carry.
FAULT_TRANSIENT = "TransientSourceError"
FAULT_DEADLINE = "DeadlineExceeded"
FAULT_BREAKER = "CircuitOpen"


class DispatchPolicy:
    """Configuration for one :class:`FanoutDispatcher`.

    ``partial`` is ``"require_all"``, ``"best_effort"``, or ``("quorum", k)``
    (use the :meth:`quorum` helper).  ``timeout_s=None`` disables
    per-attempt deadlines; ``retries`` bounds *re*-attempts per source
    (``retries=2`` allows three attempts total).
    """

    __slots__ = ("mode", "max_workers", "timeout_s", "retries",
                 "backoff_base_s", "backoff_factor", "backoff_max_s",
                 "breaker_threshold", "breaker_cooldown_s", "partial")

    def __init__(self, mode="concurrent", max_workers=None, timeout_s=None,
                 retries=2, backoff_base_s=0.05, backoff_factor=2.0,
                 backoff_max_s=2.0, breaker_threshold=5,
                 breaker_cooldown_s=30.0, partial="require_all"):
        if mode not in ("concurrent", "sequential"):
            raise ReproError(f"unknown dispatch mode {mode!r}")
        if retries < 0:
            raise ReproError("retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ReproError("timeout_s must be positive (or None)")
        if breaker_threshold < 1:
            raise ReproError("breaker_threshold must be >= 1")
        kind, k = self._parse_partial(partial)
        self.mode = mode
        self.max_workers = max_workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_max_s = backoff_max_s
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown_s = breaker_cooldown_s
        self.partial = (kind, k) if kind == "quorum" else kind

    @staticmethod
    def _parse_partial(partial):
        if partial in ("require_all", "best_effort"):
            return partial, None
        if (isinstance(partial, tuple) and len(partial) == 2
                and partial[0] == "quorum" and isinstance(partial[1], int)
                and partial[1] >= 1):
            return "quorum", partial[1]
        raise ReproError(
            "partial must be 'require_all', 'best_effort', or ('quorum', k)"
        )

    @classmethod
    def quorum(cls, k, **kwargs):
        """A policy satisfied once ``k`` sources have answered."""
        return cls(partial=("quorum", k), **kwargs)

    @property
    def partial_kind(self):
        return self.partial[0] if isinstance(self.partial, tuple) else self.partial

    @property
    def quorum_k(self):
        return self.partial[1] if isinstance(self.partial, tuple) else None

    def backoff_s(self, retry_number):
        """Backoff before retry ``retry_number`` (1-based), capped."""
        delay = self.backoff_base_s * (self.backoff_factor ** (retry_number - 1))
        return min(delay, self.backoff_max_s)

    def describe(self):
        """Short human/ledger form, e.g. ``concurrent/quorum(2)``."""
        kind = self.partial_kind
        if kind == "quorum":
            kind = f"quorum({self.quorum_k})"
        return f"{self.mode}/{kind}"

    def __repr__(self):
        return (
            f"DispatchPolicy({self.describe()}, timeout_s={self.timeout_s}, "
            f"retries={self.retries})"
        )


class CircuitBreaker:
    """Per-source breaker: closed → open after N consecutive faults.

    While open, :meth:`acquire` fails fast until ``cooldown_s`` has
    elapsed, then admits exactly one half-open probe (further calls keep
    failing fast while the probe is out); the probe's outcome closes or
    re-opens the breaker.  Thread-safe; the clock is injectable so tests
    can drive the lifecycle deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    __slots__ = ("threshold", "cooldown_s", "_clock", "_lock", "_state",
                 "_consecutive_failures", "_opened_at", "times_opened")

    def __init__(self, threshold=5, cooldown_s=30.0, clock=time.monotonic):
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        self.times_opened = 0

    @property
    def state(self):
        with self._lock:
            return self._peek_state()

    def _peek_state(self):
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.cooldown_s):
            return self.HALF_OPEN
        return self._state

    def acquire(self):
        """Try to admit a call: ``"closed"``, ``"probe"``, or ``None``.

        ``"probe"`` means the breaker was open, the cooldown elapsed, and
        this caller won the single half-open probe slot; the cooldown
        restarts so concurrent callers fail fast until the probe reports.
        """
        with self._lock:
            state = self._peek_state()
            if state == self.CLOSED:
                return self.CLOSED
            if state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = self._clock()
                return "probe"
            return None

    def allow(self):
        """Boolean form of :meth:`acquire` (consumes the probe slot)."""
        return self.acquire() is not None

    def record_success(self):
        with self._lock:
            self._state = self.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self):
        with self._lock:
            self._consecutive_failures += 1
            if (self._state == self.CLOSED
                    and self._consecutive_failures >= self.threshold):
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.times_opened += 1
            # While OPEN (including a failed half-open probe) the cooldown
            # already restarted when the probe was admitted; nothing to do.

    def __repr__(self):
        return f"CircuitBreaker({self.state}, fails={self._consecutive_failures})"


class SourceOutcome:
    """What happened to one source during one dispatch."""

    __slots__ = ("source", "status", "attempts", "retries", "wall_ms",
                 "faults", "breaker_state", "response", "refusal")

    def __init__(self, source):
        self.source = source
        self.status = "pending"   # answered | refused | unavailable
        self.attempts = 0
        self.retries = 0
        self.wall_ms = 0.0
        self.faults = []          # fault kinds, in order of occurrence
        self.breaker_state = CircuitBreaker.CLOSED
        self.response = None
        self.refusal = None       # Refusal (policy refusal OR unavailability)

    def to_dict(self):
        return {
            "source": self.source,
            "status": self.status,
            "attempts": self.attempts,
            "retries": self.retries,
            "wall_ms": self.wall_ms,
            "faults": list(self.faults),
            "breaker_state": self.breaker_state,
        }

    def __repr__(self):
        return (
            f"SourceOutcome({self.source!r}, {self.status}, "
            f"attempts={self.attempts}, wall_ms={self.wall_ms:.1f})"
        )


class DispatchResult:
    """Everything one fan-out produced, in deterministic source order."""

    __slots__ = ("responses", "refused", "unavailable", "outcomes",
                 "wall_ms", "mode")

    def __init__(self, responses, refused, unavailable, outcomes, wall_ms,
                 mode):
        self.responses = responses      # source → SourceResponse (plan order)
        self.refused = refused          # source → Refusal (policy refusals)
        self.unavailable = unavailable  # source → Refusal (transport faults)
        self.outcomes = outcomes        # source → SourceOutcome (plan order)
        self.wall_ms = wall_ms
        self.mode = mode

    @property
    def total_retries(self):
        return sum(o.retries for o in self.outcomes.values())

    def __repr__(self):
        return (
            f"DispatchResult(answered={sorted(self.responses)}, "
            f"refused={sorted(self.refused)}, "
            f"unavailable={sorted(self.unavailable)})"
        )


class _SourceTask:
    """Coordinator-side state machine for one source."""

    __slots__ = ("name", "outcome", "future", "attempt_started",
                 "next_eligible", "started", "probe")

    def __init__(self, name, now):
        self.name = name
        self.outcome = SourceOutcome(name)
        self.future = None            # in-flight attempt (concurrent mode)
        self.attempt_started = None
        self.next_eligible = now      # earliest clock time of next attempt
        self.started = now
        self.probe = False            # current attempt is a half-open probe


class FanoutDispatcher:
    """Executes per-source calls under a :class:`DispatchPolicy`.

    One dispatcher is long-lived (the engine owns it): circuit breakers
    persist across dispatches, which is the whole point of a breaker.
    ``dispatch(names, call)`` runs ``call(name)`` for every name and
    returns a :class:`DispatchResult`; ``call`` must be thread-safe
    across *different* names (the engine's per-source ``answer`` is —
    each source is an independent object).
    """

    def __init__(self, policy=None, telemetry=None, clock=time.monotonic):
        from repro.telemetry import resolve_telemetry

        self.policy = policy or DispatchPolicy()
        self.telemetry = resolve_telemetry(telemetry)
        self._clock = clock
        self._breakers = {}
        self._breakers_lock = threading.Lock()
        self._last_breaker_states = {}

    # -- breakers ----------------------------------------------------------

    def breaker(self, source):
        """The (lazily created) circuit breaker for ``source``."""
        with self._breakers_lock:
            breaker = self._breakers.get(source)
            if breaker is None:
                breaker = self._breakers[source] = CircuitBreaker(
                    self.policy.breaker_threshold,
                    self.policy.breaker_cooldown_s,
                    clock=self._clock,
                )
            return breaker

    def breaker_states(self):
        """``{source: state}`` for every breaker seen so far."""
        with self._breakers_lock:
            return {name: b.state for name, b in sorted(self._breakers.items())}

    def _note_breaker_state(self, source, state):
        """Emit a ``dispatch.breaker_transition`` event on state change.

        Observed at dispatch settlement (not inside the breaker's lock):
        the event stream records every *effective* transition a fan-out
        saw — closed → open when a source trips, open → closed when a
        half-open probe succeeds.
        """
        with self._breakers_lock:
            previous = self._last_breaker_states.get(source,
                                                     CircuitBreaker.CLOSED)
            if state == previous:
                return
            self._last_breaker_states[source] = state
        self.telemetry.events.emit(
            "dispatch.breaker_transition", source=source,
            previous=previous, state=state,
        )

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, source_names, call, enforce=True, inline=False):
        """Run ``call(name)`` for every source under the policy.

        With ``enforce=False`` the partial-results policy is *not*
        checked here — the caller records the outcomes first (e.g. into
        an explain ledger) and then calls :meth:`enforce_partial` itself,
        so a failed quorum still leaves a fully-populated ledger.

        ``inline=True`` asks to run the in-line state machine in the
        calling thread even under a concurrent policy.  Honored only
        when ``timeout_s`` is ``None`` — without deadline preemption
        the two machines settle every (source, attempt) identically
        (same breaker transitions, retries, and refusals, in the same
        deterministic source order), so in-lining is purely a latency
        optimization: the batch pipeline uses it to skip the per-pose
        thread-pool spin-up.  With a deadline configured the flag is
        ignored — the in-line machine cannot preempt a hung source.
        """
        names = list(source_names)
        started = self._clock()
        if self.policy.mode == "sequential" or (
                inline and self.policy.timeout_s is None):
            outcomes = self._dispatch_sequential(names, call)
        else:
            outcomes = self._dispatch_concurrent(names, call)
        wall_ms = (self._clock() - started) * 1000.0

        responses, refused, unavailable = {}, {}, {}
        for name in names:
            outcome = outcomes[name]
            outcome.breaker_state = self.breaker(name).state
            self._note_breaker_state(name, outcome.breaker_state)
            if outcome.status == "answered":
                responses[name] = outcome.response
            elif outcome.status == "refused":
                refused[name] = outcome.refusal
            else:
                unavailable[name] = outcome.refusal
        result = DispatchResult(
            responses, refused, unavailable,
            {name: outcomes[name] for name in names}, wall_ms,
            self.policy.mode,
        )
        if enforce:
            self.enforce_partial(result)
        return result

    def enforce_partial(self, result):
        """Raise :class:`SourceUnavailable` if the policy is unmet."""
        kind = self.policy.partial_kind
        if not result.unavailable and kind != "quorum":
            return
        detail = "; ".join(
            f"{s}: {r}" for s, r in sorted(result.unavailable.items())
        )
        if kind == "require_all" and result.unavailable:
            raise SourceUnavailable(
                f"require_all dispatch lost {len(result.unavailable)} "
                f"source(s): {detail}"
            )
        if kind == "quorum":
            k = self.policy.quorum_k
            if len(result.responses) < k:
                raise SourceUnavailable(
                    f"quorum({k}) not met: only {len(result.responses)} "
                    f"source(s) answered"
                    + (f" ({detail})" if detail else "")
                )

    # -- sequential mode ---------------------------------------------------

    def _dispatch_sequential(self, names, call):
        """In-line reference implementation (no deadline preemption)."""
        outcomes = {}
        for name in names:
            task = _SourceTask(name, self._clock())
            outcome = task.outcome
            breaker = self.breaker(name)
            while outcome.status == "pending":
                admitted = breaker.acquire()
                if admitted is None:
                    self._settle_breaker_open(outcome)
                    break
                task.probe = admitted == "probe"
                outcome.attempts += 1
                try:
                    response = call(name)
                except REFUSAL_ERRORS as error:
                    self._settle_refused(outcome, error)
                except TransientSourceError as error:
                    breaker.record_failure()
                    outcome.faults.append(FAULT_TRANSIENT)
                    if not self._schedule_retry(task, breaker, str(error)):
                        break
                    time.sleep(max(0.0, task.next_eligible - self._clock()))
                else:
                    breaker.record_success()
                    self._settle_answered(outcome, response)
            outcome.wall_ms = (self._clock() - task.started) * 1000.0
            outcomes[name] = outcome
        return outcomes

    # -- concurrent mode ---------------------------------------------------

    def _dispatch_concurrent(self, names, call):
        tasks = {name: _SourceTask(name, self._clock()) for name in names}
        # Capture the full trace context (trace id + parent span), not
        # just the parent: restoring it on the worker makes the attempt
        # span carry the pose's trace id across the pool boundary.
        context = TraceContext.capture(self.telemetry.tracer)
        # Default pool leaves headroom for retries: a hung attempt that
        # blew its deadline keeps occupying a worker until it drains, and
        # its replacement must not queue behind it.
        workers = self.policy.max_workers or min(
            64, max(1, len(names)) * (self.policy.retries + 1)
        )
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-fanout",
        )
        try:
            self._run_loop(tasks, call, context, pool)
        finally:
            # Abandoned (hung) attempts drain on their own threads; do
            # not block the pose() on them.
            pool.shutdown(wait=False, cancel_futures=True)
        return {name: task.outcome for name, task in tasks.items()}

    def _finalize(self, task):
        """Stamp the source's wall-clock the moment it settles."""
        task.outcome.wall_ms = (self._clock() - task.started) * 1000.0

    def _run_loop(self, tasks, call, context, pool):
        timeout_s = self.policy.timeout_s
        pending = dict(tasks)  # sources not yet settled
        while pending:
            now = self._clock()
            for task in list(pending.values()):
                if task.future is None and task.next_eligible <= now:
                    self._launch_attempt(task, call, context, pool)
                    if task.outcome.status != "pending":
                        self._finalize(task)    # breaker failed it fast
                        del pending[task.name]

            in_flight = {t.future: t for t in pending.values()
                         if t.future is not None}
            if not in_flight:
                if not pending:
                    break
                # every remaining task is sleeping off a backoff
                wake = min(t.next_eligible for t in pending.values())
                self._sleep_until(wake)
                continue

            wait_s = self._next_wait(pending, in_flight, timeout_s)
            done, _ = wait(in_flight, timeout=wait_s,
                           return_when=FIRST_COMPLETED)
            now = self._clock()
            for future in done:
                task = in_flight[future]
                self._absorb_result(task, future)
                if task.outcome.status != "pending":
                    self._finalize(task)
                    del pending[task.name]
            if timeout_s is not None:
                for future, task in in_flight.items():
                    if future in done or task.future is not future:
                        continue
                    if now - task.attempt_started >= timeout_s:
                        self._expire_attempt(task)
                        if task.outcome.status != "pending":
                            self._finalize(task)
                            del pending[task.name]

    def _launch_attempt(self, task, call, context, pool):
        breaker = self.breaker(task.name)
        admitted = breaker.acquire()
        if admitted is None:
            self._settle_breaker_open(task.outcome)
            return
        task.probe = admitted == "probe"
        task.outcome.attempts += 1
        attempt = task.outcome.attempts
        task.attempt_started = self._clock()
        task.future = pool.submit(
            self._run_attempt, call, task.name, attempt, context
        )

    def _run_attempt(self, call, name, attempt, context):
        """Worker-thread body: one attempt under the restored context.

        Activating the captured :class:`TraceContext` makes the attempt
        span both a child of the dispatching pose's span *and* a member
        of its trace — the id a later WAL append and the profiler's
        stage attribution agree on.
        """
        tracer = self.telemetry.tracer
        with context.activate(tracer):
            with tracer.span(
                "mediator.fanout.attempt", source=name, attempt=attempt,
            ):
                return call(name)

    def _absorb_result(self, task, future):
        """Fold a completed attempt future into the task's outcome."""
        if task.future is not future:
            return  # an abandoned (timed-out) attempt drained late
        task.future = None
        outcome = task.outcome
        breaker = self.breaker(task.name)
        try:
            response = future.result()
        except REFUSAL_ERRORS as error:
            self._settle_refused(outcome, error)
        except TransientSourceError as error:
            breaker.record_failure()
            outcome.faults.append(FAULT_TRANSIENT)
            self._schedule_retry(task, breaker, str(error))
        else:
            breaker.record_success()
            self._settle_answered(outcome, response)

    def _expire_attempt(self, task):
        """An in-flight attempt blew its deadline: abandon and retry."""
        breaker = self.breaker(task.name)
        breaker.record_failure()
        task.future = None  # abandon; late result is ignored
        task.outcome.faults.append(FAULT_DEADLINE)
        self._schedule_retry(
            task, breaker,
            f"deadline of {self.policy.timeout_s}s exceeded",
        )

    def _schedule_retry(self, task, breaker, reason):
        """Queue the next attempt, or settle as unavailable. True if queued."""
        outcome = task.outcome
        exhausted = outcome.retries >= self.policy.retries
        if task.probe or exhausted or not self._breaker_admits(breaker):
            kind = outcome.faults[-1] if outcome.faults else FAULT_TRANSIENT
            self._settle_unavailable(
                outcome, kind,
                f"{task.name}: {reason} "
                f"(attempt {outcome.attempts}/{self.policy.retries + 1})",
            )
            return False
        outcome.retries += 1
        task.next_eligible = self._clock() + self.policy.backoff_s(
            outcome.retries
        )
        return True

    @staticmethod
    def _breaker_admits(breaker):
        # Peek without consuming the half-open probe slot: retrying into
        # an open breaker is pointless, settle now instead of at the next
        # launch.
        return breaker.state != CircuitBreaker.OPEN

    def _next_wait(self, pending, in_flight, timeout_s):
        """Seconds until the next deadline or backoff wake-up."""
        now = self._clock()
        horizon = []
        if timeout_s is not None:
            horizon.extend(
                task.attempt_started + timeout_s
                for task in in_flight.values()
            )
        horizon.extend(
            task.next_eligible for task in pending.values()
            if task.future is None
        )
        if not horizon:
            return None
        return max(0.0, min(horizon) - now)

    def _sleep_until(self, wake):
        delay = wake - self._clock()
        if delay > 0:
            time.sleep(delay)

    # -- settling ----------------------------------------------------------

    @staticmethod
    def _settle_answered(outcome, response):
        outcome.status = "answered"
        outcome.response = response

    @staticmethod
    def _settle_refused(outcome, error):
        outcome.status = "refused"
        outcome.refusal = Refusal.from_exception(error)

    @staticmethod
    def _settle_unavailable(outcome, kind, reason):
        outcome.status = "unavailable"
        outcome.refusal = Refusal(kind, reason)

    def _settle_breaker_open(self, outcome):
        outcome.attempts += 1
        outcome.faults.append(FAULT_BREAKER)
        self._settle_unavailable(
            outcome, FAULT_BREAKER,
            f"{outcome.source}: circuit breaker open (failing fast)",
        )

    def __repr__(self):
        return f"FanoutDispatcher({self.policy!r})"


def resolve_dispatch(dispatch):
    """Normalize an engine constructor argument into a dispatcher.

    ``None`` → a default concurrent dispatcher; a :class:`DispatchPolicy`
    → a fresh dispatcher around it; a :class:`FanoutDispatcher` passes
    through (sharing breakers with whoever built it).
    """
    if dispatch is None:
        return FanoutDispatcher(DispatchPolicy())
    if isinstance(dispatch, DispatchPolicy):
        return FanoutDispatcher(dispatch)
    if isinstance(dispatch, FanoutDispatcher):
        return dispatch
    # repro-lint: disable=REP003 -- constructor-argument type errors are
    # TypeError by Python convention (mirrors resolve_telemetry).
    raise TypeError(
        "dispatch must be None, a DispatchPolicy, or a FanoutDispatcher, "
        f"not {type(dispatch).__name__}"
    )
