"""Fault-tolerant source fan-out for the mediation engine.

The seed engine answered every query by calling each remote source in a
blocking loop, so end-to-end latency was the *sum* of per-source
latencies and one hung source stalled the whole ``pose()``.  This module
gives the engine a dispatch layer that treats sources the way the
composition literature treats them — autonomous participants that fail
independently:

* **Per-source executors** — one state machine (``_run_loop``) drives
  every source's attempts.  An attempt of a source that can block
  (sleep, I/O, a remote call) runs on one of the dispatcher's worker
  threads; an attempt of a source that cannot (an in-process table,
  which holds the interpreter lock while it answers) runs in-line on
  the calling thread.  Which sources can block is a property of their
  class (:func:`can_block`); wall-clock is the *max* over the threaded
  sources, and a dispatch with none starts no thread.
* **Workers outlive the dispatch** — an attempt goes to an idle worker,
  and a new worker starts only when none is idle, so a worker stuck in
  a hung source never delays another attempt.  A worker idle for
  :data:`WORKER_KEEPALIVE_S` exits, as do all of them once their
  dispatcher is collected; idle workers never delay interpreter exit.
  ``max_workers`` caps one dispatch's attempts on the workers.
* **Deadlines** — each threaded attempt gets ``timeout_s``; a source
  that hangs past its deadline is abandoned (the coordinator stops
  waiting; its worker rejoins the idle set once the source returns) and
  the attempt counts as a fault, judged by when it finished on its
  worker.  An attempt that expires still queued is cancelled and never
  runs.  In-line attempts are never preempted.
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

Retries, backoff, breakers and settlement are the same code for both
executors, so a source settles alike in-line or threaded (the executor
differential in ``tests/mediator/test_fanout_properties.py`` pins it).
``mode="sequential"`` runs every source in-line: it is the benchmark
baseline and the reference of the fault tests.

Everything is observable: each dispatch returns per-source
:class:`SourceOutcome` records (attempts, retries, wall-clock, fault
kinds, breaker state) that the engine folds into the explain ledger and
the metrics registry, and every attempt opens a
``mediator.fanout.attempt`` span under the engine's ``mediator.fanout``
span, in-line or on a worker thread.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait

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

#: Seconds an idle fan-out worker waits for another attempt before it
#: exits.  Back-to-back poses reuse their workers; a quiet dispatcher
#: holds no thread for long.
WORKER_KEEPALIVE_S = 1.0


def can_block(source):
    """Whether ``source``'s ``answer`` can block (sleep, I/O, a remote call).

    A source class says so with a ``can_block`` attribute; one that does
    not say (a duck-typed double) counts as blocking, so the dispatcher
    isolates it on a thread.
    """
    return getattr(source, "can_block", True)


class DispatchPolicy:
    """Configuration for one :class:`FanoutDispatcher`.

    ``partial`` is ``"require_all"``, ``"best_effort"``, or ``("quorum", k)``
    (use the :meth:`quorum` helper).  ``timeout_s=None`` disables
    per-attempt deadlines; ``retries`` bounds *re*-attempts per source
    (``retries=2`` allows three attempts total).

    ``mode="concurrent"`` runs the attempts of sources that can block on
    threads and the others in-line; ``mode="sequential"`` runs every
    attempt in-line.  A deadline preempts threaded attempts only: an
    in-line attempt runs to completion on the calling thread, however
    long it takes.  A threaded attempt that finishes past its deadline
    counts as expired even when the calling thread was busy in-line
    when it finished.
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
        """The explain ledger's per-source record: what the source
        disclosed (or why it did not), then the dispatch stats."""
        if self.status == "answered":
            response = self.response
            rewrite = response.rewrite
            record = {
                "outcome": "answered",
                "privacy_loss": response.privacy_loss,
                "information_loss": response.information_loss,
                "loss_budget": rewrite.loss_budget,
                "strategy": response.plan.strategy,
                "dropped_columns": list(rewrite.dropped),
                "generalized_columns": list(rewrite.generalized_columns),
            }
        else:
            # unavailable: ``kind`` is the fault class (DeadlineExceeded,
            # TransientSourceError or CircuitOpen)
            record = {"outcome": self.status, "kind": self.refusal.kind,
                      "reason": self.refusal.reason}
        record.update(
            wall_ms=self.wall_ms,
            attempts=self.attempts,
            retries=self.retries,
            faults=list(self.faults),
            breaker_state=self.breaker_state,
        )
        return record

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

    __slots__ = ("name", "breaker", "threaded", "outcome", "future",
                 "attempt_started", "next_eligible", "started", "probe")

    def __init__(self, name, breaker, now):
        self.name = name
        self.breaker = breaker
        self.threaded = False         # attempts run on a worker thread
        self.outcome = SourceOutcome(name)
        self.future = None            # in-flight threaded attempt
        self.attempt_started = None
        self.next_eligible = now      # earliest clock time of next attempt
        self.started = None           # first launch; wall_ms counts from it
        self.probe = False            # current attempt is a half-open probe


class _Batch:
    """One dispatch's share of the workers: ``cap`` attempts on them at most.

    ``running`` counts the attempts handed to a worker and not yet
    finished there, abandoned ones included; attempts over the cap wait
    in ``backlog``.  Both change only under the owning :class:`_Workers`'
    lock.
    """

    __slots__ = ("workers", "cap", "running", "backlog")

    def __init__(self, workers, cap):
        self.workers = workers
        self.cap = cap
        self.running = 0
        self.backlog = deque()   # (batch, future, fn, args), submit order

    def submit(self, fn, *args):
        """Run ``fn(*args)`` on a worker; returns its :class:`Future`."""
        return self.workers.submit(self, fn, args)


class _Workers:
    """The worker threads one dispatcher keeps across its dispatches.

    Work items share one queue.  ``_idle`` counts the waiting workers no
    queued item is promised to: a submit takes one of them, or starts a
    new worker when there is none, so every queued item has a waiting
    worker and none waits behind a worker stuck in a hung source.  A
    worker counts itself idle *before* it settles its attempt's future,
    so a dispatch that saw every attempt finish finds every worker idle.
    Workers hold this object only, never the dispatcher, so collecting
    the dispatcher (:meth:`close`) lets them all exit.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._work = queue.SimpleQueue()
        self._idle = 0

    def submit(self, batch, fn, args):
        future = Future()
        item = (batch, future, fn, args)
        with self._lock:
            if batch.running >= batch.cap:
                batch.backlog.append(item)
                return future
            batch.running += 1
            start = not self._idle
            if not start:
                self._idle -= 1
        self._work.put(item)
        if start:
            threading.Thread(target=self._serve, name="repro-fanout",
                             daemon=True).start()
        return future

    def cancel(self, batch):
        """Drop ``batch``'s queued attempts: its dispatch has settled."""
        with self._lock:
            batch.backlog.clear()

    def close(self):
        """Let every worker exit (the dispatcher was collected)."""
        self._work.put(None)

    def _serve(self):
        """Worker body: run attempts until idle past the keep-alive."""
        while True:
            try:
                item = self._work.get(timeout=WORKER_KEEPALIVE_S)
            except queue.Empty:
                with self._lock:
                    if self._idle:   # nothing is promised to this worker
                        self._idle -= 1
                        return
                continue
            if item is None:
                self._work.put(None)   # pass the stop on to the next worker
                return
            while item is not None:
                item = self._run(item)

    def _run(self, item):
        """Run one attempt; return the batch's next queued one, or None."""
        batch, future, fn, args = item
        ran = future.set_running_or_notify_cancel()
        result = error = None
        if ran:
            try:
                result = fn(*args)
            except BaseException as exc:   # re-raised where it is read
                error = exc
        with self._lock:
            following = None
            while batch.backlog and following is None:
                following = batch.backlog.popleft()
                if following[1].cancelled():
                    following = None
            if following is None:
                batch.running -= 1
                self._idle += 1
        if ran:
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)
        return following


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
        self._workers = _Workers()
        weakref.finalize(self, self._workers.close)

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

    def dispatch(self, source_names, call, enforce=True, blocking=None):
        """Run ``call(name)`` for every source under the policy.

        With ``enforce=False`` the partial-results policy is *not*
        checked here — the caller records the outcomes first (e.g. into
        an explain ledger) and then calls :meth:`enforce_partial` itself,
        so a failed quorum still leaves a fully-populated ledger.

        ``blocking`` holds the names whose ``call`` can block; their
        attempts run on threads, the others' in-line.  ``None`` (plain
        names, nothing known about them) means every name can block.
        Under ``mode="sequential"`` every attempt runs in-line.
        """
        started = self._clock()
        tasks = [_SourceTask(name, self.breaker(name), started)
                 for name in source_names]
        threaded = []
        if self.policy.mode == "concurrent":
            for task in tasks:
                if blocking is None or task.name in blocking:
                    task.threaded = True
                    threaded.append(task)
        if threaded:
            # the workers start on the threaded attempts before the
            # in-line ones take the calling thread
            self._run_threaded(
                threaded + [task for task in tasks if not task.threaded],
                call, len(threaded),
            )
        else:
            self._run_loop(tasks, call)
        wall_ms = (self._clock() - started) * 1000.0

        responses, refused, unavailable, outcomes = {}, {}, {}, {}
        for task in tasks:
            outcome = outcomes[task.name] = task.outcome
            outcome.breaker_state = task.breaker.state
            self._note_breaker_state(task.name, outcome.breaker_state)
            if outcome.status == "answered":
                responses[task.name] = outcome.response
            elif outcome.status == "refused":
                refused[task.name] = outcome.refusal
            else:
                unavailable[task.name] = outcome.refusal
        result = DispatchResult(responses, refused, unavailable, outcomes,
                                wall_ms, self.policy.mode)
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

    # -- the state machine -------------------------------------------------

    def _run_threaded(self, tasks, call, n_threaded):
        # Capture the full trace context (trace id + parent span), not
        # just the parent: restoring it on the worker makes the attempt
        # span carry the pose's trace id across the thread boundary.
        context = TraceContext.capture(self.telemetry.tracer)
        # The default cap leaves headroom for retries: a hung attempt
        # that blew its deadline keeps counting until it returns, and
        # its replacement must not queue behind it.
        batch = _Batch(self._workers, self.policy.max_workers or min(
            64, n_threaded * (self.policy.retries + 1)
        ))
        try:
            self._run_loop(tasks, call, batch, context)
        finally:
            # Abandoned (hung) attempts finish on their own workers; do
            # not block the pose() on them.  Queued ones never run.
            self._workers.cancel(batch)

    def _run_loop(self, tasks, call, batch=None, context=None):
        """Drive every task to settlement, threaded and in-line alike.

        Each pass launches every due attempt in ``tasks`` order: a
        threaded one is submitted to ``batch`` (the dispatch's share of
        the workers), an in-line one runs and settles on the spot.  Then
        the loop sleeps off backoffs or waits for the workers.  With
        nothing on a worker it allocates no future and never polls.
        """
        timeout_s = self.policy.timeout_s
        pending = tasks
        now = self._clock()
        while True:
            for task in pending:
                if task.future is None and task.next_eligible <= now:
                    self._launch_attempt(task, call, batch, context)
            pending = [t for t in pending if t.outcome.status == "pending"]
            if not pending:
                return
            in_flight = {t.future: t for t in pending if t.future is not None}
            if not in_flight:
                # every remaining task is sleeping off a backoff
                wake = min(t.next_eligible for t in pending)
                time.sleep(max(0.0, wake - self._clock()))
                now = max(self._clock(), wake)
                continue
            done, _ = wait(in_flight,
                           timeout=self._next_wait(pending, in_flight),
                           return_when=FIRST_COMPLETED)
            now = self._clock()
            for future, task in in_flight.items():
                if future in done:
                    finished, error, response = future.result()
                    if (timeout_s is not None
                            and finished - task.attempt_started >= timeout_s):
                        # it finished late while in-line attempts held
                        # the calling thread
                        self._expire_attempt(task)
                    else:
                        task.future = None
                        self._absorb(task, _replay, error, response)
                elif (timeout_s is not None
                        and now - task.attempt_started >= timeout_s):
                    self._expire_attempt(task)
            pending = [t for t in pending if t.outcome.status == "pending"]

    def _launch_attempt(self, task, call, batch, context):
        now = self._clock()
        if task.started is None:
            task.started = now
        admitted = task.breaker.acquire()
        if admitted is None:
            self._settle_breaker_open(task)
            return
        task.probe = admitted == "probe"
        task.outcome.attempts += 1
        if task.threaded:
            task.attempt_started = now
            task.future = batch.submit(
                self._attempt_on_worker, context, call, task.name,
                task.outcome.attempts,
            )
        else:
            self._absorb(task, self._attempt, call, task.name,
                         task.outcome.attempts)

    def _attempt(self, call, name, attempt):
        """One attempt, under its ``mediator.fanout.attempt`` span."""
        if not self.telemetry.enabled:
            return call(name)   # telemetry off: skip building a no-op span
        with self.telemetry.tracer.span(
            "mediator.fanout.attempt", source=name, attempt=attempt,
        ):
            return call(name)

    def _attempt_on_worker(self, context, call, name, attempt):
        """Worker-thread body: one attempt under the restored context.

        Activating the captured :class:`TraceContext` makes the attempt
        span both a child of the dispatching pose's span *and* a member
        of its trace — the id a later WAL append and the profiler's
        stage attribution agree on.  Returns ``(finished, error,
        response)``: the coordinator checks the deadline against the
        time the attempt finished, not the time it looked.
        """
        with context.activate(self.telemetry.tracer):
            try:
                response = self._attempt(call, name, attempt)
            except Exception as error:
                return self._clock(), error, None
            return self._clock(), None, response

    def _absorb(self, task, attempt, *args):
        """Settle or retry ``task`` on ``attempt(*args)``'s answer or error."""
        breaker = task.breaker
        try:
            response = attempt(*args)
        except REFUSAL_ERRORS as error:
            self._settle(task, "refused", Refusal.from_exception(error))
        except TransientSourceError as error:
            breaker.record_failure()
            task.outcome.faults.append(FAULT_TRANSIENT)
            self._schedule_retry(task, str(error))
        else:
            breaker.record_success()
            self._settle(task, "answered", response=response)

    def _expire_attempt(self, task):
        """An in-flight attempt blew its deadline: abandon and retry."""
        task.breaker.record_failure()
        task.future.cancel()  # a queued attempt never runs
        task.future = None  # abandon; late result is ignored
        task.outcome.faults.append(FAULT_DEADLINE)
        self._schedule_retry(
            task, f"deadline of {self.policy.timeout_s}s exceeded",
        )

    def _schedule_retry(self, task, reason):
        """Queue the next attempt, or settle as unavailable."""
        outcome = task.outcome
        exhausted = outcome.retries >= self.policy.retries
        # Peek without consuming the half-open probe slot: retrying into
        # an open breaker is pointless, settle now instead of at the next
        # launch.
        if (task.probe or exhausted
                or task.breaker.state == CircuitBreaker.OPEN):
            kind = outcome.faults[-1] if outcome.faults else FAULT_TRANSIENT
            self._settle(task, "unavailable", Refusal(
                kind,
                f"{task.name}: {reason} "
                f"(attempt {outcome.attempts}/{self.policy.retries + 1})",
            ))
            return
        outcome.retries += 1
        task.next_eligible = self._clock() + self.policy.backoff_s(
            outcome.retries
        )

    def _next_wait(self, pending, in_flight):
        """Seconds until the next deadline or backoff wake-up, or None."""
        horizon = [t.next_eligible for t in pending if t.future is None]
        timeout_s = self.policy.timeout_s
        if timeout_s is not None:
            horizon += [t.attempt_started + timeout_s for t in in_flight.values()]
        return max(0.0, min(horizon) - self._clock()) if horizon else None

    # -- settling ----------------------------------------------------------

    def _settle(self, task, status, refusal=None, response=None):
        """Close ``task``'s outcome and stamp its wall-clock."""
        outcome = task.outcome
        outcome.status = status
        outcome.refusal = refusal
        outcome.response = response
        outcome.wall_ms = (self._clock() - task.started) * 1000.0

    def _settle_breaker_open(self, task):
        task.outcome.attempts += 1
        task.outcome.faults.append(FAULT_BREAKER)
        self._settle(task, "unavailable", Refusal(
            FAULT_BREAKER,
            f"{task.name}: circuit breaker open (failing fast)",
        ))

    def __repr__(self):
        return f"FanoutDispatcher({self.policy!r})"


def _replay(error, response):
    """Re-raise a worker attempt's ``error``, or return its ``response``."""
    if error is not None:
        raise error
    return response


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
