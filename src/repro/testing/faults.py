"""Seeded fault injection for sources: delays, transients, hangs, refusals.

The fan-out dispatcher's whole job is surviving misbehaving sources, so
its tests need sources that misbehave *on demand and deterministically*.
A :class:`FaultSchedule` is a scripted (or seeded-random) sequence of
events — one consumed per ``answer()`` call — and a :class:`FlakySource`
wraps a real :class:`~repro.source.server.RemoteSource`, replaying the
schedule in front of the genuine pipeline:

====================  ====================================================
event                 behaviour of the wrapped ``answer()``
====================  ====================================================
``("ok",)``           delegate straight through
``("delay", s)``      sleep ``s`` seconds, then delegate (slow source)
``("transient", ...)``raise :class:`~repro.errors.TransientSourceError`
``("hang", s)``       sleep ``s`` seconds *then delegate* — paired with a
                      dispatcher deadline shorter than ``s``, this is a
                      hung source the coordinator must abandon
``("refuse", ...)``   raise :class:`~repro.errors.PrivacyViolation` —
                      a final policy answer, must never be retried
====================  ====================================================

Schedules are thread-safe (attempts arrive from pool workers) and
deterministic: :meth:`FaultSchedule.seeded` drives event choice from
``random.Random(seed)`` alone, so the same seed yields the same faults
regardless of thread interleaving.  Exhausted schedules return ``ok``.

:func:`build_flaky_system` builds a ready-to-query
:class:`~repro.core.system.PrivateIye` whose sources are all wrapped —
the shared fixture of the fault suites and ``benchmarks/bench_fanout.py``.
"""

from __future__ import annotations

import random
import threading
import time

from repro.errors import PrivacyViolation, ReproError, TransientSourceError

OK = ("ok",)

_EVENT_KINDS = ("ok", "delay", "transient", "hang", "refuse")


class FaultSchedule:
    """A scripted sequence of fault events, one per wrapped call.

    Build explicitly (``FaultSchedule([("transient",), ("ok",)])``) for
    exact scenarios, or with :meth:`seeded` for property-style tests and
    benchmarks.  ``take()`` pops the next event; after the script runs
    out every call is ``("ok",)``.
    """

    def __init__(self, events=()):
        checked = []
        for event in events:
            event = tuple(event)
            if not event or event[0] not in _EVENT_KINDS:
                raise ReproError(f"unknown fault event {event!r}")
            checked.append(event)
        self._events = checked
        self._cursor = 0
        self._lock = threading.Lock()
        self.consumed = []  # every event handed out, in call order

    @classmethod
    def seeded(cls, seed, calls, transient_rate=0.0, refuse_rate=0.0,
               delay_rate=0.0, hang_rate=0.0, delay_s=0.02, hang_s=0.25):
        """A ``calls``-long schedule drawn from ``random.Random(seed)``.

        Rates are independent probabilities checked in the order
        transient → refuse → hang → delay; whatever remains is ``ok``.
        Identical arguments always produce the identical schedule.
        """
        rng = random.Random(seed)
        events = []
        for _ in range(calls):
            roll = rng.random()
            if roll < transient_rate:
                events.append(("transient",))
            elif roll < transient_rate + refuse_rate:
                events.append(("refuse",))
            elif roll < transient_rate + refuse_rate + hang_rate:
                events.append(("hang", hang_s))
            elif roll < (transient_rate + refuse_rate + hang_rate
                         + delay_rate):
                events.append(("delay", delay_s))
            else:
                events.append(OK)
        return cls(events)

    @classmethod
    def always(cls, event, calls):
        """``calls`` repetitions of one event (then ``ok`` forever)."""
        return cls([tuple(event)] * calls)

    def take(self):
        """The next event (thread-safe); ``("ok",)`` once exhausted."""
        with self._lock:
            if self._cursor < len(self._events):
                event = self._events[self._cursor]
                self._cursor += 1
            else:
                event = OK
            self.consumed.append(event)
            return event

    @property
    def remaining(self):
        with self._lock:
            return len(self._events) - self._cursor

    def __len__(self):
        return len(self._events)

    def __repr__(self):
        return f"FaultSchedule({len(self._events)} events, {self.remaining} left)"


class FlakySource:
    """A :class:`RemoteSource` wrapper that replays a fault schedule.

    Ducks as a ``RemoteSource`` for everything the mediation engine
    needs — ``name``, ``policy_store``, ``table``, the ``telemetry``
    and ``plan_tier`` properties (the engine assigns both at
    registration) — and intercepts
    only :meth:`answer`.  Register it with
    ``engine.register_source(FlakySource(remote, schedule))``.

    ``calls`` counts every intercepted ``answer()``; ``faults_injected``
    counts the non-``ok`` events actually replayed.  Both are visible
    after a dispatch to assert e.g. "the refusal was not retried".
    """

    def __init__(self, inner, schedule=None, sleep=time.sleep):
        self._inner = inner
        self.schedule = schedule or FaultSchedule()
        self._sleep = sleep
        self.calls = 0
        self._calls_lock = threading.Lock()
        self.faults_injected = 0

    # -- RemoteSource surface the engine touches ---------------------------

    @property
    def name(self):
        return self._inner.name

    @property
    def telemetry(self):
        return self._inner.telemetry

    @telemetry.setter
    def telemetry(self, value):
        # repro-lint: disable=REP011 -- harness wiring: the engine sets
        # telemetry on registration, before any fan-out thread exists.
        self._inner.telemetry = value

    @property
    def plan_tier(self):
        return self._inner.plan_tier

    @plan_tier.setter
    def plan_tier(self, value):
        # repro-lint: disable=REP011 -- harness wiring, as for telemetry.
        self._inner.plan_tier = value

    def __getattr__(self, attribute):
        # policy_store, table, queries_answered, ... — delegate untouched.
        return getattr(self._inner, attribute)

    # -- the intercepted call ----------------------------------------------

    def answer(self, piql, requester=None, role=None, subjects=(),
               shared=None):
        with self._calls_lock:
            self.calls += 1
        event = self.schedule.take()
        kind = event[0]
        if kind != "ok":
            with self._calls_lock:
                self.faults_injected += 1
        if kind == "transient":
            raise TransientSourceError(
                f"{self.name}: injected transient fault"
            )
        if kind == "refuse":
            raise PrivacyViolation(f"{self.name}: injected policy refusal")
        if kind in ("delay", "hang"):
            self._sleep(event[1] if len(event) > 1 else 0.05)
        # the engine's per-pose plan memo rides through the fault layer
        return self._inner.answer(
            piql, requester=requester, role=role, subjects=subjects,
            shared=shared,
        )

    def __repr__(self):
        return f"FlakySource({self.name!r}, {self.schedule!r})"


_POLICY_TEMPLATE = """
POLICY {name} DEFAULT deny {{
    ALLOW //patient/age FOR research;
    ALLOW //patient/visits FOR research;
}}
"""


def build_flaky_system(n_sources, schedule_for=None, rows_per_source=8,
                       seed=7, dispatch=None, telemetry=None, cache=True,
                       noise_epsilon=None, rbac=None):
    """A :class:`PrivateIye` whose every source is a :class:`FlakySource`.

    ``schedule_for(name, index)`` returns the :class:`FaultSchedule` for
    each source (default: no faults).  Tables share the mediated
    attributes ``age``/``visits`` with seeded per-source values, so any
    two builds with the same arguments expose identical data — the basis
    of the sequential-vs-concurrent (and cached-vs-uncached) equivalence
    properties.  ``cache`` is forwarded to :class:`PrivateIye` — pass
    ``False`` (with ``warehouse_mode`` left hybrid or switched off via
    ``use_warehouse=False`` at pose time) for an always-recompute
    baseline, or a preconfigured ``MediationCache``.

    ``seed`` drives the table data *and* seeds the system
    (``PrivateIye(seed=seed)``), so with ``noise_epsilon`` set every
    source gets a Laplace output mechanism whose noise stream derives
    deterministically from the one seed — two builds with identical
    arguments answer aggregates with identical noise.  ``rbac`` (an
    :class:`~repro.access.RbacPolicy`) guards every source.

    Returns ``(system, {name: FlakySource})``.
    """
    from repro.core.system import PrivateIye
    from repro.relational.catalog import Catalog
    from repro.relational.table import Table
    from repro.source.server import RemoteSource

    system = PrivateIye(telemetry=telemetry, dispatch=dispatch, cache=cache,
                        seed=seed)
    rng = random.Random(seed)
    flaky = {}
    for index in range(n_sources):
        name = f"src{index:02d}"
        system.load_policies(_POLICY_TEMPLATE.format(name=name))
        rows = [
            {"age": 20 + rng.randrange(60),
             "visits": rng.randrange(12),
             "name": f"{name}-p{i}"}
            for i in range(rows_per_source)
        ]
        table = Table.from_dicts("patients", rows)
        catalog = Catalog(name)
        catalog.add(table)
        mechanism = None
        if noise_epsilon is not None:
            from repro.statdb.laplace import LaplaceMechanism

            mechanism = LaplaceMechanism(
                noise_epsilon, rng=system.spawn_rng()
            )
        remote = RemoteSource(
            name, catalog, "patients", system.policy_store.replicate(),
            rbac=rbac, pseudonym_secret=system.engine.shared_secret,
            output_mechanism=mechanism,
        )
        schedule = schedule_for(name, index) if schedule_for else None
        wrapped = FlakySource(remote, schedule)
        system.engine.register_source(wrapped)
        flaky[name] = wrapped
    return system, flaky
