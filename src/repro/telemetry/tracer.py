"""Zero-dependency tracing for the mediation pipeline.

A :class:`Tracer` hands out :class:`Span` context managers; spans nest via
a thread-local stack, so a source-side span opened while the mediator's
``pose`` span is active automatically becomes its child — no context
object needs to be threaded through the call chain.  Finished root spans
are kept in a bounded buffer for inspection (``Tracer.finished``,
``Tracer.last_root``).

When telemetry is disabled the engine uses :class:`NoopTracer`, whose
``span()`` returns one shared, pre-allocated :class:`NoopSpan` — entering
it, setting attributes on it, and exiting it allocate nothing, keeping the
disabled-path overhead to a single attribute lookup and method call.

Timing uses ``time.perf_counter`` and is reported in milliseconds.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import threading
import time
from collections import deque

_TRACE_COUNTER = itertools.count(1)


def new_trace_id():
    """A fresh process-unique trace id (``t-<pid>-<counter>``).

    Ids are plain strings so they serialize through WAL records and —
    by design — across a future process-pool boundary.  ``count.__next__``
    is atomic under the GIL, so no lock is needed.
    """
    return f"t-{os.getpid():x}-{next(_TRACE_COUNTER):08x}"


class Span:
    """One timed, attributed region of the pipeline.

    Use as a context manager (``with tracer.span("stage") as span:``);
    attach attributes with :meth:`set`.  ``duration_ms`` is available
    after exit (it reads the running clock while the span is open).

    ``parent`` is the *cross-thread* escape hatch: a span opened on a
    worker thread (where the thread-local stack is empty) with an
    explicit parent becomes that parent's child instead of a new root —
    how the fan-out dispatcher keeps per-source attempts nested under
    ``mediator.pose`` even though they run on pool threads.  When the
    local stack is non-empty the stack parent wins, so nested spans on
    the worker thread behave normally.
    """

    __slots__ = ("name", "attributes", "children", "start", "end",
                 "_tracer", "parent", "trace_id")

    def __init__(self, name, tracer, attributes=None, parent=None,
                 trace_id=None):
        self.name = name
        self.attributes = dict(attributes) if attributes else {}
        self.children = []
        self.start = None
        self.end = None
        self._tracer = tracer
        self.parent = parent
        self.trace_id = trace_id

    def set(self, **attributes):
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    @property
    def duration_ms(self):
        """Elapsed milliseconds (live while the span is still open)."""
        if self.start is None:
            return 0.0
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def __enter__(self):
        self.start = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def to_dict(self):
        """Nested plain-dict form (JSON-serializable)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self):
        return f"Span({self.name!r}, {self.duration_ms:.3f}ms)"


class Tracer:
    """Hands out nesting spans; retains finished roots in a ring buffer."""

    def __init__(self, max_roots=256):
        self._local = threading.local()
        self._finished = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        # thread ident -> that thread's open-span stack (the list object
        # itself; only its owning thread mutates it).  The sampling
        # profiler reads these cross-thread to attribute stack samples to
        # mediation stages — see ``active_stages``.
        self._thread_stacks = {}

    # -- span lifecycle ----------------------------------------------------

    def span(self, name, parent=None, trace_id=None, **attributes):
        """Create a span; enter it (``with``) to start the clock.

        ``parent`` explicitly parents the span under an open span from
        *another* thread (see :class:`Span`); it is ignored when this
        thread already has an open span to nest under.  ``trace_id``
        pins the span to an existing trace; left ``None`` it inherits
        from the enclosing span, the explicit parent, or the ambient
        context installed by :meth:`activate` — and a root span with no
        inheritance source mints a fresh id.
        """
        return Span(name, self, attributes, parent=parent, trace_id=trace_id)

    def current(self):
        """The innermost open span on this thread (or None)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_trace_id(self):
        """The trace id in effect on this thread (or None).

        Resolution order: innermost open span, then the ambient context
        installed by :meth:`activate`.
        """
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1].trace_id
        ambient = getattr(self._local, "ambient", None)
        return ambient[0] if ambient else None

    @contextlib.contextmanager
    def activate(self, trace_id=None, parent=None):
        """Install an ambient trace context on *this* thread.

        Root spans opened while the context is active inherit
        ``trace_id`` (minted fresh when ``None``) and — when ``parent``
        is given — attach under that cross-thread parent span exactly as
        if it had been passed to :meth:`span` explicitly.  Contexts nest;
        the previous ambient context is restored on exit.  This is how a
        captured :class:`~repro.telemetry.obs.context.TraceContext` is
        restored on executor workers.
        """
        if trace_id is None:
            trace_id = new_trace_id()
        previous = getattr(self._local, "ambient", None)
        self._local.ambient = (trace_id, parent)
        try:
            yield trace_id
        finally:
            self._local.ambient = previous

    def _push(self, span):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._thread_stacks[threading.get_ident()] = stack
        if stack:
            parent = stack[-1]
            parent.children.append(span)
            if span.trace_id is None:
                span.trace_id = parent.trace_id
        else:
            if span.parent is None:
                ambient = getattr(self._local, "ambient", None)
                if ambient is not None:
                    if span.trace_id is None:
                        span.trace_id = ambient[0]
                    span.parent = ambient[1]
            if span.parent is not None:
                # CPython list.append is atomic, so cross-thread children
                # attach safely even while the parent is still open.
                span.parent.children.append(span)
                if span.trace_id is None:
                    span.trace_id = span.parent.trace_id
            if span.trace_id is None:
                span.trace_id = new_trace_id()
        stack.append(span)

    def _pop(self, span):
        stack = getattr(self._local, "stack", None)
        if not stack or stack[-1] is not span:
            return  # unbalanced exit; drop silently rather than corrupt
        stack.pop()
        if not stack and span.parent is None:
            with self._lock:
                self._finished.append(span)

    def active_stages(self):
        """``{thread_ident: (stage_name, trace_id)}`` for open spans.

        A cross-thread snapshot of the innermost open span per thread,
        used by the sampling profiler to attribute stack samples to
        mediation lifecycle stages.  Reading a list another thread
        appends to is safe under the GIL; a momentarily torn read costs
        one mis-attributed sample, never a crash.
        """
        with self._lock:
            items = list(self._thread_stacks.items())
        stages = {}
        dead = []
        for ident, stack in items:
            if stack:
                top = stack[-1]
                stages[ident] = (top.name, top.trace_id)
            elif not any(t.ident == ident for t in threading.enumerate()):
                dead.append(ident)
        if dead:
            with self._lock:
                for ident in dead:
                    self._thread_stacks.pop(ident, None)
        return stages

    # -- inspection --------------------------------------------------------

    @property
    def finished(self):
        """Finished root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def last_root(self):
        """The most recently finished root span (or None)."""
        with self._lock:
            return self._finished[-1] if self._finished else None

    def reset(self):
        """Drop all finished spans (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()


class NoopSpan:
    """A span that records nothing; one shared instance serves all sites."""

    __slots__ = ()

    def set(self, **attributes):
        return self

    @property
    def duration_ms(self):
        return 0.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def to_dict(self):
        return {"name": "<noop>", "trace_id": None, "duration_ms": 0.0,
                "attributes": {}, "children": []}


NOOP_SPAN = NoopSpan()
NoopSpan.trace_id = None
NoopSpan.parent = None


class NoopTracer:
    """Tracer used when telemetry is disabled: allocation-free spans."""

    __slots__ = ()

    def span(self, name, parent=None, trace_id=None, **attributes):
        return NOOP_SPAN

    def current(self):
        return None

    def current_trace_id(self):
        return None

    def activate(self, trace_id=None, parent=None):
        return contextlib.nullcontext(trace_id)

    def active_stages(self):
        return {}

    @property
    def finished(self):
        return []

    def last_root(self):
        return None

    def reset(self):
        pass


NOOP_TRACER = NoopTracer()
