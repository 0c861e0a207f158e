"""Explicit trace-context capture/restore — spans across thread pools.

The tracer's span stack is thread-local by design (PR 1): a span opened
on the thread that opened its parent nests automatically.  Executor
fan-out breaks that — the dispatcher's worker threads and
``pose_many``'s batch pipeline run work that *belongs* to a
``mediator.pose`` but starts on a thread with an empty stack.  :class:`TraceContext` is the hand-off object: capture it where
the trace is ambient, ship it to the other thread (it is a two-field
value object), and ``activate`` it there so every span the worker opens
carries the originating trace id.

The context is **serializable by design**: ``to_dict``/``from_dict``
round-trip through JSON, so a trace id can cross a process-pool
boundary without carrying live ``Span`` references (those stay
in-process via the optional ``parent`` field).  Persisted pose records
need none of this: the engine stamps the pose's ``trace_id`` into the
WAL record on the posing thread.
"""

from __future__ import annotations

import contextlib

from repro.telemetry.tracer import new_trace_id


class TraceContext:
    """A portable snapshot of "which trace is this thread working for".

    ``trace_id`` is the propagated identity; ``parent`` is an optional
    in-process :class:`~repro.telemetry.tracer.Span` reference that lets
    worker-thread spans attach under the originating span (the fan-out
    dispatcher uses it).  ``parent`` is deliberately dropped by
    ``to_dict`` — across a serialization boundary only the id travels,
    and restored spans become new roots sharing the trace id.
    """

    __slots__ = ("trace_id", "parent")

    def __init__(self, trace_id=None, parent=None):
        self.trace_id = trace_id
        self.parent = parent

    @classmethod
    def capture(cls, tracer):
        """Snapshot the calling thread's ambient trace on ``tracer``.

        Returns the shared :data:`EMPTY_CONTEXT` when there is nothing
        to capture (no open span, no ambient context — including the
        no-op tracer), so the disabled-telemetry path allocates nothing.
        """
        trace_id = tracer.current_trace_id()
        parent = tracer.current()
        if trace_id is None and parent is None:
            return EMPTY_CONTEXT
        return cls(trace_id, parent)

    @classmethod
    def ensure(cls, tracer):
        """Like :meth:`capture`, but mints a fresh trace id when the
        calling thread has none — for entry points (``pose_many``) that
        must own a trace id before fanning work out."""
        context = cls.capture(tracer)
        if context.trace_id is None:
            return cls(new_trace_id(), context.parent)
        return context

    def activate(self, tracer):
        """Context manager installing this context on the current thread.

        Inside the ``with`` block, root spans opened on this thread
        inherit :attr:`trace_id` and (when set) attach under
        :attr:`parent`.  An empty context activates as a no-op, so call
        sites need no ``if`` around the disabled-telemetry path.
        """
        if self.trace_id is None and self.parent is None:
            return contextlib.nullcontext(None)
        return tracer.activate(self.trace_id, self.parent)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        """JSON-serializable form (``parent`` intentionally dropped)."""
        return {"trace_id": self.trace_id}

    @classmethod
    def from_dict(cls, payload):
        """Rebuild from :meth:`to_dict` output (or any record carrying a
        ``trace_id`` key); missing/None ids give the empty context."""
        trace_id = (payload or {}).get("trace_id")
        if trace_id is None:
            return EMPTY_CONTEXT
        return cls(trace_id)

    def __bool__(self):
        return self.trace_id is not None or self.parent is not None

    def __repr__(self):
        return f"TraceContext({self.trace_id!r})"


#: Shared "nothing to propagate" context (telemetry disabled, or no
#: span open at capture time).  Activating it is a no-op.
EMPTY_CONTEXT = TraceContext()
