"""The structured event log — the pipeline's durable diagnostic stream.

Spans answer "where did the time go" and metrics answer "how often"; the
event log answers "*what happened*, in order" — refusals, violation
notices, breaker transitions, cache invalidations, snooper-watch alerts —
as structured, timestamped records a human or a downstream collector can
replay.  The paper's disclosure argument (§3.3, Figure 1) needs exactly
this: privacy is violated by *sequences* of individually-safe queries, so
the sequence itself must be observable after the fact.

* :class:`Event` — one named occurrence with a monotonic sequence number,
  a wall-clock timestamp, and a flat attribute dict;
* :class:`EventLog` — a thread-safe bounded ring of recent events, with
  an optional **sink** every emitted event is offered to;
* :class:`JsonlSink` — an asynchronous JSON-Lines file writer with a
  bounded hand-off queue: when the queue is full the event is *dropped*
  (and counted) rather than blocking the query path — backpressure never
  reaches ``pose()``.

When telemetry is disabled every component holds :data:`NOOP_EVENTS`,
whose ``emit`` allocates nothing and returns ``None``, so the disabled
query path stays allocation-free (the overhead-guard test in
``tests/telemetry/test_overhead.py`` pins this).
"""

from __future__ import annotations

import json
import queue
import threading
import time
from collections import deque

from repro.errors import ReproError

#: Sentinel shutting down a sink's writer thread.
_CLOSE = object()


class Event:
    """One structured occurrence in the pipeline."""

    __slots__ = ("seq", "name", "ts", "attributes")

    def __init__(self, seq, name, ts, attributes):
        self.seq = seq
        self.name = name
        self.ts = ts  # wall-clock (time.time) seconds
        self.attributes = attributes

    def to_dict(self):
        """Flat, JSON-serializable form (the JSONL sink's record shape)."""
        return {
            "seq": self.seq,
            "name": self.name,
            "ts": self.ts,
            "attributes": dict(self.attributes),
        }

    def __repr__(self):
        return f"Event(#{self.seq} {self.name} {self.attributes})"


class EventLog:
    """Thread-safe bounded ring of events, with an optional sink.

    ``emit()`` is the single write path: it stamps a sequence number,
    appends to the ring (oldest events fall off), and offers the event to
    the sink if one is attached.  A sink that cannot keep up *drops* the
    event — ``dropped_events`` counts every loss, ring displacement is
    not a loss (the ring is a window by design).
    """

    def __init__(self, max_events=2048, sink=None, clock=time.time):
        if max_events < 1:
            raise ReproError("max_events must be >= 1")
        self._ring = deque(maxlen=max_events)
        self._lock = threading.Lock()
        self._seq = 0
        self._clock = clock
        self.sink = sink
        self._listeners = []

    @property
    def enabled(self):
        return True

    def subscribe(self, listener):
        """Register ``listener(event)``, called synchronously after every
        emit (outside the ring lock).

        Listeners are for in-process reactions — the flight recorder's
        anomaly triggers, the persistence epoch bridge — and must be
        fast and non-raising; a listener exception propagates to the
        emitter.  Returns ``listener`` so callers can keep the handle
        for :meth:`unsubscribe`.
        """
        with self._lock:
            self._listeners = [*self._listeners, listener]
        return listener

    def unsubscribe(self, listener):
        """Remove a previously subscribed listener (missing is a no-op)."""
        with self._lock:
            self._listeners = [
                entry for entry in self._listeners if entry is not listener
            ]

    def emit(self, name, **attributes):
        """Record one event; returns it."""
        with self._lock:
            self._seq += 1
            event = Event(self._seq, name, self._clock(), attributes)
            self._ring.append(event)
        sink = self.sink
        if sink is not None:
            sink.offer(event.to_dict())
        # copy-on-write list: safe to read without the lock, and the
        # common no-listener case costs one truthiness check.
        for listener in self._listeners:
            listener(event)
        return event

    # -- reading -----------------------------------------------------------

    def events(self, name=None, requester=None):
        """Retained events, oldest first, optionally filtered.

        ``name`` matches exactly or as a dotted prefix (``"cache"``
        matches ``cache.invalidation``); ``requester`` matches the
        event's ``requester`` attribute.
        """
        with self._lock:
            snapshot = list(self._ring)
        if name is not None:
            prefix = name + "."
            snapshot = [e for e in snapshot
                        if e.name == name or e.name.startswith(prefix)]
        if requester is not None:
            snapshot = [e for e in snapshot
                        if e.attributes.get("requester") == requester]
        return snapshot

    def tail(self, n=20):
        """The ``n`` newest events, oldest first."""
        with self._lock:
            snapshot = list(self._ring)
        return snapshot[-n:]

    def mark(self):
        """The current sequence number (for :meth:`since` windows)."""
        with self._lock:
            return self._seq

    def since(self, mark):
        """Events emitted after sequence number ``mark``, oldest first.

        Sequence numbers rise along the ring, so the scan runs from the
        newest end and stops at the first event at or before ``mark``:
        a settle reads its own pose's few events, not the whole ring.
        """
        window = []
        with self._lock:
            for event in reversed(self._ring):
                if event.seq <= mark:
                    break
                window.append(event)
        window.reverse()
        return window

    @property
    def dropped_events(self):
        """Events lost to sink backpressure (ring displacement excluded)."""
        sink = self.sink
        return sink.dropped if sink is not None else 0

    def __len__(self):
        with self._lock:
            return len(self._ring)

    def clear(self):
        """Drop the ring (sequence numbers keep advancing)."""
        with self._lock:
            self._ring.clear()

    def close(self):
        """Close the attached sink, if any (flushes pending events)."""
        sink = self.sink
        if sink is not None:
            sink.close()

    def __repr__(self):
        return f"EventLog(n={len(self)}, seq={self.mark()})"


class JsonlSink:
    """Asynchronous JSON-Lines writer with drop-on-backpressure.

    Events are handed to a daemon writer thread through a bounded queue;
    ``offer()`` never blocks — a full queue drops the record and counts
    it in ``dropped``.  ``close()`` flushes everything already queued and
    joins the writer.  The output is one JSON object per line, append-mode,
    so several runs can share a file and ``python -m repro.telemetry.report``
    can replay it.
    """

    def __init__(self, path, max_queue=1024, encoding="utf-8"):
        if max_queue < 1:
            raise ReproError("max_queue must be >= 1")
        self.path = str(path)
        self._queue = queue.Queue(maxsize=max_queue)
        self._dropped = 0
        self._dropped_lock = threading.Lock()
        self.written = 0
        self._closed = False
        self._encoding = encoding
        self._thread = threading.Thread(
            target=self._drain, name="repro-jsonl-sink", daemon=True
        )
        self._thread.start()

    @property
    def dropped(self):
        with self._dropped_lock:
            return self._dropped

    def offer(self, record):
        """Enqueue ``record`` (a dict); returns False when dropped."""
        if self._closed:
            return self._drop()
        try:
            self._queue.put_nowait(record)
            return True
        except queue.Full:
            return self._drop()

    def _drop(self):
        with self._dropped_lock:
            self._dropped += 1
        return False

    def _drain(self):
        with open(self.path, "a", encoding=self._encoding) as handle:
            while True:
                record = self._queue.get()
                if record is _CLOSE:
                    handle.flush()
                    return
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                # repro-lint: disable=REP011 -- only the single
                # writer thread mutates `written`; cross-thread reads
                # are advisory (repr, tests poll after close()).
                self.written += 1
                if self._queue.empty():
                    handle.flush()

    def close(self, timeout=5.0):
        """Stop accepting events, flush the queue, join the writer."""
        if self._closed:
            return
        # repro-lint: disable=REP011 -- benign single-flag race:
        # a concurrent offer() at worst enqueues before the blocking
        # _CLOSE sentinel below, which still flushes it.
        self._closed = True
        # blocking put: everything offered before close() still lands
        self._queue.put(_CLOSE)
        self._thread.join(timeout=timeout)

    def __repr__(self):
        return (f"JsonlSink({self.path!r}, written={self.written}, "
                f"dropped={self.dropped})")


class NoopEventLog:
    """Event log used when telemetry is disabled: records nothing."""

    __slots__ = ()
    sink = None
    dropped_events = 0

    @property
    def enabled(self):
        return False

    def emit(self, name, **attributes):
        return None

    def subscribe(self, listener):
        return listener

    def unsubscribe(self, listener):
        pass

    def events(self, name=None, requester=None):
        return []

    def tail(self, n=20):
        return []

    def mark(self):
        return 0

    def since(self, mark):
        return []

    def __len__(self):
        return 0

    def clear(self):
        pass

    def close(self):
        pass


NOOP_EVENTS = NoopEventLog()


def resolve_events(events=None, max_events=2048):
    """Normalize an ``events`` constructor argument into an event log.

    ``None``/``True`` → a fresh :class:`EventLog`; ``False`` →
    :data:`NOOP_EVENTS`; a string or path-like → an :class:`EventLog`
    draining into a :class:`JsonlSink` at that path; an existing
    :class:`EventLog`/:class:`NoopEventLog` passes through.
    """
    if events is None or events is True:
        return EventLog(max_events=max_events)
    if events is False:
        return NOOP_EVENTS
    if isinstance(events, (EventLog, NoopEventLog)):
        return events
    if isinstance(events, (str, bytes)) or hasattr(events, "__fspath__"):
        return EventLog(max_events=max_events, sink=JsonlSink(events))
    raise ReproError(
        "events must be None, a bool, a JSONL path, or an EventLog, "
        f"not {type(events).__name__}"
    )
