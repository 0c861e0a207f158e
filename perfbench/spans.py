"""In-memory span recorder and the per-layer self-time table.

The benchmark never edits the program: it records spans by replacing
public callables on the built objects (``engine.fragmenter.fragment``,
each ``source.answer``, ...) with wrappers that time the call.  Each span
keeps its name, start, end, parent, thread and query id.  Spans live in a
list until the run ends; :func:`layer_table` then folds them into
per-layer self times.

Self time is a span's duration minus the part of it its children cover.
Children are clipped to their parent's interval; where several children run
at once (the fan-out's source attempts) each instant is split evenly
among them, so the self times of one query add up to exactly its traced
time.  The query span's own self time is the time no wrapped layer
explains: ``trace.unattributed_ms``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

ROOT = "query"


class Recorder:
    """Collects spans from wrapped callables; one client thread drives it.

    ``install(owner, attribute, layer)`` swaps ``owner.attribute`` for a
    timing wrapper; :meth:`uninstall` restores every original, so one
    deployment can alternate traced and untraced blocks.  ``delay_s``
    maps a layer name to a sleep added inside that layer's wrapper: the
    gate self-test uses it to slow one layer by a known amount.
    """

    def __init__(self, delay_s=None):
        self.spans = []          # (id, name, start, end, parent, thread, query)
        self.counts = Counter()  # layer counters taken from return values
        self.delay_s = dict(delay_s or {})
        self.query_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = None
        self._installed = []
        self._counts_lock = threading.Lock()

    def bump(self, key, amount=1):
        """Add to one counter (thread-safe: fan-out workers call it too)."""
        with self._counts_lock:
            self.counts[key] += amount

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        """Open a span on this thread; returns its handle."""
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            # A worker thread (fan-out attempt) has no stack of its own:
            # its parent is whatever the client thread has open now.
            client = self._client_stack
            parent = client[-1][0] if client else None
        handle = (next(self._ids), name, parent, self.query_id,
                  time.perf_counter())
        stack.append(handle)
        return handle

    def end(self, handle):
        stack = self._stack()
        stack.pop()
        span_id, name, parent, query, start = handle
        self.spans.append((span_id, name, start, time.perf_counter(), parent,
                           threading.get_ident(), query))

    @contextlib.contextmanager
    def query(self, query_id):
        """The root span of one query, opened on the client thread."""
        self.query_id = query_id
        self._client_stack = self._stack()
        handle = self.begin(ROOT)
        try:
            yield
        finally:
            self.end(handle)

    # -- wrappers --------------------------------------------------------

    def install(self, owner, attribute, layer, observe=None, span=True):
        """Time every call of ``owner.attribute`` as a ``layer`` span.

        ``observe(result, args, kwargs)`` runs after a successful call
        and may bump :attr:`counts`; a raised exception is counted as
        ``<layer>.raised`` and ``<layer>.raised.<ExceptionType>``, then
        re-raised unchanged.  ``span=False`` only
        counts, for calls whose time already belongs to their caller.
        """
        original = getattr(owner, attribute)
        had_own = attribute in getattr(owner, "__dict__", {})
        recorder = self
        delay = self.delay_s.get(layer)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            handle = recorder.begin(layer) if span else None
            try:
                if delay:
                    time.sleep(delay)
                result = original(*args, **kwargs)
            except BaseException as error:
                recorder.bump(f"{layer}.raised")
                recorder.bump(f"{layer}.raised.{type(error).__name__}")
                raise
            finally:
                if handle is not None:
                    recorder.end(handle)
            recorder.bump(f"{layer}.calls")
            if observe is not None:
                observe(result, args, kwargs)
            return result

        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, original, had_own))

    def uninstall(self):
        """Restore every wrapped attribute (newest first)."""
        while self._installed:
            owner, attribute, original, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def _shares(parent_start, parent_end, children):
    """Split ``[parent_start, parent_end]`` among overlapping children.

    Returns ``(covered, {child_id: share})``: ``covered`` is the length of
    the union of the clipped child intervals, and each child's share is
    the time it covered, divided evenly wherever ``k`` children overlap.
    """
    points = []
    for child_id, start, end in children:
        start, end = max(start, parent_start), min(end, parent_end)
        if end > start:
            points.append((start, 1, child_id))
            points.append((end, -1, child_id))
    points.sort(key=lambda point: (point[0], point[1]))
    shares = defaultdict(float)
    active = set()
    covered = 0.0
    last = None
    for moment, kind, child_id in points:
        if active and last is not None and moment > last:
            span = moment - last
            covered += span
            each = span / len(active)
            for member in active:
                shares[member] += each
        if kind == 1:
            active.add(child_id)
        else:
            active.discard(child_id)
        last = moment
    return covered, shares


def layer_table(spans):
    """Per-layer self time (seconds) over the traced queries.

    Returns ``(self_s, traced_s, n_queries)``: ``self_s`` maps each layer
    name (``query`` for the unattributed remainder) to its summed self
    time, ``traced_s`` is the summed duration of the query spans.  The
    values of ``self_s`` add up to ``traced_s``.
    """
    by_id = {span[0]: span for span in spans}
    children = defaultdict(list)
    for span in spans:
        if span[4] in by_id:
            children[span[4]].append(span)
    self_s = Counter()
    traced_s = 0.0
    n_queries = 0
    # Walk each query's tree top-down, carrying the fraction of a span's
    # interval that is its own (1.0 unless it ran beside siblings).
    work = []
    for span in spans:
        if span[1] == ROOT:
            traced_s += span[3] - span[2]
            n_queries += 1
            work.append((span, 1.0, span[2], span[3]))
    while work:
        span, scale, start, end = work.pop()
        kids = children.get(span[0], ())
        covered, shares = _shares(
            start, end, [(kid[0], kid[2], kid[3]) for kid in kids]
        )
        self_s[span[1]] += scale * ((end - start) - covered)
        for kid in kids:
            kid_start, kid_end = max(kid[2], start), min(kid[3], end)
            if kid_end <= kid_start:
                continue
            kid_scale = scale * shares.get(kid[0], 0.0) / (kid_end - kid_start)
            work.append((kid, kid_scale, kid_start, kid_end))
    return dict(self_s), traced_s, n_queries


def spans_named(spans, name):
    """Every span of one layer."""
    return [span for span in spans if span[1] == name]


def child_spans(spans, parent_name, child_name):
    """``{parent_id: [child spans]}`` for one parent/child layer pair."""
    parents = {span[0] for span in spans if span[1] == parent_name}
    grouped = defaultdict(list)
    for span in spans:
        if span[1] == child_name and span[4] in parents:
            grouped[span[4]].append(span)
    return grouped
