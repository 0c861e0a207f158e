"""Trace-id semantics: minting, inheritance, and TraceContext hand-off.

The cross-context propagation contract: every root span mints (or
inherits) a ``trace_id``, children share their parent's, and a
:class:`TraceContext` captured on one thread re-parents spans opened on
another — the mechanism the dispatcher and batch pipeline use to keep
one pose's work under one id across threads.
"""

import threading

from repro.telemetry import Telemetry
from repro.telemetry.obs.context import EMPTY_CONTEXT, TraceContext
from repro.telemetry.tracer import new_trace_id


def make_tracer():
    return Telemetry(enabled=True).tracer


class TestSpanTraceIds:
    def test_root_span_mints_a_trace_id(self):
        tracer = make_tracer()
        with tracer.span("root") as span:
            assert span.trace_id is not None
            assert span.trace_id.startswith("t-")

    def test_children_inherit_the_root_id(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    assert child.trace_id == root.trace_id
                    assert grandchild.trace_id == root.trace_id

    def test_distinct_roots_get_distinct_ids(self):
        tracer = make_tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id

    def test_explicit_trace_id_wins(self):
        tracer = make_tracer()
        with tracer.span("root", trace_id="t-pinned") as span:
            assert span.trace_id == "t-pinned"

    def test_to_dict_carries_the_trace_id(self):
        tracer = make_tracer()
        with tracer.span("root") as span:
            pass
        assert span.to_dict()["trace_id"] == span.trace_id

    def test_new_trace_id_is_unique(self):
        ids = {new_trace_id() for _ in range(100)}
        assert len(ids) == 100

    def test_current_trace_id_follows_the_stack(self):
        tracer = make_tracer()
        assert tracer.current_trace_id() is None
        with tracer.span("root") as span:
            assert tracer.current_trace_id() == span.trace_id
        assert tracer.current_trace_id() is None


class TestActivate:
    def test_activate_seeds_new_roots(self):
        tracer = make_tracer()
        with tracer.activate("t-ambient"):
            with tracer.span("root") as span:
                assert span.trace_id == "t-ambient"
        with tracer.span("after") as after:
            assert after.trace_id != "t-ambient"

    def test_activate_restores_previous_ambient(self):
        tracer = make_tracer()
        with tracer.activate("t-outer"):
            with tracer.activate("t-inner"):
                with tracer.span("inner") as inner:
                    pass
            with tracer.span("outer") as outer:
                pass
        assert inner.trace_id == "t-inner"
        assert outer.trace_id == "t-outer"

    def test_activate_parents_under_the_live_span(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            def worker():
                with tracer.activate(root.trace_id, parent=root):
                    with tracer.span("remote"):
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert [child.name for child in root.children] == ["remote"]
        assert root.children[0].trace_id == root.trace_id


class TestActiveStages:
    def test_reports_open_spans_across_threads(self):
        tracer = make_tracer()
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def worker():
            with tracer.span("mediator.fanout.attempt") as span:
                seen["trace_id"] = span.trace_id
                entered.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=5.0)
        try:
            stages = tracer.active_stages()
            assert (("mediator.fanout.attempt", seen["trace_id"])
                    in stages.values())
        finally:
            release.set()
            thread.join()

    def test_dead_threads_are_pruned(self):
        tracer = make_tracer()

        def worker():
            with tracer.span("ephemeral"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert thread.ident not in tracer.active_stages()


class TestTraceContext:
    def test_capture_outside_any_span_is_empty(self):
        tracer = make_tracer()
        context = TraceContext.capture(tracer)
        assert context is EMPTY_CONTEXT
        assert not context

    def test_capture_inside_a_span(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            context = TraceContext.capture(tracer)
        assert context.trace_id == root.trace_id
        assert context.parent is root
        assert context

    def test_ensure_mints_when_empty(self):
        tracer = make_tracer()
        context = TraceContext.ensure(tracer)
        assert context.trace_id is not None

    def test_dict_round_trip_drops_the_live_parent(self):
        tracer = make_tracer()
        with tracer.span("root") as root:
            context = TraceContext.capture(tracer)
        payload = context.to_dict()
        assert payload == {"trace_id": root.trace_id}
        restored = TraceContext.from_dict(
            {"kind": "pose", "seq": 7, **payload}
        )
        assert restored.trace_id == root.trace_id
        assert restored.parent is None

    def test_from_dict_without_id_is_empty(self):
        assert not TraceContext.from_dict({"kind": "pose"})
        assert not TraceContext.from_dict(None)

    def test_activate_crosses_threads(self):
        tracer = make_tracer()
        with tracer.span("origin") as origin:
            context = TraceContext.capture(tracer)
        captured = {}

        def worker():
            with context.activate(tracer):
                with tracer.span("remote") as span:
                    captured["trace_id"] = span.trace_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert captured["trace_id"] == origin.trace_id

    def test_empty_activate_is_a_noop(self):
        tracer = make_tracer()
        with EMPTY_CONTEXT.activate(tracer):
            with tracer.span("fresh") as span:
                assert span.trace_id is not None
