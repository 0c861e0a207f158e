"""Differential over many poses on one long-lived dispatcher.

A dispatcher keeps state from pose to pose: its circuit breakers and its
idle worker threads, which every later dispatch reuses.  Hypothesis
draws fault schedules of transients, refusals and short delays, and a
sequence of queries.  The same deployment poses the whole sequence once
with every source on the dispatcher's workers and once under
``mode="sequential"`` (every attempt in-line on the posing thread).  No
schedule hangs and no deadline is set, so timing cannot decide an
outcome: transcripts, retries, breaker transitions and refusal messages
must be equal, and a source that always refuses is called exactly once
per pose.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.mediator.dispatch import DispatchPolicy
from repro.testing import FaultSchedule, FlakySource, build_flaky_system
from tests.mediator.test_fanout_properties import (
    normalize_timing,
    result_bytes,
)

N_SOURCES = 4
NAMES = [f"src{i:02d}" for i in range(N_SOURCES)]

EVENTS = st.sampled_from([
    ("ok",), ("transient",), ("transient",), ("refuse",),
    ("delay", 0.0), ("delay", 0.001), ("delay", 0.002),
])

SCENARIOS = st.fixed_dictionaries({
    "schedules": st.lists(st.lists(EVENTS, min_size=1, max_size=12),
                          min_size=N_SOURCES, max_size=N_SOURCES),
    "refusers": st.sets(st.sampled_from(NAMES), max_size=2),
    "thresholds": st.lists(st.integers(20, 79), min_size=2, max_size=8,
                           unique=True),
    "retries": st.integers(1, 2),
    "threshold": st.integers(1, 3),
    "partial": st.sampled_from(["best_effort", "require_all",
                                ("quorum", 2)]),
})

REUSE = settings(max_examples=40, deadline=None, derandomize=True)


def pose_sequence(scenario, mode):
    """Pose the scenario's queries on one deployment; what it shows."""
    texts = [f"SELECT //patient/age WHERE //patient/age >= {low} "
             f"PURPOSE research" for low in scenario["thresholds"]]
    poses = len(texts)

    def schedule_for(name, index):
        if name in scenario["refusers"]:
            events = [("refuse",)] * poses
        else:
            events = list(scenario["schedules"][index])
        # a trailing delay makes every source one that can block, so the
        # concurrent run puts all of them on the workers
        return FaultSchedule(events + [("delay", 0.0)])

    # a cooldown longer than the test: breaker history depends on the
    # schedules alone, never on time
    policy = DispatchPolicy(
        mode=mode, retries=scenario["retries"], backoff_base_s=0.0005,
        breaker_threshold=scenario["threshold"], breaker_cooldown_s=600.0,
        partial=scenario["partial"],
    )
    system, flaky = build_flaky_system(
        N_SOURCES, schedule_for=schedule_for, telemetry=True, dispatch=policy,
    )
    assert all(source.can_block for source in flaky.values())
    transcript = []
    for text in texts:
        try:
            result = system.query(text, requester="reuse")
        except ReproError as error:
            transcript.append((type(error).__name__, str(error)))
        else:
            transcript.append(("answered", result_bytes(result)))
    reports = [normalize_timing(report.to_dict())
               for report in system.telemetry.explain.reports()]
    for report in reports:
        # the one field that names the executor
        assert report["dispatch"].pop("mode") == mode
        assert report["dispatch"].pop("policy").startswith(f"{mode}/")
    return {
        "transcript": transcript,
        "ledgers": reports,
        "retries": sum(outcome.get("retries", 0) for report in reports
                       for outcome in report["sources"].values()),
        "transitions": [
            dict(event.attributes)
            for event in system.telemetry.events.events(
                "dispatch.breaker_transition")
        ],
        "calls": {name: source.calls for name, source in flaky.items()},
        "poses": poses,
    }


@REUSE
@given(scenario=SCENARIOS)
def test_reused_workers_settle_like_sequential_dispatch(scenario):
    threads = []
    answer = FlakySource.answer

    def recording_answer(self, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return answer(self, *args, **kwargs)

    FlakySource.answer = recording_answer
    try:
        sequential = pose_sequence(scenario, "sequential")
        on_posing_thread = set(threads)
        del threads[:]
        concurrent = pose_sequence(scenario, "concurrent")
    finally:
        FlakySource.answer = answer

    assert on_posing_thread <= {threading.current_thread().name}
    assert threads and all(name.startswith("repro-fanout")
                           for name in threads)
    assert concurrent == sequential
    for name in scenario["refusers"]:
        # a refusal is a final answer: one call per pose, never retried
        assert sequential["calls"][name] == sequential["poses"], name
        for report in sequential["ledgers"]:
            assert report["sources"][name]["attempts"] == 1, name
