"""The guard reads a per-requester window, not the global history.

:class:`MediatorHistory` keeps each requester's entries in a list of
their own, and :class:`SequenceGuard` slices the last ``window`` of it.
The oracle here is the scan that slicing replaced: filter the global
entry list by requester, then take the window.  Over seeded
interleavings of several requesters — continued across a
``restore()`` — the guard's verdicts, its refusal messages and
``entries(requester)`` must match the oracle's exactly.
"""

import random

import pytest

from repro.errors import AuditRefusal
from repro.mediator.history import MediatorHistory, SequenceGuard

REQUESTERS = [f"analyst-{index}" for index in range(6)]
ATTRIBUTES = ["hba1c", "age", "city", "zip"]
PRIVATE = {"hba1c", "age"}
SIGNATURES = [f"sig-{index}" for index in range(5)]
MAX_DISTINCT = 2
WINDOW = 6


def oracle_entries(history, requester):
    """The deleted filter over the global entry list."""
    return [entry for entry in history.entries()
            if entry.requester == requester]


def oracle_verdict(history, requester, attributes, signature, aggregate):
    """The refusal message the guard must raise, or ``None``."""
    if not aggregate:
        return None
    probed = set(attributes) & PRIVATE
    recent = oracle_entries(history, requester)[-WINDOW:]
    for attribute in probed:
        signatures = {
            entry.predicate_signature for entry in recent
            if entry.is_aggregate and not entry.refused
            and attribute in entry.attributes
        }
        signatures.add(signature)
        if len(signatures) > MAX_DISTINCT:
            return (f"requester {requester!r} has probed private attribute "
                    f"{attribute!r} with {len(signatures)} distinct "
                    f"predicates (limit {MAX_DISTINCT})")
    return None


def guard_over(history):
    return SequenceGuard(history, PRIVATE, max_distinct_probes=MAX_DISTINCT,
                         window=WINDOW)


def drive(history, rng, steps):
    """Check then record ``steps`` random requests; compare each verdict."""
    guard = guard_over(history)
    refusals = 0
    for _ in range(steps):
        requester = rng.choice(REQUESTERS)
        attributes = rng.sample(ATTRIBUTES, rng.randint(1, 2))
        signature = rng.choice(SIGNATURES)
        aggregate = rng.random() < 0.8
        expected = oracle_verdict(history, requester, attributes,
                                  signature, aggregate)
        try:
            guard.check(requester, attributes, signature, aggregate)
        except AuditRefusal as refusal:
            got = str(refusal)
        else:
            got = None
        assert got == expected
        refusals += got is not None
        history.record(requester, attributes, signature, aggregate,
                       refused=got is not None)
    for requester in REQUESTERS + ["nobody"]:
        assert history.entries(requester) == oracle_entries(history,
                                                            requester)
    return refusals


@pytest.mark.parametrize("seed", range(12))
def test_guard_and_entries_match_the_global_scan(seed):
    rng = random.Random(seed)
    history = MediatorHistory()
    refusals = drive(history, rng, 150)

    restored = MediatorHistory()
    restored.restore(history.state_dict()["entries"])
    assert [e.to_dict() for e in restored.entries()] == [
        e.to_dict() for e in history.entries()
    ]
    refusals += drive(restored, rng, 150)
    assert refusals > 0   # the interleaving exercised refusals

