"""Differential property: cached and uncached mediation are byte-identical.

The cache layer's contract is *pure acceleration*: for any sequence of
queries, a deployment with the multi-tier cache enabled must produce
exactly the answers, refusal messages, and history entries that the
always-recompute baseline produces.  Two systems are built over
identical seeded data — one with ``cache=True`` (warehouse on), one with
``cache=False`` posed with ``use_warehouse=False`` — and driven through
the same seeded query sequences (repeats biased in, so the cached run
actually hits).  Any divergence is a cache-coherence bug: a stale entry
served past a policy/schema/audit-state change, or accounting skipped
on a hit.

One more set of sequences runs on an RBAC deployment: bob may only
aggregate, and midway through each sequence alice loses her read grant,
so record-level repeats she was answered before must now be denied on
both sides — no tier may serve a pose RBAC denies.

Overlap control stays at its default (off) on both sides: it is
source-side *stateful* auditing keyed on result-set overlap, so an
answer served from the mediator's cache legitimately does not advance
it — equivalence is defined over the mediator-visible contract.
"""

import random

import pytest

from repro.access import Permission, RbacPolicy, Role
from repro.errors import ReproError
from repro.testing import build_flaky_system

N_SOURCES = 3
SEQUENCES_PER_CHUNK = 12
STEPS_PER_SEQUENCE = 8

#: Mix of plain selects, canonical-order twins, aggregates (which drive
#: the sequence guard and per-requester epochs), and guaranteed refusals.
QUERY_POOL = (
    "SELECT //patient/age PURPOSE research MAXLOSS 0.9",
    "SELECT //patient/visits PURPOSE research MAXLOSS 0.9",
    "SELECT //patient/age, //patient/visits PURPOSE research MAXLOSS 0.95",
    "SELECT //patient/age WHERE //patient/visits > 5 "
    "AND //patient/age > 30 PURPOSE research MAXLOSS 0.9",
    "SELECT //patient/age WHERE //patient/age > 30 "
    "AND //patient/visits > 5 PURPOSE research MAXLOSS 0.9",
    "SELECT AVG(//patient/age) AS a PURPOSE research MAXLOSS 0.9",
    "SELECT AVG(//patient/visits) AS v PURPOSE research MAXLOSS 0.9",
    "SELECT COUNT(*) AS n PURPOSE research MAXLOSS 0.9",
    "SELECT //patient/age PURPOSE marketing",
)
REQUESTERS = ("alice", "bob")


def pose_outcome(system, text, requester, use_warehouse):
    """Everything observable from one pose, as comparable bytes."""
    try:
        result = system.engine.pose(
            text, requester=requester, use_warehouse=use_warehouse
        )
    except ReproError as error:
        return ("refused", type(error).__name__, str(error))
    return (
        "answered",
        repr(result.rows),
        repr(sorted(result.per_source_loss.items())),
        repr(result.aggregated_loss),
        repr(sorted(result.refused_sources.items())),
        result.duplicates_removed,
    )


def history_entries(system):
    return [
        (entry.sequence, entry.requester, entry.attributes,
         entry.predicate_signature, entry.is_aggregate, entry.refused)
        for entry in system.engine.history.entries()
    ]


READ = Permission("read", "patients.*")


def rbac_policy():
    """alice reads and aggregates; bob only aggregates."""
    rbac = RbacPolicy()
    rbac.add_role(Role("analyst", [READ]))
    rbac.add_role(Role("statistician",
                       [Permission("aggregate", "patients.*")]))
    rbac.assign("alice", "analyst")
    rbac.assign("alice", "statistician")
    rbac.assign("bob", "statistician")
    return rbac


def drive_sequence(seed, rbac=None):
    rng = random.Random(seed)
    cached, _ = build_flaky_system(N_SOURCES, seed=7, cache=True,
                                   rbac=rbac)
    uncached, _ = build_flaky_system(N_SOURCES, seed=7, cache=False,
                                     rbac=rbac)
    posed = []
    for step in range(STEPS_PER_SEQUENCE):
        if rbac is not None and step == STEPS_PER_SEQUENCE // 2:
            rbac.role("analyst").permissions.discard(READ)
        if posed and rng.random() < 0.5:
            text, requester = rng.choice(posed)  # bias repeats → hits
        else:
            text = rng.choice(QUERY_POOL)
            requester = rng.choice(REQUESTERS)
        posed.append((text, requester))
        got = pose_outcome(cached, text, requester, use_warehouse=True)
        want = pose_outcome(uncached, text, requester, use_warehouse=False)
        assert got == want, (
            f"cached/uncached divergence at seed={seed} step={step} "
            f"requester={requester} query={text!r}:\n"
            f"  cached:   {got}\n  uncached: {want}"
        )
    assert history_entries(cached) == history_entries(uncached), (
        f"history divergence at seed={seed}"
    )
    return cached


@pytest.mark.parametrize("chunk", range(10))
def test_cached_run_is_byte_identical_to_uncached(chunk):
    """120 seeded sequences x 8 poses, zero disagreements allowed."""
    for offset in range(SEQUENCES_PER_CHUNK):
        drive_sequence(31_000 + chunk * SEQUENCES_PER_CHUNK + offset)


@pytest.mark.parametrize("chunk", range(2))
def test_rbac_deployment_is_byte_identical_to_uncached(chunk):
    """24 seeded sequences on an RBAC deployment, one grant revoked."""
    for offset in range(SEQUENCES_PER_CHUNK):
        drive_sequence(32_000 + chunk * SEQUENCES_PER_CHUNK + offset,
                       rbac=rbac_policy())


def test_the_cached_run_actually_hits():
    """Guard against vacuous equivalence: repeats must be served hot."""
    cached = drive_sequence(31_000)
    stats = cached.engine.cache.stats()
    answer = cached.engine.warehouse.store_stats()
    assert stats["plan"]["hits"] > 0
    assert stats["static"]["hits"] > 0
    assert stats["rewrite"]["hits"] > 0   # source plans across poses
    assert answer["hits"] > 0
