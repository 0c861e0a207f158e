"""``EventLog.since`` scans from the newest end and stops at the mark.

The oracle is the full-ring scan it replaced: every retained event
with ``seq > mark``, oldest first.  The two must agree on a ring that
has wrapped, for marks older than the oldest retained event, marks at
or past the newest, and after ``clear()``.
"""

import random

import pytest

from repro.telemetry.events import EventLog


def oracle_since(log, mark):
    """The full-ring scan."""
    return [event for event in log.events() if event.seq > mark]


@pytest.mark.parametrize("seed", range(6))
def test_since_matches_the_full_ring_scan(seed):
    rng = random.Random(seed)
    log = EventLog(max_events=rng.randint(1, 24))
    marks = [log.mark()]
    for step in range(200):
        for _ in range(rng.randint(0, 5)):
            log.emit(rng.choice(["pose.answered", "cache.hit"]), step=step)
        if rng.random() < 0.05:
            log.clear()
        marks.append(log.mark())
        # every mark seen so far: most are older than the oldest
        # retained event once the ring has wrapped
        for mark in marks[-40:] + [-1, log.mark() + 3]:
            assert log.since(mark) == oracle_since(log, mark)
    assert log.mark() > 24   # the ring wrapped
