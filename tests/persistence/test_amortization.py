"""Snapshot and guard work per pose does not grow with accumulated state.

A long stream of poses from a fixed set of requesters runs through a
:class:`MemoryBackend` sink with the observatory on (so snapshots carry
the history, the journal and the SnooperWatch state).  Counted, not
timed:

* snapshots double their interval, so everything ever serialized stays
  within a constant factor of the newest snapshot;
* the number of compactions grows with the log of the record count;
* each sequence-guard check reads at most ``window`` history entries.
"""

import json
import math

from repro.persistence import (
    DEFAULT_SNAPSHOT_EVERY,
    MemoryBackend,
    PersistenceSink,
)
from tests.mediator.test_settlement import build_system
from tests.persistence.test_recovery import AGGREGATE

POSES = 8500
REQUESTERS = [f"analyst-{index}" for index in range(5)]
PROBES = [
    AGGREGATE,
    "SELECT AVG(//patient/hba1c) AS mean WHERE //patient/city = 'erie' "
    "PURPOSE outbreak-surveillance MAXLOSS 0.6",
]


class CountingBackend(MemoryBackend):
    """Records the through-seq and serialized length of every snapshot."""

    def __init__(self):
        super().__init__()
        self.snapshots = []   # (through_seq, serialized length)

    def compact(self, state, through_seq):
        self.snapshots.append(
            (through_seq, len(json.dumps(state, sort_keys=True)))
        )
        super().compact(state, through_seq)


def test_snapshot_and_guard_work_stay_amortized_constant():
    backend = CountingBackend()
    system = build_system(observatory=True,
                          persistence=PersistenceSink(backend))
    history = system.engine.history
    reads = []
    recent = history.recent

    def counted_recent(requester, size):
        entries = recent(requester, size)
        reads.append(len(entries))
        return entries

    def no_global_scan(requester=None):
        raise AssertionError("a pose walked the global history")

    history.recent = counted_recent
    history.entries = no_global_scan
    for index in range(POSES):
        system.query(PROBES[index // len(REQUESTERS) % len(PROBES)],
                     requester=REQUESTERS[index % len(REQUESTERS)])
    del history.entries

    assert len(history) == POSES
    last_seq = system.persistence.stats()["last_seq"]
    # snapshots at 256, 512, 1024, ...: the interval doubles
    expected = [DEFAULT_SNAPSHOT_EVERY * 2 ** k for k in range(
        int(math.log2(last_seq / DEFAULT_SNAPSHOT_EVERY)) + 1)]
    assert [seq for seq, _ in backend.snapshots] == expected
    sizes = [size for _, size in backend.snapshots]
    assert sum(sizes) <= 4 * sizes[-1]
    # the log holds only what the newest snapshot has not folded
    assert len(backend.load()[1]) == last_seq - expected[-1]

    assert len(reads) == POSES   # every pose probes a private aggregate
    assert max(reads) == system.engine._sequence_guard.window
