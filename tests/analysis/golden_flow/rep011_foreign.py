"""Golden fixture for REP011 — another object's state under a lock.

A worker pool keeps each batch's counters on the batch object and
changes them under the pool's lock; ``cancel`` clears the backlog
without it.  The expected finding is frozen in
``rep011_foreign.expected.json``.
"""

import collections
import threading


class Batch:
    def __init__(self, cap):
        self.cap = cap
        self.running = 0
        self.backlog = collections.deque()


class Workers:
    def __init__(self):
        self._lock = threading.Lock()

    def submit(self, batch, item):
        with self._lock:
            if batch.running >= batch.cap:
                batch.backlog.append(item)
                return False
            batch.running += 1
        return True

    def done(self, batch):
        with self._lock:
            following = batch.backlog.popleft() if batch.backlog else None
            if following is None:
                batch.running -= 1
        return following

    def cancel(self, batch):
        batch.backlog.clear()  # finding: the pool's lock is not held
