"""Golden fixture for REP010 — a call on an imported out-of-tree module.

``copy.copy`` below is the standard library's.  It must not resolve to
``Store.copy``, the one in-tree method of that name, and take on its
confidential return value: the emitted snapshot holds only settings.
Expected: no findings.
"""

import copy


class Store:
    def __init__(self, table):
        self.table = table

    def copy(self):
        return self.table.rows_as_dicts()


class Settings:
    def __init__(self, options, events):
        self.options = options
        self.events = events

    def publish(self):
        snapshot = copy.copy(self.options)
        self.events.emit("settings.published", value=snapshot)  # clean
