"""Unit tests for the whole-program lockset pass (repro.analysis.flow.locks)."""

import textwrap

from repro.analysis.flow.locks import analyze_locks


HEADER = "import queue\nimport threading\n"


def analyze(tmp_path, source, name="mod.py"):
    path = tmp_path / name
    path.write_text(HEADER + textwrap.dedent(source))
    return analyze_locks([path])


class TestGuardedMutation:
    def test_with_lock_is_clean(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    with self._lock:
                        self.n += 1
        """)
        assert analysis.findings == []

    def test_unguarded_mutation_flags(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    self.n += 1
        """)
        assert len(analysis.findings) == 1
        assert analysis.findings[0].code == "REP011"

    def test_init_writes_are_exempt(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0
                    self.m = []
        """)
        assert analysis.findings == []

    def test_acquire_release_pairing(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    self._lock.acquire()
                    self.n += 1
                    self._lock.release()
                    self.n += 1
        """)
        # the first mutation is guarded, the second is past release()
        assert len(analysis.findings) == 1
        assert analysis.findings[0].line > 9

    def test_lockless_class_is_ignored(self, tmp_path):
        analysis = analyze(tmp_path, """
            class Plain:
                def __init__(self):
                    self.n = 0

                def inc(self):
                    self.n += 1
        """)
        assert analysis.findings == []


class TestCallerHeldCredit:
    def test_private_helper_called_under_lock_is_clean(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    with self._lock:
                        self._bump()

                def _bump(self):
                    self.n += 1
        """)
        assert analysis.findings == []

    def test_one_lockless_caller_revokes_credit(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    with self._lock:
                        self._bump()

                def inc_racy(self):
                    self._bump()

                def _bump(self):
                    self.n += 1
        """)
        assert len(analysis.findings) == 1

    def test_public_methods_get_no_credit(self, tmp_path):
        # a public method is callable from anywhere; callers holding the
        # lock today prove nothing about tomorrow's callers
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    with self._lock:
                        self.bump()

                def bump(self):
                    self.n += 1
        """)
        assert len(analysis.findings) == 1


class TestInconsistentLocks:
    def test_two_locks_for_one_attribute_flag(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                    self.n = 0

                def via_a(self):
                    with self._a:
                        self.n += 1

                def via_b(self):
                    with self._b:
                        self.n += 1
        """)
        assert len(analysis.findings) == 2
        assert all(f.code == "REP011" for f in analysis.findings)
        entry = analysis.shared_state_map()["classes"]["mod.C"]
        assert entry["attributes"]["n"]["consistent"] is False


class TestSelfSynchronized:
    def test_queue_mutators_need_no_lock(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def offer(self, item):
                    self._queue.put_nowait(item)
        """)
        assert analysis.findings == []

    def test_queue_slot_rebind_still_flags(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = queue.Queue()

                def reset(self):
                    self._queue = None
        """)
        assert len(analysis.findings) == 1

    def test_thread_local_stores_need_no_lock(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._local = threading.local()

                def push(self, item):
                    self._local.stack = [item]
        """)
        assert analysis.findings == []


class TestWorkerEntries:
    SOURCE = """
        class W:
            def __init__(self):
                self._lock = threading.Lock()
                self.jobs = 0
                self._thread = threading.Thread(
                    target=self._run, name="w-worker"
                )

            def _run(self):
                with self._lock:
                    self._count()

            def _count(self):
                self.jobs += 1
    """

    def test_thread_target_is_an_entry(self, tmp_path):
        analysis = analyze(tmp_path, self.SOURCE)
        assert analysis.worker_entries == {"w-worker": "mod.W._run"}

    def test_reachable_methods_get_worker_context(self, tmp_path):
        analysis = analyze(tmp_path, self.SOURCE)
        entry = analysis.shared_state_map()["classes"]["mod.W"]
        sites = entry["attributes"]["jobs"]["mutation_sites"]
        # the map also inventories the __init__ write; pick _count's site
        site = [s for s in sites if s["method"] == "mod.W._count"][0]
        assert site["thread_contexts"] == ["main", "w-worker"]


class TestSharedStateMap:
    def test_map_schema(self, tmp_path):
        analysis = analyze(tmp_path, """
            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.n = 0

                def inc(self):
                    with self._lock:
                        self.n += 1
        """)
        doc = analysis.shared_state_map()
        assert doc["schema_version"] == 1
        entry = doc["classes"]["mod.C"]
        assert entry["module"] == "mod"
        assert entry["locks"] == ["_lock"]
        attr = entry["attributes"]["n"]
        assert attr["guarding_lock"] == "_lock"
        assert attr["consistent"] is True
        methods = [s["method"] for s in attr["mutation_sites"]]
        assert methods == ["mod.C.__init__", "mod.C.inc"]
        site = attr["mutation_sites"][1]
        assert site["locks_held"] == ["_lock"]
        assert site["kind"] == "augassign"


#: The per-method lock cases the per-file linter once checked, kept as
#: lockset inputs: three unguarded mutations (lines 14, 17, 20), two
#: guarded ones, a local list, and a class that owns no lock.
PER_METHOD_CASES = '''"""Shared state mutated outside the owning lock."""

import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}
        self._count = 0
        self._order = []

    def record(self, key, value):
        self._items[key] = value

    def bump(self):
        self._count += 1

    def drop(self, key):
        self._items.pop(key, None)

    def safe_record(self, key, value):
        with self._lock:
            self._items[key] = value
            self._order.append(key)

    def safe_nested(self, key):
        with self._lock:
            if key not in self._items:
                self._order.append(key)

    def local_state_is_fine(self):
        seen = []
        seen.append("x")
        return seen


class Lockless:
    def __init__(self):
        self.items = {}

    def record(self, key, value):
        self.items[key] = value  # no lock owned: nothing to check
'''


class TestPerMethodCases:
    def test_unguarded_mutations_flag_at_their_lines(self, tmp_path):
        path = tmp_path / "registry.py"
        path.write_text(PER_METHOD_CASES)
        analysis = analyze_locks([path])
        assert [(f.code, f.line) for f in analysis.findings] == [
            ("REP011", 14), ("REP011", 17), ("REP011", 20),
        ]


class TestForeignReceivers:
    SOURCE = """
        import collections


        class Slot:
            def __init__(self):
                self.pending = collections.deque()
                self.running = 0


        class Scratch:
            def __init__(self):
                self.notes = []


        class Pool:
            def __init__(self):
                self._lock = threading.Lock()

            def submit(self, slot, item):
                with self._lock:
                    slot.pending.append(item)
                    slot.running += 1

            def finish(self, slot):
                with self._lock:
                    slot.running -= 1

            def cancel(self, slot):
                slot.pending.clear()

            def scribble(self, scratch):
                scratch.notes.append(1)
    """

    def test_another_objects_state_is_guarded_by_the_mutating_lock(
            self, tmp_path):
        analysis = analyze(tmp_path, self.SOURCE)
        doc = analysis.shared_state_map()
        slot = doc["classes"]["mod.Slot"]
        assert slot["locks"] == ["Pool._lock"]
        assert slot["attributes"]["running"]["guarding_lock"] == "Pool._lock"
        assert slot["attributes"]["running"]["consistent"] is True
        assert slot["attributes"]["pending"]["consistent"] is False
        # never mutated under a lock: not shared state, not in the map
        assert "mod.Scratch" not in doc["classes"]
        (finding,) = analysis.findings
        assert "Pool.cancel mutates Slot.pending" in finding.message
