"""The four mediation workloads: deployments, seeded inputs, checks.

Each workload builds its deployment through the public API only
(``PrivateIye``, ``add_relational_source``, ``build_flaky_system``),
generates its query stream from the run's seed, and knows how to check
the answers it got.  ``run.py`` drives them; nothing here measures time.

A query item is ``(requester, piql_text, expected)`` where ``expected``
is ``"answer"``, ``"refuse"`` (a ``PrivacyViolation`` is the right
outcome) or ``"replay"`` (whatever an uncached replay does).  A
workload's ``keep_results`` is how many leading results its check reads
(``None``: all); ``run.py`` drops later results, so memory does not grow
with the run.  Every workload is built as ``Workload(seed, workdir)``;
only the durable one writes, and only under ``workdir``.  A workload's
``episode_queries`` is ``None`` when ``run.py`` poses one continuous
stream, or the query count of an episode when it starts the inputs
over on a fresh ``build()`` every that many queries.  ``run.py``
calls ``mark(system)`` once, when the 1000th query has settled; a
``durable`` workload copies its WAL there, and its restarts recover
from that copy.
"""

from __future__ import annotations

import json
import os
import random
import shutil

from repro import PrivacyViolation, PrivateIye
from repro.data import HealthcareGenerator
from repro.errors import ReproError
from repro.mediator.dispatch import DispatchPolicy
from repro.persistence.wal import WalBackend
from repro.relational import Table
from repro.testing import FaultSchedule, build_flaky_system

ANSWER, REFUSE, REPLAY = "answer", "refuse", "replay"

HMO_POLICY = """
VIEW {name}_private {{
    PRIVATE //patient/compliant_0 FORM aggregate;
    PRIVATE //patient/compliant_1 FORM aggregate;
    PRIVATE //patient/compliant_2 FORM aggregate;
}}
POLICY {name} DEFAULT deny {{
    DENY //patient/id FOR *;
    ALLOW //patient/compliant_0 FOR public-health-research FORM aggregate;
    ALLOW //patient/compliant_1 FOR public-health-research FORM aggregate;
    ALLOW //patient/compliant_2 FOR public-health-research FORM aggregate;
    ALLOW //patient/age FOR research;
    ALLOW //patient/zip FOR research;
    ALLOW //patient/first FOR research;
    ALLOW //patient/last FOR research;
}}
"""

ZIPS = ("15213", "15217", "15090", "15108")


def canonical_rows(rows):
    """Order-insensitive, exact text form of a result's rows."""
    return sorted(json.dumps(row, sort_keys=True, default=repr)
                  for row in rows)


def outcome_of(result, error):
    """``(kind, detail)`` used to compare a live outcome with a replay."""
    if error is not None:
        return type(error).__name__, str(error)
    return "answered", canonical_rows(result.rows)


#: The deployments' data is fixed; the run's seed drives only the
#: inputs (queries, their order, fault placement), so seeds differ in
#: what is asked, not in how big the sources are.
HMO_DATA_SEED = 2006
FLAKY_DATA_SEED = 7


def hmo4_system(**options):
    """The Figure 1 four-HMO deployment (``HealthcareGenerator``).

    200 patients per HMO, 10% planted cross-HMO duplicates, linkage on
    first/last names.  ``options`` go to :class:`PrivateIye`.
    """
    generator = HealthcareGenerator(patients_per_hmo=200,
                                    overlap_fraction=0.1,
                                    seed=HMO_DATA_SEED)
    patients = generator.patients()
    system = PrivateIye(linkage_attributes=("first", "last"), **options)
    for hmo in generator.sources:
        system.load_policies(HMO_POLICY.format(name=hmo),
                             view_source={f"{hmo}_private": hmo})
        system.add_relational_source(
            hmo, Table.from_dicts("patients", patients[hmo]),
            qi_columns=("age",),
        )
    system.mediated_schema()
    return system


def _maxloss(rng):
    # Four decimals keep canonical texts (and so plan fingerprints)
    # distinct from query to query without changing what is disclosed.
    return f"0.{rng.randrange(9000, 10000):04d}"


def hmo4_query(rng):
    """One query of the compliance / record / marketing mix."""
    roll = rng.random()
    zip_code = rng.choice(ZIPS)
    maxloss = _maxloss(rng)
    if roll < 0.10:
        return (f"SELECT //patient/age, //patient/zip WHERE //patient/zip = "
                f"'{zip_code}' PURPOSE marketing MAXLOSS {maxloss}"), REFUSE
    if roll < 0.55:
        measure = rng.randrange(3)
        func = rng.choice(("AVG", "COUNT"))
        return (f"SELECT {func}(//patient/compliant_{measure}) AS rate "
                f"WHERE //patient/zip = '{zip_code}' "
                f"PURPOSE outbreak-surveillance MAXLOSS {maxloss}"), ANSWER
    low = rng.randrange(18, 88, 3)
    if roll < 0.775:
        return (f"SELECT //patient/age, //patient/zip "
                f"WHERE //patient/zip = '{zip_code}' "
                f"AND //patient/age >= {low} AND //patient/age < {low + 6} "
                f"PURPOSE research MAXLOSS {maxloss}"), ANSWER
    # Names are the linkage attributes: these rows go through dedup.
    return (f"SELECT //patient/first, //patient/last, //patient/zip "
            f"WHERE //patient/age >= {low} AND //patient/age < {low + 3} "
            f"PURPOSE research MAXLOSS {maxloss}"), ANSWER


def expected_kinds(log):
    """``(index, cause)`` for queries whose outcome kind is unexpected.

    An ``"answer"`` query must not raise; a ``"refuse"`` query must raise
    ``PrivacyViolation``; a ``"replay"`` query must raise nothing but a
    :class:`ReproError` (its kind is checked against the replay).
    """
    causes = []
    for index, ((requester, text, expected), result, error) in enumerate(
            log):
        if expected == ANSWER and error is not None:
            causes.append((index, f"{requester}: unexpected "
                                  f"{type(error).__name__}: {error}"))
        elif expected == REFUSE and not isinstance(error, PrivacyViolation):
            got = type(error).__name__ if error else "an answer"
            causes.append((index, f"{requester}: expected "
                                  f"PrivacyViolation, got {got}"))
        elif expected == REPLAY and error is not None and not isinstance(
                error, ReproError):
            causes.append((index, f"{requester}: unexpected "
                                  f"{type(error).__name__}: {error}"))
    return causes


def compare_replay(entries, replayed):
    """``(index, cause)`` for live outcomes that differ from their replay."""
    causes = []
    for index, (((requester, text, _), result, error),
                (r_result, r_error)) in enumerate(zip(entries, replayed)):
        if outcome_of(result, error) != outcome_of(r_result, r_error):
            causes.append((index, f"{requester}: outcome differs from the "
                                  f"uncached replay of {text!r}"))
    return causes


def pose_all(system, items):
    """``query()`` every item in order; ``[(result, error)]``."""
    outcomes = []
    for requester, text, _ in items:
        try:
            outcomes.append((system.query(text, requester=requester), None))
        except ReproError as error:
            outcomes.append((None, error))
    return outcomes


class Hmo4Cold:
    """Fresh requester per query: every per-requester cache tier misses."""

    name = "hmo4-cold"
    batched = False
    durable = False
    count_queries = 300
    warmup_queries = 8
    episode_queries = None
    replay_queries = 80
    keep_results = replay_queries

    def __init__(self, seed, workdir):
        self.seed = seed

    def build(self):
        system = hmo4_system()
        pose_all(system, self.warmup_items())
        return system

    def warmup_items(self):
        rng = random.Random("warmup")   # set-up is the same for every seed
        return [(f"warm-{i}",) + hmo4_query(rng)
                for i in range(self.warmup_queries)]

    def items(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            yield (f"cold-{index}",) + hmo4_query(rng)
            index += 1

    def check(self, log):
        """Outcome kinds for every query; the first ``replay_queries``
        against an uncached replay of the warm-up and the same inputs."""
        errors = expected_kinds(log)
        replica = hmo4_system(cache=False, warehouse_mode="virtual")
        pose_all(replica, self.warmup_items())
        prefix = log[:self.replay_queries]
        replayed = pose_all(replica, [entry[0] for entry in prefix])
        return errors + compare_replay(prefix, replayed)

    def mark(self, system):
        """Nothing to keep: no durable state."""

    def restart(self):
        """No durable state: a restart is a rebuild.  ``(system, None)``"""
        return hmo4_system(), None

    def close(self, system):
        pass


def dashboard():
    """The 12-query dashboard every analyst re-poses."""
    rng = random.Random("dashboard")
    zips = list(ZIPS)
    rng.shuffle(zips)
    queries = [
        f"SELECT AVG(//patient/compliant_{m}) AS rate "
        f"PURPOSE outbreak-surveillance MAXLOSS 0.9"
        for m in range(3)
    ]
    queries += [
        f"SELECT COUNT(//patient/compliant_{rng.randrange(3)}) AS n "
        f"WHERE //patient/zip = '{zip_code}' "
        f"PURPOSE outbreak-surveillance MAXLOSS 0.9"
        for zip_code in zips[:3]
    ]
    for _ in range(5):
        low = rng.randrange(18, 85, 5)
        queries.append(
            f"SELECT //patient/first, //patient/last, //patient/age "
            f"WHERE //patient/zip = '{rng.choice(ZIPS)}' "
            f"AND //patient/age >= {low} AND //patient/age < {low + 5} "
            f"PURPOSE research MAXLOSS 0.9"
        )
    queries.append(f"SELECT //patient/age WHERE //patient/zip = "
                   f"'{zips[3]}' PURPOSE marketing")
    return queries


class Hmo4WarmDurable:
    """Analysts re-pose a 12-query dashboard on a durable deployment.

    Telemetry, the disclosure observatory and a JSONL write-ahead log
    (a flush per record, compaction every 256 records) are all on.  The
    log does not fsync: on a shared virtual disk the fsync latency swung
    tenfold within minutes (0.1 to 4 ms median), which would make
    ``pose_p50_ms`` a reading of the host's disk, not of the program.
    Analysts take turns round-robin; one more logs on every
    ``join_every`` queries, so new fingerprints arrive at a steady ~3%
    of queries.  All 384 fingerprints of 32 analysts fit in the
    1024-entry answer tier.

    Every pose adds to the history, journal and WAL state that later
    poses and compactions walk, so CPU per query grows through a run
    (from about 1.1 ms in its first 2 s to 3-4 ms after 15 s in one
    continuous stream).  ``run.py`` therefore measures episodes of
    ``episode_queries`` on a fresh deployment each (four analysts log
    on in one), so a faster host does not build up more state; the
    traced count phase is one episode.
    """

    name = "hmo4-warm-durable"
    batched = False
    durable = True
    analysts = 32
    join_every = 384
    count_queries = 1536
    episode_queries = count_queries
    replay_queries = 128      # first-seen fingerprints replayed uncached
    keep_results = None       # every answer is compared with its replay

    def __init__(self, seed, workdir):
        self.seed = seed
        self.wal = os.path.join(workdir, "wal")
        self.marked_wal = os.path.join(workdir, "wal-marked")
        self.marked = None   # (history, journal) lengths at the mark
        self.queries = dashboard()
        # The seed picks the order analysts log on and, per analyst, the
        # order of the non-aggregate queries.  The six aggregates always
        # lead: they are the novel probes that advance an analyst's epoch
        # and invalidate its earlier answers, so every seed recomputes
        # the same number of answers.
        rng = random.Random(f"{seed}-analysts")
        order = list(range(self.analysts))
        rng.shuffle(order)
        self.order = order
        self.sequences = []
        for _ in range(self.analysts):
            rest = self.queries[6:]
            rng.shuffle(rest)
            self.sequences.append(self.queries[:6] + rest)

    def _system(self, wal=None):
        return hmo4_system(telemetry=True, observatory=True,
                           persistence=WalBackend(wal or self.wal,
                                                  fsync=False))

    def build(self):
        shutil.rmtree(self.wal, ignore_errors=True)
        system = self._system()
        pose_all(system, self.warmup_items())
        return system

    def warmup_items(self):
        return [("warmup",) + self._expect(text) for text in self.queries]

    @staticmethod
    def _expect(text):
        return text, (REFUSE if "marketing" in text else ANSWER)

    def items(self):
        positions = [0] * self.analysts
        turn = -1
        step = 0
        while True:
            active = min(self.analysts, 1 + step // self.join_every)
            turn = (turn + 1) % active
            sequence = self.sequences[turn]
            text = sequence[positions[turn] % len(sequence)]
            positions[turn] += 1
            yield (f"analyst-{self.order[turn]:02d}",) + self._expect(text)
            step += 1

    def mark(self, system):
        """Keep a copy of the WAL and the live lengths at this point.

        Restarts recover from the copy, so recovery replays a fixed
        number of poses, not however many a window fixed in seconds
        held.  Appends are synchronous, so the copy is consistent.
        """
        shutil.rmtree(self.marked_wal, ignore_errors=True)
        shutil.copytree(self.wal, self.marked_wal)
        self.marked = (len(system.history()), len(system.audit_journal()))

    def restart(self):
        """Rebuild on the marked WAL and ``recover()``;
        ``(system, report)``."""
        rebuilt = self._system(self.marked_wal)
        return rebuilt, rebuilt.recover()

    def check(self, log):
        """Outcome kinds; every answer to a dashboard fingerprint equals
        the uncached replay of the first round (cache hits included)."""
        errors = expected_kinds(log)
        replica = hmo4_system(cache=False, warehouse_mode="virtual")
        pose_all(replica, self.warmup_items())
        first, seen = [], set()
        for entry in log:
            key = entry[0][:2]
            if key not in seen and len(first) < self.replay_queries:
                seen.add(key)
                first.append(entry[0])
        replayed = pose_all(replica, first)
        expected = {item[:2]: outcome_of(*replay)
                    for item, replay in zip(first, replayed)}
        seen_outcomes = {}    # cache hits hand back the same object
        for index, ((requester, text, _), result, error) in enumerate(log):
            want = expected.get((requester, text))
            if want is None:
                continue
            key = id(result) if result is not None else None
            got = seen_outcomes.get(key) if key is not None else None
            if got is None:
                got = outcome_of(result, error)
                if key is not None:
                    seen_outcomes[key] = got
            if got != want:
                errors.append((index, f"{requester}: outcome differs from "
                                      f"the uncached replay of {text!r}"))
        return errors

    def check_recovery(self, recovered, report):
        """Causes for a recovered system that does not match the live one
        at the mark."""
        causes = []
        history, journal_records = self.marked
        if len(recovered.history()) != history:
            causes.append(f"recovered history has "
                          f"{len(recovered.history())} entries, live had "
                          f"{history}")
        journal = recovered.audit_journal()
        if len(journal) != journal_records:
            causes.append(f"recovered journal has {len(journal)} records, "
                          f"live had {journal_records}")
        if not journal.verify_chain() or not report.chain_valid:
            causes.append("recovered journal chain does not verify")
        return causes

    def close(self, system):
        persistence = system.persistence
        if persistence is not None:
            persistence.close()
        observatory = system.observatory
        if observatory is not None and hasattr(observatory, "close"):
            observatory.close()


FANOUT_SOURCES = 8


def fanout_query(rng):
    low = rng.randrange(20, 80)
    return (f"SELECT //patient/age, //patient/visits "
            f"WHERE //patient/age >= {low} "
            f"PURPOSE research MAXLOSS {_maxloss(rng)}"), ANSWER


class Fanout8Faults:
    """8 small sources behind seeded faults; dispatch sets the latency."""

    name = "fanout8-faults"
    batched = False
    durable = False
    count_queries = 300
    warmup_queries = 10
    episode_queries = None
    schedule_calls = 8000
    keep_results = None

    def __init__(self, seed, workdir):
        self.seed = seed
        # Drawn once, here: drawing is the benchmark's own work, and
        # set-up and restart time only the program's.
        self.events = [self._draw(index) for index in range(FANOUT_SOURCES)]

    def _draw(self, index):
        """Exact fault rates in every block of 200 calls, seeded order.

        Stratifying keeps the fault mix (5% transients, 30% 4 ms delays,
        0.5% hangs past the deadline) the same for every seed; only where
        the faults land changes.  The warm-up's calls come first and are
        fault-free, so set-up does the same work for every seed.
        """
        rng = random.Random(f"{self.seed}-faults-{index}")
        block = ([("transient",)] * 10 + [("delay", 0.004)] * 60
                 + [("hang", 0.1)] + [("ok",)] * 129)
        events = [("ok",)] * self.warmup_queries
        while len(events) < self.schedule_calls:
            rng.shuffle(block)
            events.extend(block)
        return events

    def _schedule(self, name, index):
        return FaultSchedule(self.events[index])

    @staticmethod
    def _policy():
        return DispatchPolicy(timeout_s=0.06, retries=2,
                              backoff_base_s=0.005, partial=("quorum", 6))

    def build(self):
        system, _ = build_flaky_system(
            FANOUT_SOURCES, schedule_for=self._schedule, rows_per_source=8,
            seed=FLAKY_DATA_SEED, dispatch=self._policy(),
        )
        pose_all(system, self.warmup_items())
        return system

    def warmup_items(self):
        rng = random.Random("warmup")   # set-up is the same for every seed
        return [(f"warm-{i}",) + fanout_query(rng)
                for i in range(self.warmup_queries)]

    def items(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            yield (f"fan-{index}",) + fanout_query(rng)
            index += 1

    def check(self, log):
        """Each answer holds exactly the rows of the sources that answered."""
        errors = expected_kinds(log)
        replica, _ = build_flaky_system(
            FANOUT_SOURCES, rows_per_source=8, seed=FLAKY_DATA_SEED,
            cache=False,
        )
        per_source = {}
        for index, ((requester, text, _), result, error) in enumerate(log):
            if result is None:
                continue
            # MAXLOSS (always >= 0.9 here) does not change the rows.
            key = text.rsplit(" MAXLOSS ", 1)[0]
            expected = per_source.get(key)
            if expected is None:
                full = replica.query(text, requester="replica")
                expected = per_source[key] = {}
                for row in full.rows:
                    expected.setdefault(row["_source"], []).append(row)
            answered = sorted(result.per_source_loss)
            want = [row for name in answered
                    for row in expected.get(name, ())]
            missing = set(result.refused_sources) | set(answered)
            if canonical_rows(result.rows) != canonical_rows(want):
                errors.append((index, f"{requester}: rows are not those of "
                                      f"the {len(answered)} answering "
                                      f"sources"))
            elif len(missing) != FANOUT_SOURCES:
                errors.append((index, f"{requester}: "
                                      f"{FANOUT_SOURCES - len(missing)} "
                                      f"sources neither answered nor were "
                                      f"refused"))
        return errors

    def mark(self, system):
        """Nothing to keep: no durable state."""

    def restart(self):
        """No durable state: a restart is a rebuild.  ``(system, None)``"""
        system, _ = build_flaky_system(
            FANOUT_SOURCES, schedule_for=self._schedule, rows_per_source=8,
            seed=FLAKY_DATA_SEED, dispatch=self._policy(),
        )
        return system, None

    def close(self, system):
        pass


BATCH_SIZE = 256
BATCH_SOURCES = 4


class Batch256Stream:
    """``pose_stream`` batches of 256 over 4 Laplace-noised sources."""

    name = "batch256-stream"
    batched = True
    durable = False
    count_queries = 4 * BATCH_SIZE
    episode_queries = None
    replay_batches = 2
    keep_results = replay_batches * BATCH_SIZE

    def __init__(self, seed, workdir):
        self.seed = seed

    def _system(self, cache=True):
        system, _ = build_flaky_system(
            BATCH_SOURCES, rows_per_source=8, seed=FLAKY_DATA_SEED,
            noise_epsilon=1.0, cache=cache,
        )
        system.mediated_schema()
        return system

    def batch(self, rng, requester):
        """MAXLOSS variants of one record query; an aggregate every 8th."""
        low = rng.randrange(20, 70)
        record = (f"SELECT //patient/age, //patient/visits "
                  f"WHERE //patient/age >= {low} PURPOSE research")
        aggregate = (f"SELECT AVG(//patient/visits) AS v "
                     f"WHERE //patient/age >= {low} "
                     f"PURPOSE research MAXLOSS 0.9")
        texts = []
        for index in range(BATCH_SIZE):
            if index % 8 == 7:
                texts.append(aggregate)
            else:
                texts.append(f"{record} MAXLOSS "
                             f"{rng.randrange(5, 100) / 100:.2f}")
        return requester, texts

    def warmup_batches(self):
        rng = random.Random("warmup")   # set-up is the same for every seed
        return [self.batch(rng, "warm-batch")]

    def batches(self):
        rng = random.Random(self.seed)
        index = 0
        while True:
            yield self.batch(rng, f"batch-{index}")
            index += 1

    def build(self):
        system = self._system()
        for requester, texts in self.warmup_batches():
            list(system.pose_stream(texts, requester=requester))
        return system

    def check(self, log):
        """Sampled batches match a looped ``query()`` replay.

        The replica replays the warm-up and the first batches in order,
        so its noise streams and source state match the live run's.
        """
        errors = expected_kinds(log)
        replica = self._system(cache=False)
        for requester, texts in self.warmup_batches():
            pose_all(replica, [(requester, text, REPLAY) for text in texts])
        prefix = log[:self.replay_batches * BATCH_SIZE]
        replayed = pose_all(replica, [entry[0] for entry in prefix])
        return errors + compare_replay(prefix, replayed)

    def mark(self, system):
        """Nothing to keep: no durable state."""

    def restart(self):
        """No durable state: a restart is a rebuild.  ``(system, None)``"""
        return self._system(), None

    def close(self, system):
        pass


WORKLOADS = {
    workload.name: workload
    for workload in (Hmo4Cold, Hmo4WarmDurable, Fanout8Faults,
                     Batch256Stream)
}
