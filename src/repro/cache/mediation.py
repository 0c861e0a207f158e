"""The multi-tier mediation cache (plan / static / source-plan tiers).

One :class:`MediationCache` instance rides inside a
:class:`~repro.mediator.engine.MediationEngine` and owns

* **tier 1 — plans**: fragmentation plans memoized by (canonical PIQL
  text, schema epoch);
* **tier 2 — static**: :class:`~repro.analysis.plancheck.PlanVerdict`
  objects memoized by (plan fingerprint, schema epoch) — a cached
  ``REFUSE`` is replayed identically, which is sound because refusals
  are final (PR 2's invariant) and the fingerprint already pins the
  policy epoch they were decided under;
* **source plans** (stats key ``rewrite``): each registered source's
  compiled :class:`~repro.source.server.SourcePlan`s (or compile
  refusals) across poses, keyed without the requester by
  :meth:`~repro.source.server.RemoteSource.prepare`, which checks RBAC
  on every pose, hit or miss;
* the **epoch registry** driving tier 3 (the warehouse answer cache) —
  see :mod:`repro.cache.epochs` for the invalidation model.

The one invariant this layer must never weaken: **caching never bypasses
auditing**.  The engine runs ``SequenceGuard.check`` and appends to
``MediatorHistory`` around the cache, not behind it — a cache hit is
charged exactly like a miss.  The cache only ever skips *recomputation*,
never *accounting*; the differential property test in
``tests/cache/test_differential.py`` holds cached and uncached runs to
byte-identical answers, refusals, and history.
"""

from __future__ import annotations

import threading
import time

from repro.cache.epochs import EpochRegistry
from repro.cache.lru import DEFAULT_MAX_ENTRIES, LRUCache
from repro.errors import CacheError
from repro.telemetry import NOOP

#: Epoch names (requester epochs are per-name, see ``requester_key``).
POLICY_EPOCH = "policy"
SCHEMA_EPOCH = "schema"


class MediationCache:
    """Tiers + epochs + probe-novelty tracking for one engine."""

    def __init__(self, max_entries=DEFAULT_MAX_ENTRIES, ttl=None,
                 clock=time.monotonic, max_probe_signatures=512,
                 telemetry=None):
        self._lock = threading.Lock()
        self._telemetry = telemetry or NOOP
        self.plans = LRUCache("plan", max_entries=max_entries, ttl=ttl,
                              clock=clock, telemetry=self._telemetry)
        self.static = LRUCache("static", max_entries=max_entries, ttl=ttl,
                               clock=clock, telemetry=self._telemetry)
        # Source plans are per (fragment, source): give the tier room
        # for a few sources per cached plan before LRU pressure sets in.
        # The engine injects it into every source it registers.
        self.source_plans = LRUCache("rewrite",
                                     max_entries=max_entries * 4, ttl=ttl,
                                     clock=clock, telemetry=self._telemetry)
        self.epochs = EpochRegistry()
        self.epochs.events = self._telemetry.events
        self.max_probe_signatures = max_probe_signatures
        self._probes = {}  # requester → set of seen aggregate probe sigs

    # -- telemetry wiring ----------------------------------------------------

    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, value):
        """Propagate the engine's shared telemetry into every tier.

        The epoch registry gets the event log too, so every bump emits
        ``cache.epoch_bump`` into the deployment's stream (which is
        what lets the persistence sink and observatory subscribe
        instead of polling).
        """
        with self._lock:
            self._telemetry = value
            for tier in (self.plans, self.static, self.source_plans):
                tier.telemetry = value
            self.epochs.events = value.events

    # -- tier 1: fragmentation plans ----------------------------------------

    def plan_for(self, canonical, compute):
        """Memoized fragmentation; returns ``(plan, hit)``.

        Keyed by (canonical text, schema epoch): registering a source
        changes the mediated schema, so older plans become unreachable.
        """
        key = (canonical, self.epochs.current(SCHEMA_EPOCH))
        return self.plans.memoize(key, compute)

    # -- tier 2: static verdicts --------------------------------------------

    def static_verdict(self, fingerprint, compute):
        """Memoized plan-check verdict; returns ``(verdict, hit)``.

        The fingerprint pins query text, principal, and policy epoch;
        the schema epoch is added because the verdict also depends on
        *which* sources the plan fans out to.
        """
        key = (fingerprint, self.epochs.current(SCHEMA_EPOCH))
        return self.static.memoize(key, compute)

    # -- epochs (drive tier 3, the warehouse) --------------------------------

    def note_source_registered(self):
        """A source joined: plans and verdicts must recompute."""
        return self.epochs.bump(SCHEMA_EPOCH)

    def note_probe(self, requester, attributes, signature, is_aggregate):
        """Advance the requester's epoch iff their audit state advances.

        The sequence guard (and the source-side auditors behind it) only
        accumulate state on *distinct* aggregate probe signatures —
        repeating an identical probe is explicitly harmless (see
        ``SequenceGuard``), so repeats keep their cached answers, while
        a novel probe invalidates everything this requester had cached.
        Returns whether the epoch advanced.

        The per-requester signature set is bounded: when it overflows it
        is reset, which can only *over*-invalidate (a stale "novel"
        verdict), never let a genuinely novel probe go unnoticed.
        """
        if not is_aggregate:
            return False
        probe = (tuple(attributes), signature)
        with self._lock:
            seen = self._probes.setdefault(requester, set())
            if probe in seen:
                return False
            if len(seen) >= self.max_probe_signatures:
                seen.clear()
            seen.add(probe)
        epoch = self.epochs.bump(requester_key(requester))
        self._telemetry.events.emit(
            "cache.requester_epoch", requester=requester, epoch=epoch,
        )
        return True

    def restore_probe(self, requester, attributes, signature):
        """Re-seed one seen probe signature WITHOUT bumping (recovery).

        Recovery replays the persisted history to rebuild the novelty
        sets, but the epoch values those probes once bumped are
        floor-restored separately from the persisted bump records —
        re-bumping here would double-count every probe and leave the
        counters ahead of the recorded stream.  Returns whether the
        probe was new to the set.
        """
        probe = (tuple(attributes), signature)
        with self._lock:
            seen = self._probes.setdefault(requester, set())
            if probe in seen:
                return False
            if len(seen) >= self.max_probe_signatures:
                seen.clear()
            seen.add(probe)
            return True

    def requester_epoch(self, requester):
        return self.epochs.current(requester_key(requester))

    def invalidate_requester(self, requester):
        """Budget/audit state advanced out of band: drop their reuse."""
        with self._lock:
            self._probes.pop(requester, None)
        return self.epochs.bump(requester_key(requester))

    def epoch_vector(self, policy_epoch, requester):
        """The vector a tier-3 entry must match to stay servable."""
        return (
            (POLICY_EPOCH, policy_epoch),
            (SCHEMA_EPOCH, self.epochs.current(SCHEMA_EPOCH)),
            ("requester", self.requester_epoch(requester)),
        )

    # -- maintenance ---------------------------------------------------------

    def clear(self):
        """Drop every tier and all probe-novelty state; returns counts."""
        with self._lock:
            self._probes.clear()
        return {
            tier.name: tier.clear()
            for tier in (self.plans, self.static, self.source_plans)
        }

    def stats(self):
        """Per-tier stats snapshot plus the current epoch counters."""
        info = {
            tier.name: tier.snapshot()
            for tier in (self.plans, self.static, self.source_plans)
        }
        info["epochs"] = self.epochs.to_dict()
        return info

    def __repr__(self):
        return (
            f"MediationCache(plans={len(self.plans)}, "
            f"static={len(self.static)}, "
            f"source_plans={len(self.source_plans)})"
        )


def requester_key(requester):
    """The epoch-counter name for one requester's auditing state."""
    return f"requester:{requester}"


def resolve_cache(cache):
    """Normalize the ``cache`` constructor argument.

    ``True``/``None`` → a fresh :class:`MediationCache` (the default);
    ``False`` → ``None`` (caching disabled; every pose recomputes); a
    :class:`MediationCache` instance passes through, which is how tests
    and benchmarks inject fake clocks and tiny capacities.
    """
    if cache is None or cache is True:
        return MediationCache()
    if cache is False:
        return None
    if isinstance(cache, MediationCache):
        return cache
    raise CacheError(
        "cache must be True, False, None, or a MediationCache, "
        f"not {type(cache).__name__}"
    )
