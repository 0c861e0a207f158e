"""Privacy-coherent caching for the mediation hot path.

The ROADMAP names caching as a first-class scaling lever; the catch in a
privacy-preserving integrator is that a cache is only sound when its
keys capture the *policy state* an artifact was computed under —
otherwise reuse launders a query past policies that changed in between.
This package is that key discipline, in three tiers:

* **tier 1 — plan fingerprints** (:mod:`repro.cache.fingerprint`):
  canonical PIQL + requester + role + subjects + policy epoch, hashed
  once per ``pose()``; fragmentation plans memoize behind it;
* **tier 2 — static verdicts** (:mod:`repro.cache.mediation`):
  plan-check verdicts (including final REFUSEs), and beside them each
  source's compiled plans across poses, keyed without the requester
  (RBAC is checked on every pose, never cached);
* **tier 3 — epoch-invalidated answers**: the
  :class:`~repro.mediator.warehouse.Warehouse` stores integrated
  results tagged with the epoch vector (:mod:`repro.cache.epochs`) they
  were computed under; any policy change, source registration, or
  per-requester audit-state advance makes the vector — and the entry —
  stale.

Every tier is a bounded, thread-safe :class:`~repro.cache.lru.LRUCache`
with TTL and per-tier hit/miss/eviction/invalidation stats surfaced as
``mediator.cache.*`` metrics and a ``cache`` section in the explain
ledger.  The load-bearing invariant — **caching never bypasses
auditing** — is documented in ``docs/performance.md`` and enforced by
construction: the engine's guard check, history append, and budget
charging all happen around the cache, never behind it.
"""

from __future__ import annotations

from repro.cache.epochs import EpochRegistry
from repro.cache.fingerprint import (
    canonical_piql,
    canonical_render,
    plan_fingerprint,
)
from repro.cache.lru import DEFAULT_MAX_ENTRIES, CacheStats, LRUCache
from repro.cache.mediation import (
    POLICY_EPOCH,
    SCHEMA_EPOCH,
    MediationCache,
    requester_key,
    resolve_cache,
)

__all__ = [
    "CacheStats",
    "DEFAULT_MAX_ENTRIES",
    "EpochRegistry",
    "LRUCache",
    "MediationCache",
    "POLICY_EPOCH",
    "SCHEMA_EPOCH",
    "canonical_piql",
    "canonical_render",
    "plan_fingerprint",
    "requester_key",
    "resolve_cache",
]
