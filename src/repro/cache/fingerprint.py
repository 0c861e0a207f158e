"""Canonical plan fingerprints — tier 1 of the mediation cache.

Two ``pose()`` calls may reuse each other's work only when *everything*
that can change the answer is identical.  The fingerprint is a stable
hash over exactly that closure:

* the **canonical PIQL text** — the query rendered by
  :func:`repro.query.language.to_piql` with the WHERE conjuncts sorted
  (AND is commutative, so ``a AND b`` and ``b AND a`` must collide;
  SELECT order is preserved because it shapes the output rows);
* the **requester** and **role** — RBAC and preferences can give two
  requesters different answers to the same text;
* the sorted **subjects** — subject consent changes per-column decisions;
* the **policy epoch** — the sum of per-source policy-store versions, so
  any policy registration anywhere produces a fresh key (old entries are
  then unreachable and age out of the LRU).

The hash is content-addressed (sha256) rather than the tuple itself so
warehouse keys stay short, loggable, and free of query text — a
materialized-keys listing discloses nothing about past queries.
"""

from __future__ import annotations

import hashlib

from repro.query.language import join_clauses, piql_clauses

#: Unit separator — cannot appear in rendered PIQL, so joined fields
#: cannot collide by concatenation.
_FIELD_SEP = "\x1f"


def canonical_piql(query):
    """Render ``query`` with its WHERE conjuncts in canonical order.

    Returns PIQL text such that queries differing only in conjunct
    order render identically.  The input query is never mutated.
    """
    return canonical_render(query)[0]


def canonical_render(query):
    """``(canonical_piql(query), to_piql(query))``.

    Each clause is rendered once; the WHERE conjuncts are joined in
    canonical order and, when the posed order differs, in that order
    too, so a caller that needs both texts renders the query once.
    """
    head, conjuncts, tail = piql_clauses(query)
    where = query.where
    order = sorted(range(len(where)), key=lambda i: repr(where[i]))
    posed = join_clauses(head, conjuncts, tail)
    if order == sorted(order):
        return posed, posed
    canonical = join_clauses(head, [conjuncts[i] for i in order], tail)
    return canonical, posed


def plan_fingerprint(canonical, requester=None, role=None, subjects=(),
                     policy_epoch=0):
    """A stable hex fingerprint of one (query, principal, policy state).

    ``canonical`` is the output of :func:`canonical_piql`.  Identical
    inputs always produce the identical fingerprint across processes and
    runs (no randomized hashing), which is what makes warehouse keys
    comparable in persisted explain ledgers and benchmarks.
    """
    material = _FIELD_SEP.join((
        canonical,
        "" if requester is None else str(requester),
        "" if role is None else str(role),
        ",".join(sorted(str(subject) for subject in subjects)),
        str(policy_epoch),
    ))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]
