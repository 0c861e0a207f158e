"""Laplace output perturbation with an epsilon budget.

Paper §2 closes its perturbation survey with: "it is clear that they are
not foolproof in protecting data privacy.  Hence, we need a safer and more
efficient method for data perturbation."  The method the field settled on
is differential privacy; this module provides its basic form as a
forward-looking preservation technique:

* :class:`LaplaceMechanism` — adds Laplace(sensitivity/epsilon) noise to an
  aggregate answer.  Noise is **memoized per query fingerprint**, so
  repeating an identical query returns the identical noisy answer (no
  averaging attack), while distinct queries draw fresh noise and spend
  budget.
* :class:`PrivacyBudget` — per-requester epsilon accounting; once a
  requester exhausts the budget, further *novel* queries are refused.

Noise draws route through one injectable ``numpy.random.Generator``
(pass an ``int`` seed, a ``Generator``, or — for backward compatibility —
a ``random.Random``).  Batched draws (:meth:`LaplaceMechanism.answer_many`)
consume the generator stream exactly as the same number of single draws
would, so batch and sequential answering are stream-equivalent.  The
scalar inverse-CDF reference the vectorized draws are pinned against
lives in ``tests/kernels/oracles.py``.
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import PrivacyViolation, ReproError


def resolve_rng(rng=None):
    """Normalize ``rng`` into a noise source.

    ``None`` → a fresh OS-entropy ``numpy.random.Generator``; an ``int``
    → a seeded generator; a ``Generator`` or ``random.Random`` passes
    through unchanged (the latter keeps pre-existing seeded fixtures
    byte-stable).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, (np.random.Generator, random.Random)):
        return rng
    raise ReproError(
        f"rng must be None, an int seed, a numpy Generator, or a "
        f"random.Random; got {type(rng).__name__}"
    )


class PrivacyBudget:
    """Per-requester epsilon ledger."""

    def __init__(self, total_epsilon):
        if total_epsilon <= 0:
            raise ReproError("total epsilon must be positive")
        self.total_epsilon = total_epsilon
        self._spent = {}

    def spent(self, requester):
        """Epsilon this requester has consumed."""
        return self._spent.get(requester, 0.0)

    def remaining(self, requester):
        """Epsilon this requester has left."""
        return self.total_epsilon - self.spent(requester)

    def charge(self, requester, epsilon):
        """Spend ``epsilon``; raise :class:`PrivacyViolation` if overdrawn."""
        if epsilon <= 0:
            raise ReproError("epsilon per query must be positive")
        if self.spent(requester) + epsilon > self.total_epsilon + 1e-12:
            raise PrivacyViolation(
                f"requester {requester!r} has exhausted the privacy budget "
                f"(spent {self.spent(requester):.2f} of "
                f"{self.total_epsilon:.2f})"
            )
        self._spent[requester] = self.spent(requester) + epsilon


class LaplaceMechanism:
    """Budgeted, memoized Laplace noise for aggregate answers."""

    def __init__(self, epsilon_per_query, sensitivity=1.0, budget=None,
                 rng=None):
        if epsilon_per_query <= 0:
            raise ReproError("epsilon per query must be positive")
        if sensitivity <= 0:
            raise ReproError("sensitivity must be positive")
        self.epsilon_per_query = epsilon_per_query
        self.sensitivity = sensitivity
        self.budget = budget
        self.rng = resolve_rng(rng)
        # Not repro.cache.LRUCache: statdb (layer 20) sits below the cache
        # layer (45), and this memo must NEVER evict — replaying the same
        # noisy answer for a repeated query is the privacy mechanism itself.
        self._memo = {}  # repro-lint: disable=REP007 -- DP replay memo must be unbounded and layer 20 cannot import layer 45

    @property
    def noise_scale(self):
        """The Laplace scale b = sensitivity / epsilon."""
        return self.sensitivity / self.epsilon_per_query

    def answer(self, value, fingerprint, requester="anonymous"):
        """``value`` + Laplace noise, memoized by ``fingerprint``.

        A repeated (requester, fingerprint) pair replays the cached noisy
        answer and costs nothing; a novel pair draws fresh noise and is
        charged against the budget (when one is configured).
        """
        key = (requester, fingerprint)
        if key in self._memo:
            return self._memo[key]
        if self.budget is not None:
            self.budget.charge(requester, self.epsilon_per_query)
        noisy = value + float(self._laplace_batch(1)[0])
        self._memo[key] = noisy
        return noisy

    def answer_many(self, values, fingerprints, requester="anonymous"):
        """Batch :meth:`answer`: one vectorized draw for all novel pairs.

        Semantics match calling :meth:`answer` once per (value,
        fingerprint) pair in order — the same memo hits, the same budget
        charges in the same order, and the identical generator stream
        consumption.  If a charge raises mid-batch, every pair charged
        *before* the failure still gets its noise drawn and memoized
        (exactly the state a sequential caller would have left behind)
        and the :class:`PrivacyViolation` propagates.
        """
        values = list(values)
        fingerprints = list(fingerprints)
        if len(values) != len(fingerprints):
            raise ReproError("values and fingerprints must have equal length")
        fast = self._answer_many_fast(values, fingerprints, requester)
        if fast is not None:
            return fast
        results = [None] * len(values)
        fresh = []   # (key, value) per novel pair, in first-occurrence order
        slots = {}   # key -> result indices awaiting that pair's noisy answer
        error = None
        for index, (value, fingerprint) in enumerate(zip(values, fingerprints)):
            key = (requester, fingerprint)
            if key in self._memo:
                results[index] = self._memo[key]
                continue
            if key in slots:  # duplicate within the batch: replays, no charge
                slots[key].append(index)
                continue
            if self.budget is not None:
                try:
                    self.budget.charge(requester, self.epsilon_per_query)
                except PrivacyViolation as exc:
                    error = exc
                    break
            slots[key] = [index]
            fresh.append((key, value))
        noise = self._laplace_batch(len(fresh))
        for (key, value), draw in zip(fresh, noise):
            noisy = value + float(draw)
            self._memo[key] = noisy
            for index in slots[key]:
                results[index] = noisy
        if error is not None:
            raise error
        return results

    def _answer_many_fast(self, values, fingerprints, requester):
        """Fully vectorized :meth:`answer_many` body, or ``None``.

        Applies when there is no budget to charge, no prior memo to
        replay, and numeric values — then the whole batch reduces to
        one dedupe pass, one vectorized draw over the distinct
        fingerprints (identical stream consumption: one draw per novel
        pair, in first-occurrence order), and one memo fill.  Results
        are bitwise-identical to the sequential loop: the same float64
        ``value + draw`` per novel pair, replayed for duplicates.
        """
        if self.budget is not None or self._memo or not values:
            return None
        try:
            numeric = np.asarray(values, dtype=np.float64)
        except (TypeError, ValueError):
            return None
        seen = {}
        codes = np.fromiter(
            (seen.setdefault(fp, len(seen)) for fp in fingerprints),
            dtype=np.int64, count=len(fingerprints),
        )
        # Codes are issued in first-occurrence order, so np.unique's
        # sorted codes line up with first-occurrence positions.
        _, first_position = np.unique(codes, return_index=True)
        noisy = numeric[first_position] + self._laplace_batch(len(seen))
        replayed = noisy.tolist()
        self._memo.update(
            ((requester, fp), answer)
            for fp, answer in zip(seen, replayed)
        )
        return noisy[codes].tolist()

    def _laplace_batch(self, n):
        """``n`` Laplace draws, consuming the stream as ``n`` single draws.

        Inverse CDF: ``b * sign(u) * ln(1 - 2|u|)``, ``u ~ U(-1/2, 1/2)``.
        """
        if n <= 0:
            return np.empty(0)
        if isinstance(self.rng, np.random.Generator):
            u = self.rng.random(n) - 0.5
        else:
            u = np.array([self.rng.random() for _ in range(n)]) - 0.5
        return -self.noise_scale * np.copysign(1.0, u) * np.log(
            1.0 - 2.0 * np.abs(u)
        )

    def expected_absolute_error(self):
        """E|noise| = b (useful for utility accounting)."""
        return self.noise_scale
