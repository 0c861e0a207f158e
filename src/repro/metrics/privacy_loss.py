"""Privacy-loss metrics.

The paper asks for probabilistic, non-boolean loss notions: the canonical
one here is *interval shrink* — how much a release narrows the range an
adversary can place a confidential value in.  Loss 0 means the adversary
learned nothing beyond the prior; loss 1 means the value is pinned exactly.

:func:`budget_fixed_point`, the §5 enforcement loop, runs as one
vectorized kernel; its per-source scalar reference is a test oracle
(``tests/kernels/oracles.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ReproError


def compound_loss(losses):
    """Aggregated loss of integrating several releases: ``1 - Π(1 - l_i)``.

    The paper's §5 independent-evidence model: each release independently
    narrows the adversary's uncertainty, so the survival probabilities
    multiply.  ``losses`` is an iterable of per-source losses in [0, 1].
    """
    combined = 1.0
    for loss in losses:
        if not 0.0 <= loss <= 1.0:
            raise ReproError(f"per-source loss out of range: {loss}")
        combined *= 1.0 - loss
    return 1.0 - combined


def budget_fixed_point(per_source_loss, budgets, tolerance=1e-9):
    """Withhold budget-violating sources until the aggregate fits.

    The mediator's §5 enforcement loop, extracted as a pure function so
    the runtime :class:`~repro.mediator.control.PrivacyControl` and the
    static plan analyzer (:mod:`repro.analysis.plancheck`) provably apply
    the *same* fixed point.  Starting from every source in
    ``per_source_loss``, repeatedly drop the highest-loss source whose
    granted budget (``budgets[source]``, default 1.0) is exceeded by the
    aggregated loss of the remaining set, until no budget is violated.

    Returns ``(participating, aggregated, withheld)`` where
    ``participating`` maps the surviving sources to their losses,
    ``aggregated`` is their compound loss (0.0 when none survive), and
    ``withheld`` lists ``(source, aggregated_at_withholding, budget)``
    tuples in withholding order.

    Iterates a vectorized convergence mask over ndarray losses/budgets;
    the per-source reference loop it is pinned against lives in
    ``tests/kernels/oracles.py``.
    """
    names = list(per_source_loss)
    # Range validation through compound_loss, so an out-of-range loss
    # raises the same error (first offender in name order) as aggregating
    # the losses directly.
    compound_loss(per_source_loss[name] for name in names)
    losses = np.asarray([per_source_loss[name] for name in names], dtype=float)
    granted = np.asarray([budgets.get(name, 1.0) for name in names], dtype=float)
    # Withholding priority is fixed up front — losses never change, so the
    # "highest (loss, name) violator" order can be precomputed once.
    priority = sorted(range(len(names)),
                      key=lambda i: (losses[i], names[i]), reverse=True)

    active = np.ones(len(names), dtype=bool)  # the convergence mask
    withheld = []
    while True:
        aggregated = float(1.0 - np.prod(1.0 - losses[active]))
        violated = active & (aggregated > granted + tolerance)
        if not violated.any():
            break
        # Withhold the highest-loss violating source first and recheck:
        # removing one release may bring the aggregate within the
        # remaining sources' budgets.
        worst = next(i for i in priority if violated[i])
        withheld.append((names[worst], aggregated, float(granted[worst])))
        active[worst] = False
        if not active.any():
            break
    if active.any():
        aggregated = float(1.0 - np.prod(1.0 - losses[active]))
    else:
        aggregated = 0.0
    participating = {
        name: per_source_loss[name]
        for i, name in enumerate(names)
        if active[i]
    }
    return participating, aggregated, withheld


def interval_shrink_loss(prior_interval, posterior_interval):
    """1 - posterior width / prior width, clipped to [0, 1].

    ``prior_interval`` is the range the adversary could assume before the
    release (e.g. (0, 100) for a percentage); ``posterior_interval`` the
    inferred feasibility interval afterwards.
    """
    prior_low, prior_high = prior_interval
    post_low, post_high = posterior_interval
    prior_width = prior_high - prior_low
    post_width = post_high - post_low
    if prior_width <= 0:
        raise ReproError("prior interval must have positive width")
    if post_width < 0:
        raise ReproError("posterior interval is inverted")
    return min(1.0, max(0.0, 1.0 - post_width / prior_width))


def aggregate_interval_loss(prior_interval, posterior_intervals):
    """Worst-case (max) interval-shrink loss over many cells.

    This is the mediator's aggregated privacy loss for a release: the
    privacy of the release is only as good as its most-exposed cell.
    """
    if not posterior_intervals:
        return 0.0
    return max(
        interval_shrink_loss(prior_interval, interval)
        for interval in posterior_intervals
    )


def entropy_loss(prior_probabilities, posterior_probabilities):
    """Normalized entropy reduction between two belief distributions.

    Both arguments are probability vectors over the same candidate values.
    Returns ``(H_prior - H_post) / H_prior`` in [0, 1]; 1 when the
    posterior is a point mass.  A uniform prior gives the classic
    "bits revealed / bits available" reading.
    """
    h_prior = _entropy(prior_probabilities)
    h_post = _entropy(posterior_probabilities)
    if h_prior <= 0:
        raise ReproError("prior distribution has zero entropy")
    return min(1.0, max(0.0, (h_prior - h_post) / h_prior))


def disclosure_risk(released_records, quasi_identifiers):
    """Expected re-identification risk of a release: mean of 1/|class|.

    The standard prosecutor-model risk: a record in an equivalence class of
    size ``s`` is re-identified with probability ``1/s``.
    """
    from repro.anonymity.kanonymity import equivalence_classes

    released_records = list(released_records)
    if not released_records:
        return 0.0
    classes = equivalence_classes(released_records, quasi_identifiers)
    total = sum(len(members) * (1.0 / len(members)) for members in classes.values())
    return total / len(released_records)


def _entropy(probabilities):
    probabilities = list(probabilities)
    if not probabilities:
        raise ReproError("empty distribution")
    total = sum(probabilities)
    if total <= 0 or any(p < 0 for p in probabilities):
        raise ReproError("probabilities must be non-negative and sum > 0")
    return -sum(
        (p / total) * math.log2(p / total) for p in probabilities if p > 0
    )
