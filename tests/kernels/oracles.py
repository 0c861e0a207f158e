"""Scalar reference kernels: the executable specification of the hot paths.

Each oracle is the original per-row Python implementation of a kernel
that production now runs vectorized — the §5 loss fixed point, k-anonymity
class counting, the full-domain lattice search, Mondrian partitioning,
Laplace noise draws, and the Figure 1 SLSQP constraint sweep.  They live
here, not in ``src/``, so production carries one implementation per kernel
and the differential suite (``test_differential.py``) and the KERN bench
(``benchmarks/bench_kernels.py``) compare the two on the same seeded
inputs.

Oracles are self-contained: from ``repro`` they import only data types
and the helpers production and reference share by design — the SLSQP
driver ``_optimize``, the winning-node materialization
``FullDomainGeneralizer._try_node`` and the generalization lattice.
"""

import numpy as np

from repro.errors import PrivacyViolation, ReproError
from repro.inference.bounds import _optimize


# -- §5 loss aggregation and budget enforcement --------------------------------

def oracle_compound_loss(losses):
    """``1 - Π(1 - l_i)`` with the production range check and message."""
    combined = 1.0
    for loss in losses:
        if not 0.0 <= loss <= 1.0:
            raise ReproError(f"per-source loss out of range: {loss}")
        combined *= 1.0 - loss
    return 1.0 - combined


def oracle_budget_fixed_point(per_source_loss, budgets, tolerance=1e-9):
    """Scalar reference for ``budget_fixed_point``."""
    participating = dict(per_source_loss)
    withheld = []
    while True:
        aggregated = oracle_compound_loss(participating.values())
        violated = [
            source
            for source in sorted(participating)
            if aggregated > budgets.get(source, 1.0) + tolerance
        ]
        if not violated:
            break
        worst = max(violated, key=lambda s: (participating[s], s))
        withheld.append((worst, aggregated, budgets.get(worst, 1.0)))
        del participating[worst]
        if not participating:
            break
    aggregated = (
        oracle_compound_loss(participating.values()) if participating else 0.0
    )
    return participating, aggregated, withheld


# -- k-anonymity ---------------------------------------------------------------

def oracle_class_sizes(records, quasi_identifiers):
    """Scalar reference for ``class_sizes``: group, then look sizes up."""
    records = list(records)
    if not records:
        return np.empty(0, dtype=np.int64)
    classes = {}
    for record in records:
        key = tuple(record.get(a) for a in quasi_identifiers)
        classes.setdefault(key, []).append(record)
    sizes = {key: len(members) for key, members in classes.items()}
    return np.array(
        [sizes[tuple(r.get(a) for a in quasi_identifiers)] for r in records],
        dtype=np.int64,
    )


def oracle_anonymize(generalizer, records, k, max_suppressed=0, l=None,
                     sensitive=None):
    """Unscreened lattice search: materialize every node bottom-up.

    Returns the first passing node's ``AnonymizationResult``, or ``None``
    when even the top node fails.
    """
    records = list(records)
    lattice = generalizer.lattice
    for height in range(lattice.height_of(lattice.top) + 1):
        for node in lattice.nodes_at_height(height):
            result = generalizer._try_node(
                records, node, k, max_suppressed, l, sensitive
            )
            if result is not None:
                return result
    return None


def oracle_satisfying_nodes(generalizer, records, k, max_suppressed=0,
                            l=None, sensitive=None):
    """Every lattice node ``_try_node`` accepts, in lattice order."""
    records = list(records)
    return [
        node
        for node in generalizer.lattice.all_nodes()
        if generalizer._try_node(records, node, k, max_suppressed, l,
                                 sensitive) is not None
    ]


# -- Mondrian ------------------------------------------------------------------

def oracle_mondrian_partition(records, quasi_identifiers, k):
    """Scalar reference for ``mondrian_partition`` over record lists."""
    records = list(records)
    if k < 1:
        raise ReproError("k must be >= 1")
    if not quasi_identifiers:
        raise ReproError("Mondrian needs at least one quasi-identifier")
    if len(records) < k:
        raise ReproError(f"{len(records)} records cannot be {k}-anonymous")
    for record in records:
        for attribute in quasi_identifiers:
            value = record.get(attribute)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ReproError(
                    f"Mondrian requires numeric QIs; {attribute!r}={value!r}"
                )
    # Global ranges for normalization, so one wide attribute does not
    # dominate the split choice.
    spans = {}
    for attribute in quasi_identifiers:
        values = [r[attribute] for r in records]
        spans[attribute] = (min(values), max(values))
    partitions = []
    _split_scalar(records, quasi_identifiers, k, spans, partitions)
    return partitions


def _split_scalar(records, quasi_identifiers, k, spans, partitions):
    best_attribute = _choose_attribute(records, quasi_identifiers, spans)
    if best_attribute is not None:
        values = sorted(r[best_attribute] for r in records)
        median = values[len(values) // 2]
        left = [r for r in records if r[best_attribute] < median]
        right = [r for r in records if r[best_attribute] >= median]
        if len(left) >= k and len(right) >= k:
            _split_scalar(left, quasi_identifiers, k, spans, partitions)
            _split_scalar(right, quasi_identifiers, k, spans, partitions)
            return
        # Median split failed; try the strict split the other way around.
        left = [r for r in records if r[best_attribute] <= median]
        right = [r for r in records if r[best_attribute] > median]
        if len(left) >= k and len(right) >= k:
            _split_scalar(left, quasi_identifiers, k, spans, partitions)
            _split_scalar(right, quasi_identifiers, k, spans, partitions)
            return
    ranges = {
        attribute: (
            min(r[attribute] for r in records),
            max(r[attribute] for r in records),
        )
        for attribute in quasi_identifiers
    }
    partitions.append((ranges, records))


def _choose_attribute(records, quasi_identifiers, spans):
    """The attribute with the widest normalized range (ties: name order)."""
    best, best_width = None, 0.0
    for attribute in sorted(quasi_identifiers):
        low = min(r[attribute] for r in records)
        high = max(r[attribute] for r in records)
        global_low, global_high = spans[attribute]
        denominator = global_high - global_low
        width = (high - low) / denominator if denominator else 0.0
        if width > best_width:
            best, best_width = attribute, width
    return best


# -- Laplace perturbation ------------------------------------------------------

def oracle_laplace_answers(mechanism, values, fingerprints,
                           requester="anonymous"):
    """``LaplaceMechanism.answer_many`` as the scalar reference ran it.

    The per-pair memo/budget loop, then one ``rng.random()`` per novel
    pair through the inverse CDF ``b * sign(u) * ln(1 - 2|u|)``,
    ``u ~ U(-1/2, 1/2)`` — the stream a batch draw must reproduce.
    Mutates ``mechanism`` (memo, budget, generator) exactly as the
    production call would; pass a fresh, identically seeded one.
    """
    values = list(values)
    fingerprints = list(fingerprints)
    results = [None] * len(values)
    fresh = []   # (key, value) per novel pair, in first-occurrence order
    slots = {}   # key -> result indices awaiting that pair's noisy answer
    error = None
    for index, (value, fingerprint) in enumerate(zip(values, fingerprints)):
        key = (requester, fingerprint)
        if key in mechanism._memo:
            results[index] = mechanism._memo[key]
            continue
        if key in slots:  # duplicate within the batch: replays, no charge
            slots[key].append(index)
            continue
        if mechanism.budget is not None:
            try:
                mechanism.budget.charge(requester, mechanism.epsilon_per_query)
            except PrivacyViolation as exc:
                error = exc
                break
        slots[key] = [index]
        fresh.append((key, value))
    u = np.array([mechanism.rng.random() for _ in range(len(fresh))]) - 0.5
    noise = -mechanism.noise_scale * np.copysign(1.0, u) * np.log(
        1.0 - 2.0 * np.abs(u)
    )
    for (key, value), draw in zip(fresh, noise):
        noisy = value + float(draw)
        mechanism._memo[key] = noisy
        for index in slots[key]:
            results[index] = noisy
    if error is not None:
        raise error
    return results


# -- Figure 1 interval inference -----------------------------------------------

def oracle_cell_bounds(constraints, starts=6, seed=0):
    """``cell_bounds`` over the per-constraint closure list."""
    hidden = constraints.hidden_cells
    if not hidden:
        return {}
    index_of = {cell: k for k, cell in enumerate(hidden)}
    lo, hi = constraints.value_range
    scipy_constraints = _build_constraints(constraints, index_of)
    bounds = [(lo, hi)] * len(hidden)
    rng = np.random.default_rng(seed)

    intervals = {}
    for cell in hidden:
        k = index_of[cell]
        low = _optimize(k, +1.0, scipy_constraints, bounds, rng, starts)
        high = _optimize(k, -1.0, scipy_constraints, bounds, rng, starts)
        if low is None or high is None:
            raise ReproError(
                f"bound problem infeasible for cell {cell} "
                "(published aggregates are inconsistent)"
            )
        intervals[cell] = (min(low, high), max(low, high))
    return intervals


def _build_constraints(constraints, index_of):
    """SLSQP inequality constraints encoding the published aggregates."""
    cons = []
    n_rows, n_cols = constraints.n_rows, constraints.n_cols

    def row_values(v, i):
        values = np.empty(n_cols)
        for j in range(n_cols):
            if j in constraints.known_columns:
                values[j] = constraints.known_columns[j][i]
            else:
                values[j] = v[index_of[(i, j)]]
        return values

    tol = constraints.tolerance
    for i in range(n_rows):
        mu = constraints.row_means[i]
        cons.append({"type": "ineq", "fun": (
            lambda v, i=i, mu=mu: tol - (np.mean(row_values(v, i)) - mu)
        )})
        cons.append({"type": "ineq", "fun": (
            lambda v, i=i, mu=mu: tol - (mu - np.mean(row_values(v, i)))
        )})
        if (constraints.row_stds is not None
                and constraints.row_stds[i] is not None):
            sigma = constraints.row_stds[i]
            cons.append({"type": "ineq", "fun": (
                lambda v, i=i, sigma=sigma: tol
                - (np.std(row_values(v, i), ddof=1) - sigma)
            )})
            cons.append({"type": "ineq", "fun": (
                lambda v, i=i, sigma=sigma: tol
                - (sigma - np.std(row_values(v, i), ddof=1))
            )})

    for j, mean in constraints.column_means.items():
        if j in constraints.known_columns:
            continue
        col_tol = constraints.column_tol(j)
        indices = [index_of[(i, j)] for i in range(n_rows)]
        cons.append({"type": "ineq", "fun": (
            lambda v, idx=tuple(indices), m=mean, t=col_tol: t
            - (np.mean(v[list(idx)]) - m)
        )})
        cons.append({"type": "ineq", "fun": (
            lambda v, idx=tuple(indices), m=mean, t=col_tol: t
            - (m - np.mean(v[list(idx)]))
        )})
    return cons
