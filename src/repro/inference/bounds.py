"""Per-cell feasibility intervals under aggregate constraints.

The matrix view matches Figure 1: rows are measures (tests), columns are
sources (HMOs).  Published knowledge constrains the hidden cells:

* each row's mean over **all** columns equals the published mean (within
  the rounding tolerance of the published precision);
* each row's **sample** standard deviation equals the published sigma
  (Figure 1's sigmas are sample standard deviations — the reproduced
  intervals match the paper's only under ddof=1);
* each hidden column's mean equals that source's published average
  performance;
* every cell lies in the legal value range (percentages: [0, 100]).

For each hidden cell we minimize and maximize its value over the feasible
set with SLSQP from several deterministic starts.  The interval
``[min, max]`` is what a snooper provably learns.  All constraints go to
the solver as one vector-valued function; the per-constraint closure
list it is pinned against lives in ``tests/kernels/oracles.py``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.errors import ReproError

DEFAULT_TOLERANCE = 0.05  # published to one decimal place


class AggregateConstraints:
    """The published aggregates + adversary knowledge for one bound problem.

    Parameters
    ----------
    known_columns:
        ``{column_index: [values per row]}`` — columns the adversary knows
        exactly (its own data).
    row_means, row_stds:
        Published per-row mean and *sample* standard deviation over all
        ``n_cols`` columns.  ``row_stds`` may be ``None`` (no sigmas
        published at all) or contain ``None`` entries for rows whose
        sigma has not (yet) been published — the snooper-watch replays
        partially-released workloads, where sigmas arrive one query at a
        time.
    column_means:
        ``{column_index: published average}`` for hidden columns (from the
        per-source performance table).  Columns absent from both mappings
        are unconstrained except by the value range.
    tolerance / column_tolerance:
        Half-width of the rounding interval of published numbers (0.05 for
        one-decimal publication).  ``column_tolerance`` may be a mapping
        per column for mixed precision.
    """

    def __init__(
        self,
        n_rows,
        n_cols,
        known_columns,
        row_means,
        row_stds=None,
        column_means=None,
        value_range=(0.0, 100.0),
        tolerance=DEFAULT_TOLERANCE,
        column_tolerance=None,
    ):
        if n_rows < 1 or n_cols < 2:
            raise ReproError("need at least 1 row and 2 columns")
        if len(row_means) != n_rows:
            raise ReproError("row_means length must equal n_rows")
        if row_stds is not None and len(row_stds) != n_rows:
            raise ReproError("row_stds length must equal n_rows")
        for j, column in known_columns.items():
            if not 0 <= j < n_cols:
                raise ReproError(f"known column index {j} out of range")
            if len(column) != n_rows:
                raise ReproError(f"known column {j} has wrong length")
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.known_columns = {j: list(v) for j, v in known_columns.items()}
        self.row_means = list(row_means)
        self.row_stds = list(row_stds) if row_stds is not None else None
        self.column_means = dict(column_means or {})
        self.value_range = value_range
        self.tolerance = tolerance
        self.column_tolerance = dict(column_tolerance or {})

    @property
    def hidden_cells(self):
        """(row, col) pairs the adversary does not know."""
        return [
            (i, j)
            for i in range(self.n_rows)
            for j in range(self.n_cols)
            if j not in self.known_columns
        ]

    def column_tol(self, j):
        """Rounding tolerance of column j's published mean."""
        return self.column_tolerance.get(j, self.tolerance)


def cell_bounds(constraints, starts=6, seed=0):
    """Feasibility interval of every hidden cell.

    Returns ``{(row, col): (low, high)}``.  Each bound is the best of
    ``starts`` SLSQP runs from deterministic random interior points;
    infeasible problems raise :class:`~repro.errors.ReproError`.
    """
    hidden = constraints.hidden_cells
    if not hidden:
        return {}
    index_of = {cell: k for k, cell in enumerate(hidden)}
    n_vars = len(hidden)
    lo, hi = constraints.value_range
    scipy_constraints = _build_constraints(constraints, index_of)
    bounds = [(lo, hi)] * n_vars
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
        # Multistart SLSQP can leave local optima crossed on very loose
        # problems; the ordered pair is a conservative sub-interval.
        intervals[cell] = (min(low, high), max(low, high))
    return intervals


def _optimize(var_index, sign, scipy_constraints, bounds, rng, starts):
    lo, hi = bounds[0]
    best = None
    for _ in range(starts):
        x0 = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), len(bounds))
        result = minimize(
            lambda v: sign * v[var_index],
            x0,
            method="SLSQP",
            bounds=bounds,
            constraints=scipy_constraints,
            options={"maxiter": 300, "ftol": 1e-9},
        )
        if result.success:
            value = result.x[var_index]
            if best is None or sign * value < sign * best:
                best = value
    return best


def propagate_intervals(constraints, sweeps=32, tolerance=1e-12):
    """Cheap per-cell bounds by vectorized interval propagation (no solver).

    Sweeps the row-mean and column-mean constraints as ndarray interval
    arithmetic: each hidden cell's bound is tightened against "row sum
    must land in ``n·(μ±tol)`` given the other cells' current bounds",
    and likewise per constrained column, until a sweep changes nothing
    (convergence checked with an explicit change mask) or ``sweeps`` runs
    out.  Returns ``{(row, col): (low, high)}`` — a conservative superset
    of :func:`cell_bounds` (standard-deviation constraints are not
    propagated), computed ~1000x faster; the observatory uses it for
    always-on exposure estimates where the solver would be too slow.
    Raises :class:`~repro.errors.ReproError` when propagation proves the
    published aggregates inconsistent (an interval crosses).
    """
    hidden = constraints.hidden_cells
    if not hidden:
        return {}
    n_rows, n_cols = constraints.n_rows, constraints.n_cols
    lo, hi = constraints.value_range
    low = np.full((n_rows, n_cols), float(lo))
    high = np.full((n_rows, n_cols), float(hi))
    hidden_mask = np.ones((n_rows, n_cols), dtype=bool)
    for j, column in constraints.known_columns.items():
        low[:, j] = column
        high[:, j] = column
        hidden_mask[:, j] = False

    tol = constraints.tolerance
    row_lo = n_cols * (np.asarray(constraints.row_means, dtype=float) - tol)
    row_hi = n_cols * (np.asarray(constraints.row_means, dtype=float) + tol)
    col_ids = [
        j for j in constraints.column_means if j not in constraints.known_columns
    ]
    if col_ids:
        col_lo = np.asarray([
            n_rows * (constraints.column_means[j] - constraints.column_tol(j))
            for j in col_ids
        ])
        col_hi = np.asarray([
            n_rows * (constraints.column_means[j] + constraints.column_tol(j))
            for j in col_ids
        ])

    for _ in range(sweeps):
        previous_low, previous_high = low.copy(), high.copy()
        # Row sums: v_ij >= row_lo_i - Σ_{k≠j} high_ik (and dually).
        row_high_sum = high.sum(axis=1, keepdims=True)
        row_low_sum = low.sum(axis=1, keepdims=True)
        np.maximum(low, np.where(hidden_mask,
                                 row_lo[:, None] - (row_high_sum - high),
                                 low), out=low)
        np.minimum(high, np.where(hidden_mask,
                                  row_hi[:, None] - (row_low_sum - low),
                                  high), out=high)
        if col_ids:
            sub_low, sub_high = low[:, col_ids], high[:, col_ids]
            col_high_sum = sub_high.sum(axis=0, keepdims=True)
            col_low_sum = sub_low.sum(axis=0, keepdims=True)
            low[:, col_ids] = np.maximum(
                sub_low, col_lo[None, :] - (col_high_sum - sub_high)
            )
            high[:, col_ids] = np.minimum(
                sub_high, col_hi[None, :] - (col_low_sum - low[:, col_ids])
            )
        np.clip(low, lo, hi, out=low)
        np.clip(high, lo, hi, out=high)
        if (low > high + 1e-9).any():
            raise ReproError(
                "interval propagation proves the published aggregates "
                "inconsistent (a cell's bounds crossed)"
            )
        changed = ((np.abs(low - previous_low) > tolerance)
                   | (np.abs(high - previous_high) > tolerance))
        if not changed.any():
            break
    return {
        (i, j): (float(low[i, j]), float(high[i, j])) for i, j in hidden
    }


def _build_constraints(constraints, index_of):
    """One vector-valued SLSQP constraint evaluating every residual at once.

    The published aggregates as inequalities, per row ``[mean+, mean-,
    (std+, std-)]`` then per column-mean ``[col+, col-]``, computed with
    ndarray ops over a scatter-filled matrix.  One evaluation replaces a
    list of per-constraint Python closures (the solver's finite-difference
    jacobian calls the constraint functions n_vars+1 times per iteration).
    """
    n_rows, n_cols = constraints.n_rows, constraints.n_cols
    cells = sorted(index_of, key=index_of.get)
    hidden_rows = np.array([cell[0] for cell in cells], dtype=np.intp)
    hidden_cols = np.array([cell[1] for cell in cells], dtype=np.intp)
    template = np.zeros((n_rows, n_cols))
    for j, column in constraints.known_columns.items():
        template[:, j] = column
    row_mu = np.asarray(constraints.row_means, dtype=float)
    tol = constraints.tolerance

    if constraints.row_stds is not None:
        std_rows = np.array(
            [i for i, s in enumerate(constraints.row_stds) if s is not None],
            dtype=np.intp,
        )
        sigmas = np.asarray(
            [constraints.row_stds[i] for i in std_rows], dtype=float
        )
    else:
        std_rows = np.empty(0, dtype=np.intp)
        sigmas = np.empty(0)

    col_ids, col_mus, col_tols = [], [], []
    for j, mean in constraints.column_means.items():
        if j in constraints.known_columns:
            continue
        col_ids.append(j)
        col_mus.append(mean)
        col_tols.append(constraints.column_tol(j))
    col_ids = np.array(col_ids, dtype=np.intp)
    col_mus = np.asarray(col_mus, dtype=float)
    col_tols = np.asarray(col_tols, dtype=float)

    # Residual slots: per row [mean+, mean-, (std+, std-)], then per
    # column-mean [col+, col-].
    slot_mean = np.empty(n_rows, dtype=np.intp)
    slot_std = np.empty(len(std_rows), dtype=np.intp)
    position, next_std = 0, 0
    has_sigma = set(std_rows.tolist())
    for i in range(n_rows):
        slot_mean[i] = position
        position += 2
        if i in has_sigma:
            slot_std[next_std] = position
            next_std += 1
            position += 2
    slot_col = position + 2 * np.arange(len(col_ids), dtype=np.intp)
    n_residuals = position + 2 * len(col_ids)

    def residuals(v):
        matrix = template.copy()
        matrix[hidden_rows, hidden_cols] = v
        out = np.empty(n_residuals)
        means = matrix.mean(axis=1)
        out[slot_mean] = tol - (means - row_mu)
        out[slot_mean + 1] = tol - (row_mu - means)
        if std_rows.size:
            stds = matrix[std_rows].std(axis=1, ddof=1)
            out[slot_std] = tol - (stds - sigmas)
            out[slot_std + 1] = tol - (sigmas - stds)
        if col_ids.size:
            column_means = matrix[:, col_ids].mean(axis=0)
            out[slot_col] = col_tols - (column_means - col_mus)
            out[slot_col + 1] = col_tols - (col_mus - column_means)
        return out

    return [{"type": "ineq", "fun": residuals}]

