"""Greedy multidimensional partitioning (Mondrian) for numeric QIs.

Instead of one global generalization level, Mondrian recursively splits the
record set on the median of the widest-normalized-range quasi-identifier,
stopping when a split would leave a side with fewer than k records.  Each
final partition is released with its QI values replaced by the partition's
ranges.  Typically loses far less information than full-domain
generalization — benchmark A6 quantifies the difference.

The default implementation loads each QI into one float column array and
recurses over index arrays with boolean masks — split choice, medians,
and ranges are ndarray reductions, and range endpoints are read back from
the original Python values (types preserved).  The per-record reference
recursion lives in ``tests/kernels/oracles.py``; both produce identical
partitions in identical order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def mondrian_partition(records, quasi_identifiers, k):
    """Partition ``records`` into k-anonymous groups.

    All quasi-identifiers must be numeric.  Returns a list of partitions;
    each partition is ``(ranges, members)`` with ``ranges`` a
    ``{attribute: (low, high)}`` mapping.
    """
    records = list(records)
    if k < 1:
        raise ReproError("k must be >= 1")
    if not quasi_identifiers:
        raise ReproError("Mondrian needs at least one quasi-identifier")
    if len(records) < k:
        raise ReproError(f"{len(records)} records cannot be {k}-anonymous")
    for record in records:  # repro-lint: disable=REP012 -- type validation must see each raw value once
        for attribute in quasi_identifiers:
            value = record.get(attribute)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ReproError(
                    f"Mondrian requires numeric QIs; {attribute!r}={value!r}"
                )

    attributes = sorted(quasi_identifiers)
    raw = {
        attribute: [r[attribute] for r in records]  # repro-lint: disable=REP012 -- one column-load pass feeding the ndarray recursion
        for attribute in attributes
    }
    columns = {a: np.asarray(raw[a], dtype=float) for a in attributes}
    # Global ranges for normalization, so one wide attribute does not
    # dominate the split choice.
    spans = {
        a: float(columns[a].max() - columns[a].min()) for a in attributes
    }
    partitions = []
    _split_vector(
        np.arange(len(records), dtype=np.intp), records, raw, columns,
        attributes, k, spans, partitions,
    )
    return partitions


def anonymized_records(partitions, quasi_identifiers):
    """Flatten partitions into released records with range-valued QIs."""
    released = []
    for ranges, members in partitions:
        for record in members:  # repro-lint: disable=REP012 -- release materialization: one output dict per record
            out = dict(record)
            for attribute in quasi_identifiers:
                low, high = ranges[attribute]
                if low == high:
                    out[attribute] = low
                else:
                    out[attribute] = f"[{low}-{high}]"
            released.append(out)
    return released


def _split_vector(index, records, raw, columns, attributes, k, spans,
                  partitions):
    """Split ``index`` on the median of its widest normalized attribute.

    Attributes are tried in name order and the first widest wins; the
    split is ``< median`` or, failing that, ``<= median``, and recursion
    stops when neither leaves both sides with at least ``k`` records.
    """
    best, best_width = None, 0.0
    for attribute in attributes:
        values = columns[attribute][index]
        denominator = spans[attribute]
        width = (
            float(values.max() - values.min()) / denominator
            if denominator else 0.0
        )
        if width > best_width:
            best, best_width = attribute, width
    if best is not None:
        values = columns[best][index]
        median = np.sort(values, kind="stable")[len(values) // 2]
        for left_mask in (values < median, values <= median):
            left, right = index[left_mask], index[~left_mask]
            if len(left) >= k and len(right) >= k:
                _split_vector(left, records, raw, columns, attributes, k,
                              spans, partitions)
                _split_vector(right, records, raw, columns, attributes, k,
                              spans, partitions)
                return
    ranges = {}
    for attribute in attributes:
        values = columns[attribute][index]
        # Read endpoints back from the original values: int QIs must stay
        # ints in the released ranges.
        ranges[attribute] = (
            raw[attribute][index[int(values.argmin())]],
            raw[attribute][index[int(values.argmax())]],
        )
    partitions.append((ranges, [records[i] for i in index]))  # repro-lint: disable=REP012 -- partition materialization

