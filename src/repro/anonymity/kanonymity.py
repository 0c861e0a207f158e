"""k-anonymity checks and Samarati-style full-domain generalization.

A release is k-anonymous when every combination of quasi-identifier values
it contains occurs at least k times.  :class:`FullDomainGeneralizer`
searches the generalization lattice bottom-up for the minimal node(s)
achieving k-anonymity, optionally allowing up to ``max_suppressed`` outlier
rows to be dropped (Samarati's suppression allowance).

Hot-path counting is vectorized: records are factorized once into an
integer QI code matrix, lattice nodes are *screened* by fancy-indexing
per-level generalization maps over that matrix and counting equivalence
classes with ``np.unique`` — only the winning node is materialized
(:meth:`FullDomainGeneralizer._try_node`), so results are byte-identical
to trying every node in turn.  The per-record references both paths are
pinned against live in ``tests/kernels/oracles.py``.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.errors import ReproError
from repro.anonymity.lattice import GeneralizationLattice

#: Sentinel code for "attribute absent from the record" — generalization
#: never applies to missing attributes, so the sentinel survives every
#: lattice level unchanged (:func:`equivalence_classes` keys get ``None``).
_MISSING = object()


def equivalence_classes(records, quasi_identifiers):
    """Group records by their quasi-identifier tuple.

    Returns ``{qi_tuple: [records]}``.
    """
    classes = {}
    for record in records:  # repro-lint: disable=REP012 -- reference grouping: the dict of actual record lists is the output
        key = tuple(record.get(a) for a in quasi_identifiers)
        classes.setdefault(key, []).append(record)
    return classes


def class_sizes(records, quasi_identifiers):
    """Per-record equivalence-class sizes as an int ndarray.

    ``sizes[i]`` is the size of the class record ``i`` falls in — the
    vectorized core of :func:`is_k_anonymous` / :func:`measured_k` and
    the validation metrics' counting loops.
    """
    records = list(records)
    if not records:
        return np.empty(0, dtype=np.int64)
    packed = _raw_int_key(records, quasi_identifiers)
    if packed is not None:
        key, span = packed
        if span <= max(4 * key.size, 1 << 20):
            # Dense-enough key space: direct tabulation, no sort at all.
            return np.bincount(key)[key]
        _, inverse, counts = np.unique(
            key, return_inverse=True, return_counts=True
        )
        return counts[inverse.ravel()]
    codes, distinct = encode_columns(records, quasi_identifiers)
    inverse, counts = _class_counts(
        codes, [len(values) for values in distinct]
    )
    return counts[inverse]


def is_k_anonymous(records, quasi_identifiers, k):
    """True when every equivalence class has at least k members."""
    if k < 1:
        raise ReproError("k must be >= 1")
    records = list(records)
    if not records:
        return True
    return int(class_sizes(records, quasi_identifiers).min()) >= k


def measured_k(records, quasi_identifiers):
    """The k actually achieved (smallest equivalence-class size)."""
    records = list(records)
    if not records:
        return 0
    return int(class_sizes(records, quasi_identifiers).min())


def encode_columns(records, attributes):
    """Factorize ``records``' ``attributes`` into an int code matrix.

    Returns ``(codes, distinct)`` where ``codes`` is an ``(n, m)`` int64
    ndarray and ``distinct[j]`` lists column ``j``'s distinct values in
    first-seen order (``codes[i, j]`` indexes into it).  Missing
    attributes encode as the shared :data:`_MISSING` sentinel so they
    compare equal to each other and to nothing else — matching the
    ``record.get(a)`` → ``None`` class-key semantics (``None`` values
    and absent attributes coincide there too, so ``None`` maps to the
    sentinel's code).
    """
    n = len(records)
    codes = np.empty((n, len(attributes)), dtype=np.int64)
    distinct = []
    for j, attribute in enumerate(attributes):
        fast = _factorize_fast(records, attribute)
        if fast is not None:
            codes[:, j], values = fast
            distinct.append(values)
            continue
        seen = {}
        column = np.empty(n, dtype=np.int64)
        values = []
        for i, record in enumerate(records):  # repro-lint: disable=REP012 -- one factorization pass feeding every vectorized screen
            value = record.get(attribute, _MISSING)
            if value is None:
                value = _MISSING
            try:
                code = seen[value]
            except KeyError:
                code = seen[value] = len(values)
                values.append(value)
            except TypeError:  # unhashable QI value: fall back to identity
                code = seen[id(value)] = len(values)
                values.append(value)
            column[i] = code
        codes[:, j] = column
        distinct.append(values)
    return codes, distinct


def _factorize_fast(records, attribute):
    """Factorize one clean column entirely in numpy, or ``None``.

    Applies when the attribute is present in every record and the values
    are one homogeneous scalar type (int/float/str/bool, no NaN) — the
    common quasi-identifier shape.  ``np.unique`` then replaces the
    per-record dict loop; codes come out in sorted rather than
    first-seen order, which class counting and node screening are both
    invariant to (codes and ``distinct`` stay mutually consistent).
    Anything irregular — missing keys, ``None``, mixed types that
    ``np.asarray`` would silently coerce (``1`` vs ``"1"``), NaN's
    identity-keyed dict semantics — returns ``None`` for the reference
    dict path.
    """
    try:
        raw = list(map(operator.itemgetter(attribute), records))
    except KeyError:
        return None
    kinds = set(map(type, raw))
    if len(kinds) != 1 or kinds.pop() not in (int, float, str, bool):
        return None
    try:
        column = np.asarray(raw)
    except (ValueError, OverflowError):
        return None
    if column.dtype.kind not in "biufU" or column.ndim != 1:
        return None
    if column.dtype.kind == "f" and np.isnan(column).any():
        return None
    uniques, inverse = np.unique(column, return_inverse=True)
    return (
        inverse.ravel().astype(np.int64, copy=False),
        [value.item() for value in uniques],
    )


def _raw_int_key(records, attributes):
    """``(key, span)``: packed int64 class keys, skipping factorization.

    Applies when every attribute is an integer column present in every
    record: values shifted to zero base pack directly by mixed radix
    (radix = value span per column), so counting needs no per-column
    ``np.unique`` at all.  ``span`` is the size of the packed key
    space.  Returns ``None`` — use :func:`encode_columns` — for any
    other column shape or when the span would overflow int64.
    """
    key = None
    span = 1
    for attribute in attributes:
        try:
            raw = list(map(operator.itemgetter(attribute), records))
        except KeyError:
            return None
        column = np.asarray(raw)
        # Integer columns only: np.asarray type-discriminates for free —
        # any float/str/None/huge-int admixture lands on kind f/U/O.
        # bool/int mixing coerces to 'i', which matches dict-key
        # semantics exactly (``True == 1``, same hash, same class).
        if column.dtype.kind != "i" or column.ndim != 1:
            return None
        column = column.astype(np.int64, copy=False)
        low = int(column.min())
        radix = int(column.max()) - low + 1
        if span > 2**62 // radix:
            return None
        span *= radix
        column -= low
        key = column if key is None else key * radix + column
    if key is None:
        return None
    return key, span


def _pack_rows(matrix, radii):
    """Mixed-radix pack each code row into one int64 key, or ``None``.

    ``radii[j]`` bounds column ``j``'s codes (its cardinality); rows are
    equal iff their keys are equal.  Returns ``None`` when the key space
    would overflow int64 — callers then fall back to ``axis=0``.
    """
    span = 1
    for radix in radii:
        span *= max(int(radix), 1)
        if span > 2**62:
            return None
    key = np.zeros(len(matrix), dtype=np.int64)
    for j, radix in enumerate(radii):
        key *= max(int(radix), 1)
        key += matrix[:, j]
    return key


def _class_counts(matrix, radii):
    """Equivalence classes of ``matrix`` rows as ``(inverse, counts)``.

    A single 1-D ``np.unique`` over packed keys — much faster than the
    structured sort behind ``np.unique(..., axis=0)``, which remains the
    fallback for key spaces past int64.
    """
    key = _pack_rows(matrix, radii)
    if key is None:
        _, inverse, counts = np.unique(
            matrix, axis=0, return_inverse=True, return_counts=True
        )
    else:
        _, inverse, counts = np.unique(
            key, return_inverse=True, return_counts=True
        )
    return inverse.ravel(), counts


class AnonymizationResult:
    """Outcome of a generalization search."""

    def __init__(self, node, records, suppressed):
        self.node = node
        self.records = records
        self.suppressed = suppressed  # rows dropped under the allowance

    def __repr__(self):
        return (
            f"AnonymizationResult(node={self.node}, rows={len(self.records)}, "
            f"suppressed={len(self.suppressed)})"
        )


class _LatticeScreen:
    """Vectorized pass/fail screening of lattice nodes over one record set.

    Encodes the records once, then per (attribute, level) lazily builds a
    generalization *map* (raw code → generalized code) by applying the
    hierarchy to each **distinct** value rather than each record.  A node
    is screened by fancy-indexing its level maps over the code matrix and
    counting equivalence classes with ``np.unique`` — no per-record
    Python runs per node.
    """

    def __init__(self, lattice, records, sensitive=None):
        self.lattice = lattice
        self.records = records
        self.codes, self.distinct = encode_columns(
            records, lattice.attributes
        )
        self._level_maps = {}  # (column, level) -> int64 map array
        # A sensitive attribute that is itself a QI gets generalized by the
        # node before the diversity check — read it from the node's code
        # matrix instead of the raw encoding in that case.
        self.sens_qi_column = (
            lattice.attributes.index(sensitive)
            if sensitive in lattice.attributes
            else None
        )
        if sensitive is not None and self.sens_qi_column is None:
            sens_codes, sens_values = encode_columns(records, [sensitive])
            self.sens_codes = sens_codes[:, 0]
            self.n_sens = len(sens_values[0])
        else:
            self.sens_codes = None
            self.n_sens = 0

    def _level_map(self, column, level):
        try:
            return self._level_maps[(column, level)]
        except KeyError:
            pass
        hierarchy = self.lattice.hierarchies[column]
        generalized = []
        seen = {}
        mapped = np.empty(len(self.distinct[column]), dtype=np.int64)
        for code, value in enumerate(self.distinct[column]):
            if value is _MISSING:
                out = _MISSING  # absent attributes never generalize
            else:
                out = hierarchy.generalize(value, level)
                if out is None:
                    out = _MISSING  # class keys can't tell None apart
            try:
                out_code = seen[out]
            except KeyError:
                out_code = seen[out] = len(generalized)
                generalized.append(out)
            except TypeError:
                out_code = seen[id(out)] = len(generalized)
                generalized.append(out)
            mapped[code] = out_code
        self._level_maps[(column, level)] = mapped
        return mapped

    def node_passes(self, node, k, max_suppressed, l=None):
        """Exactly ``_try_node(...) is not None``, without materializing."""
        n = len(self.records)
        if n == 0:
            return True  # no records: empty keep is fine (_try_node returns it)
        matrix = np.empty_like(self.codes)
        for column, level in enumerate(node):
            matrix[:, column] = self._level_map(column, level)[
                self.codes[:, column]
            ]
        radii = matrix.max(axis=0) + 1  # generalized per-column spans
        inverse, counts = _class_counts(matrix, radii)
        ok = counts >= k
        if l is not None:
            if self.sens_qi_column is not None:
                sens = matrix[:, self.sens_qi_column]
                n_sens = int(sens.max()) + 1
            else:
                sens, n_sens = self.sens_codes, self.n_sens
            pairs = inverse.astype(np.int64) * max(n_sens, 1) + sens
            per_class = np.bincount(
                np.unique(pairs) // max(n_sens, 1), minlength=len(counts)
            )
            ok &= per_class >= l
        suppressed = int(counts[~ok].sum())
        if suppressed > max_suppressed:
            return False
        return suppressed < n  # keep must be non-empty for a real release


class FullDomainGeneralizer:
    """Minimal full-domain generalization to k-anonymity."""

    def __init__(self, hierarchies):
        self.lattice = GeneralizationLattice(hierarchies)
        self.quasi_identifiers = self.lattice.attributes

    def anonymize(self, records, k, max_suppressed=0, l=None, sensitive=None):
        """Return the minimal-height :class:`AnonymizationResult`.

        Searches lattice heights bottom-up; at each height every node is
        tried (ties broken lexicographically).  With ``l`` and
        ``sensitive`` given, every released equivalence class must also
        contain at least ``l`` distinct sensitive values (classes failing
        only diversity are suppressed under the same allowance).  Raises
        :class:`~repro.errors.ReproError` when even the top node fails —
        which can only happen if ``max_suppressed`` < ``len(records)`` and
        ``k > len(records)``.
        """
        records = list(records)
        self._validate(k, max_suppressed, l, sensitive)
        screen = _LatticeScreen(self.lattice, records, sensitive)
        max_height = self.lattice.height_of(self.lattice.top)
        for height in range(max_height + 1):
            for node in self.lattice.nodes_at_height(height):
                if not screen.node_passes(node, k, max_suppressed, l):
                    continue
                # Winning node: materialize it so the result carries the
                # actual generalized and suppressed records.
                result = self._try_node(
                    records, node, k, max_suppressed, l, sensitive
                )
                if result is not None:
                    return result
        requirement = f"{k}-anonymity"
        if l is not None:
            requirement += f" with {l}-diversity on {sensitive!r}"
        raise ReproError(
            f"no generalization achieves {requirement} for "
            f"{len(records)} records (allowance {max_suppressed})"
        )

    def satisfying_nodes(self, records, k, max_suppressed=0, l=None,
                         sensitive=None):
        """Every lattice node satisfying the requirements (for analysis)."""
        records = list(records)
        self._validate(k, max_suppressed, l, sensitive)
        screen = _LatticeScreen(self.lattice, records, sensitive)
        return [
            node
            for node in self.lattice.all_nodes()
            if screen.node_passes(node, k, max_suppressed, l)
        ]

    def _validate(self, k, max_suppressed, l, sensitive):
        if k < 1:
            raise ReproError("k must be >= 1")
        if max_suppressed < 0:
            raise ReproError("max_suppressed must be >= 0")
        if (l is None) != (sensitive is None):
            raise ReproError("l and sensitive must be given together")
        if l is not None and l < 1:
            raise ReproError("l must be >= 1")

    def _try_node(self, records, node, k, max_suppressed, l=None,
                  sensitive=None):
        generalized = self.lattice.generalize_records(records, node)
        classes = equivalence_classes(generalized, self.quasi_identifiers)
        keep, suppressed = [], []
        for members in classes.values():
            diverse = (
                l is None
                or len({m.get(sensitive) for m in members}) >= l  # repro-lint: disable=REP012 -- production materialization of the winning node
            )
            if len(members) >= k and diverse:
                keep.extend(members)
            else:
                suppressed.extend(members)
        if len(suppressed) > max_suppressed:
            return None
        if not keep and records:
            return None  # suppressing everything is not a release
        return AnonymizationResult(node, keep, suppressed)
