"""Differential tests: the columnar WHERE scan and the sparse SUM audit.

``Table.select`` (one boolean mask per predicate node over the table's
column view) is compared with the row-at-a-time evaluator it replaced,
:func:`tests.kernels.oracles.oracle_evaluate`; ``SumAuditor`` (sparse
exact RREF) with the dense ``Fraction`` auditor,
:func:`tests.kernels.oracles.oracle_sum_auditor`.  Both run under
hypothesis with a fixed derandomized seed, so a divergence is a
reproducible counterexample, not a flake.

NaN literals and cells are fresh objects here.  The one place the oracle
reads object identity is ``x in [...]`` for ``IN`` (``nan in [nan]`` is
true only for the very same object); the masks compare by value, where
NaN never matches.
"""

import math
import random
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AuditRefusal, ReproError
from repro.relational import (
    And,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    TRUE,
    Table,
    TableSchema,
)
from repro.statdb.audit import SumAuditor
from tests.kernels.oracles import oracle_select, oracle_sum_auditor

DIFFERENTIAL = settings(max_examples=400, deadline=None, derandomize=True)

# -- predicate masks ---------------------------------------------------------

BIG = 2 ** 53
INT64_MAX = 2 ** 63 - 1

# Small pools, so cells and literals collide often across int and float:
# around 2**53 a float no longer holds every int, and past int64 no
# fixed-width integer does, so a mask that left Python's comparison for a
# numeric dtype would diverge there.
small_ints = st.integers(-2, 2)
ints = st.one_of(small_ints, st.sampled_from([
    BIG - 1, BIG, BIG + 1, -BIG - 1, INT64_MAX, INT64_MAX + 1, -(2 ** 63),
    -(2 ** 63) - 1,
]))
# repr round-trips every float exactly and makes each NaN a new object.
floats = st.sampled_from([
    0.0, -0.0, 0.5, 1.0, -1.5, 2.0, float(BIG), float(BIG + 2),
    float(2 ** 63), math.inf, -math.inf, math.nan,
]).map(lambda value: float(repr(value)))
texts = st.sampled_from(["", "a", "b", "ab", "B", "15213", "zz"])
bools = st.booleans()

COLUMN_VALUES = {
    "i": ints,         # INT: around 2**53 and past int64
    "s": small_ints,   # INT: small, exact as float
    "f": floats,       # FLOAT: NaN, infinities, 2**53
    "t": texts,        # TEXT
    "b": bools,        # BOOL: compared as 0/1
}
SCHEMA = TableSchema("t", [("i", "int"), ("s", "int"), ("f", "float"),
                           ("t", "text"), ("b", "bool")])

literals = st.one_of(st.none(), bools, ints, floats, texts)
operators = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


def cell(column):
    return st.one_of(st.none(), COLUMN_VALUES[column])


rows = st.lists(
    st.tuples(*(cell(c) for c in SCHEMA.column_names())), max_size=14
)


@st.composite
def leaves(draw, columns):
    column = draw(st.sampled_from(columns))
    kind = draw(st.sampled_from(["cmp", "cmp", "null", "in", "true"]))
    if kind == "cmp":
        return Comparison(column, draw(operators), draw(literals))
    if kind == "null":
        return IsNull(column, negated=draw(st.booleans()))
    if kind == "in":
        return InList(column, draw(st.lists(literals, min_size=1, max_size=3)))
    return TRUE


def predicates(columns):
    return st.recursive(
        leaves(columns),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(And),
            st.lists(children, min_size=1, max_size=3).map(Or),
            children.map(Not),
        ),
        max_leaves=8,
    )


def assert_select_matches(table, predicate):
    assert table.select(predicate).tolist() == oracle_select(table, predicate)


class TestPredicateMasks:
    @DIFFERENTIAL
    @given(rows, predicates(SCHEMA.column_names()))
    def test_select_matches_row_evaluator(self, data, predicate):
        assert_select_matches(Table(SCHEMA, data), predicate)

    @DIFFERENTIAL
    @given(
        st.lists(st.tuples(cell("i"), cell("f")), max_size=14),
        st.sampled_from(["i", "f"]),
        operators,
        st.one_of(bools, ints, floats),
    )
    def test_numeric_comparison_matches_row_evaluator(self, data, column,
                                                      op, literal):
        # The int/float exactness edges, one comparison at a time.
        table = Table(TableSchema("t", [("i", "int"), ("f", "float")]), data)
        assert_select_matches(table, Comparison(column, op, literal))

    @DIFFERENTIAL
    @given(
        st.lists(st.one_of(st.none(), ints, floats, texts, bools), max_size=14),
        predicates(["m"]),
    )
    def test_mixed_type_column_matches_row_evaluator(self, values, predicate):
        # Rows assigned directly skip coercion, so one column can mix
        # types: a pair Python cannot order is false for that row alone.
        table = Table(TableSchema("t", [("m", "text")]))
        table.rows = [(v,) for v in values]
        assert_select_matches(table, predicate)

    @pytest.mark.parametrize("predicate, expected", [
        (Comparison("t", "<", 5), []),             # 'a' < 5: incomparable
        (Comparison("t", "!=", 5), [0, 1]),        # ... yet 'a' != 5
        (Comparison("t", "=", None), []),          # NULL literal: false
        (Comparison("t", "!=", None), []),
        (Comparison("b", "=", 1), [0]),            # True == 1
        (Comparison("i", "=", float(BIG)), []),    # exact across int/float
        (Comparison("i", ">", float(BIG)), [1]),
        (Comparison("f", "=", BIG + 1), []),       # 2.0**53 != 2**53 + 1
        (Comparison("f", "<", BIG + 1), [1]),
        (Comparison("f", "!=", 1.0), [0, 1]),      # NaN != anything
        (Not(Comparison("i", "=", 1)), [1, 2]),    # NOT keeps the NULL row
        (InList("t", ["a", None]), [0]),
    ])
    def test_pinned_semantics(self, predicate, expected):
        table = Table(SCHEMA, [
            (1, 0, math.nan, "a", True),
            (BIG + 1, 0, float(BIG), "b", False),
            (None, None, None, None, None),
        ])
        assert table.select(predicate).tolist() == expected
        assert oracle_select(table, predicate) == expected

    @pytest.mark.parametrize("predicate, expected", [
        (Comparison("f", "<", 1.0), [1]),        # a NaN cell
        (Comparison("s", "<", math.nan), []),    # a NaN literal
        (Comparison("t", "<", math.nan), []),    # ... incomparable with text
    ])
    def test_nan_comparisons_raise_no_warning(self, predicate, expected):
        table = Table(SCHEMA, [
            (1, 0, math.nan, "a", True),
            (2, 1, 0.5, "b", False),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert table.select(predicate).tolist() == expected

    def test_nan_in_list_compares_by_value(self):
        # Deliberate difference: the row evaluator's ``x in [...]`` matches
        # a NaN cell when the literal is the very same object; the mask
        # compares by value, and NaN equals nothing.
        table = Table(SCHEMA, [(1, 0, math.nan, "a", True)])
        predicate = InList("f", [math.nan])
        assert table.rows[0][2] is math.nan
        assert table.select(predicate).tolist() == []
        assert oracle_select(table, predicate) == [0]

# -- SUM audit trail ---------------------------------------------------------

@st.composite
def query_sequences(draw):
    n = draw(st.integers(1, 12))
    query_set = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
    return n, draw(st.lists(query_set, min_size=1, max_size=16))


def outcome(auditor, query_set):
    try:
        auditor.check_and_record(query_set)
    except AuditRefusal as refusal:
        return str(refusal)
    return None


def assert_trails_match(n, sequence):
    sparse, dense = SumAuditor(n), oracle_sum_auditor(n)
    for query_set in sequence:
        assert sparse.would_compromise(query_set) == dense.would_compromise(
            query_set)
        assert outcome(sparse, query_set) == outcome(dense, query_set)
        assert sparse.answered == dense.answered
        assert sparse.compromised_now() == dense.compromised_now()


class TestSumAuditor:
    @DIFFERENTIAL
    @given(query_sequences())
    def test_decisions_match_dense_auditor(self, case):
        assert_trails_match(*case)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_population_of_sixty(self, seed):
        rng = random.Random(seed)
        sequence = [
            rng.sample(range(60), rng.choice([2, 5, 20, 40, 58]))
            for _ in range(40)
        ]
        assert_trails_match(60, sequence)

    @pytest.mark.parametrize("query_set", [[], [5], [-1, 0]])
    def test_bad_query_sets_raise_identically(self, query_set):
        errors = []
        for auditor in (SumAuditor(5), oracle_sum_auditor(5)):
            with pytest.raises(ReproError) as caught:
                auditor.check_and_record(query_set)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]

    def test_concurrent_queries_are_serialized(self):
        # A source may run two fragments on one auditor at once (a
        # retried attempt while the abandoned one still runs).  Each
        # check must see the basis the other left: the accepted sets,
        # replayed in the order they were recorded, are all accepted by
        # the dense auditor, and no record is derivable.
        auditor = SumAuditor(40)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(60):
                    query_set = rng.sample(range(40), rng.choice([2, 3, 20, 38]))
                    try:
                        auditor.check_and_record(query_set)
                    except AuditRefusal:
                        pass
                    auditor.would_compromise(query_set)
                    auditor.compromised_now()
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert auditor.compromised_now() == []
        replay = oracle_sum_auditor(40)
        for query_set in auditor.answered:
            replay.check_and_record(query_set)
        assert replay.compromised_now() == []
