"""Differential tests: the integrator's private dedup against a fresh-encoder loop.

``ResultIntegrator._private_dedup`` reads each record's Bloom bits from
a bounded memo keyed by ``(fields, secret, str() of each value)`` and
compares them with int popcounts.  The oracle below is the loop it
replaced: a fresh ``BloomRecordEncoder`` per call and
``BloomFilter.dice_similarity`` per pair.  Kept rows (order, merged
``_source`` and filled-in values) and ``duplicates_removed`` must be
identical, and the memo must never hand one value's or one secret's
bits to another.
"""

import random

import pytest

from repro.data.healthcare import HealthcareGenerator
from repro.linkage.private import BloomRecordEncoder
from repro.mediator import integrator as integrator_module
from repro.mediator.integrator import ResultIntegrator


def oracle_dedup(rows, linkage_attributes, threshold, secret):
    """The dedup loop over freshly encoded filters."""
    fields = [f for f in linkage_attributes if any(f in row for row in rows)]
    if not fields:
        return rows, 0
    encoder = BloomRecordEncoder(fields, size=512, num_hashes=4,
                                 secret=secret)
    kept, kept_blooms, removed = [], [], 0
    for row in rows:
        bloom = encoder.encode(row)
        duplicate_of = None
        for index, existing in enumerate(kept_blooms):
            if (kept[index]["_source"] != row["_source"]
                    and existing.dice_similarity(bloom) >= threshold):
                duplicate_of = index
                break
        if duplicate_of is None:
            kept.append(dict(row))
            kept_blooms.append(bloom)
        else:
            removed += 1
            merged = kept[duplicate_of]
            for key, value in row.items():
                if key == "_source":
                    merged["_source"] = f"{merged['_source']}+{value}"
                elif (merged.get(key) in (None, "")
                      and value not in (None, "")):
                    merged[key] = value
    return kept, removed


def fresh_bits(fields, secret, record):
    return BloomRecordEncoder(list(fields), size=512, num_hashes=4,
                              secret=secret).encode(record).bits


def healthcare_rows(seed=2006):
    patients = HealthcareGenerator(seed=seed).patients()
    return [dict(record, _source=hmo)
            for hmo in sorted(patients) for record in patients[hmo]]


def assert_dedup_matches(rows, integrator):
    expected = oracle_dedup([dict(r) for r in rows],
                            integrator.linkage_attributes,
                            integrator.dedup_threshold,
                            integrator.bloom_secret)
    kept, removed = integrator._private_dedup([dict(r) for r in rows])
    assert removed == expected[1]
    assert kept == expected[0]
    return kept, removed


@pytest.mark.parametrize("fields", [("first", "last"), ("last",),
                                    ("first", "last", "dob"),
                                    ("first", "missing")])
def test_healthcare_rows_dedup_like_the_oracle(fields):
    rows = healthcare_rows()
    integrator = ResultIntegrator(None, linkage_attributes=fields)
    _kept, removed = assert_dedup_matches(rows, integrator)
    assert removed > 0   # the planted cross-HMO duplicates are found
    # a second pass reads every record from the memo
    assert_dedup_matches(rows, integrator)


@pytest.mark.parametrize("seed", range(8))
def test_shuffled_rows_thresholds_and_gaps_dedup_like_the_oracle(seed):
    rng = random.Random(seed)
    rows = rng.sample(healthcare_rows(), 300)
    for row in rows:
        # NULLs, empty strings and non-str linkage values
        if rng.random() < 0.1:
            row["first"] = rng.choice((None, "", 0, 1, 1.0, True, "1"))
        if rng.random() < 0.05:
            del row["last"]
    integrator = ResultIntegrator(
        None, linkage_attributes=("first", "last"),
        dedup_threshold=rng.choice((0.5, 0.7, 0.85, 0.95, 1.0)),
        bloom_secret=rng.choice(("integration", f"k{seed}")),
    )
    assert_dedup_matches(rows, integrator)


def test_rows_without_linkage_fields_are_kept_as_they_are():
    rows = [{"age": 61, "_source": "a"}, {"age": 61, "_source": "b"}]
    integrator = ResultIntegrator(None, linkage_attributes=("first",))
    assert integrator._private_dedup(rows) == (rows, 0)


def test_equal_but_differently_typed_values_do_not_alias():
    fields = ("first",)
    secret = "integration"
    encodings = {}
    # 1, 1.0 and True compare equal and hash alike; a memo keyed by the
    # values themselves would hand the first one's bits to the others
    for value in (1, 1.0, True, "1"):
        bits, count = integrator_module._record_bits(
            fields, secret, (str(value),))
        assert bits == fresh_bits(fields, secret, {"first": value})
        assert count == bits.bit_count()
        encodings[repr(value)] = bits
    assert len({encodings["1"], encodings["1.0"], encodings["True"]}) == 3
    # the encoder reads str() of a value, so 1 and "1" encode alike
    assert encodings["'1'"] == encodings["1"]
    rows = [{"first": value, "_source": f"s{index}"}
            for index, value in enumerate((1, 1.0, True, "1"))]
    integrator = ResultIntegrator(None, linkage_attributes=fields,
                                  dedup_threshold=1.0)
    _kept, removed = assert_dedup_matches(rows, integrator)
    assert removed == 1   # only "1" matches 1


def test_integrators_with_different_secrets_never_share_bits():
    rows = healthcare_rows()[:200]
    first = ResultIntegrator(None, linkage_attributes=("first", "last"),
                             bloom_secret="secret-a")
    second = ResultIntegrator(None, linkage_attributes=("first", "last"),
                              bloom_secret="secret-b")
    for integrator in (first, second, first):
        assert_dedup_matches(rows, integrator)
    for row in rows[:50]:
        texts = (str(row["first"]), str(row["last"]))
        bits_a, _ = integrator_module._record_bits(
            ("first", "last"), "secret-a", texts)
        bits_b, _ = integrator_module._record_bits(
            ("first", "last"), "secret-b", texts)
        assert bits_a != bits_b
        assert bits_a == fresh_bits(("first", "last"), "secret-a", row)
        assert bits_b == fresh_bits(("first", "last"), "secret-b", row)

