"""Differential tests: memoized Bloom q-gram masks equal the direct hashes.

The oracle is the per-position formula ``BloomFilter`` used before its
masks were memoized — one keyed hash per hash function per item, every
time.  perfbench's replay checks cannot catch a wrong mask, because both
sides of a replay run the memoized code; these tests compare against the
formula itself.
"""

import random

import pytest

from repro.crypto.bloom import BloomFilter, _bloom_mask
from repro.crypto.keyed_hash import keyed_hash_int
from repro.data.healthcare import HealthcareGenerator
from repro.errors import CryptoError
from repro.linkage.similarity import record_qgrams
from repro.mediator.integrator import ResultIntegrator

SIZES = (8, 64, 512)
HASHES = range(1, 7)


def oracle_positions(secret, size, num_hashes, item):
    for i in range(num_hashes):
        yield keyed_hash_int(f"{secret}:{i}", item) % size


def oracle_bits(secret, size, num_hashes, items):
    bits = 0
    for item in items:
        for position in oracle_positions(secret, size, num_hashes, item):
            bits |= 1 << position
    return bits


def oracle_contains(bits, secret, size, num_hashes, item):
    return all(bits >> p & 1
               for p in oracle_positions(secret, size, num_hashes, item))


def random_item(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return "".join(rng.choice("abcdefgh#|:") for _ in range(rng.randint(0, 6)))
    if kind == 1:
        return bytes(rng.randrange(256) for _ in range(rng.randint(0, 5)))
    return rng.randint(-10**6, 10**6)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("size", SIZES)
def test_add_and_contains_match_the_oracle(seed, size):
    rng = random.Random(seed * 1000 + size)
    for num_hashes in HASHES:
        secret = rng.choice(["integration", "private-iye", f"k{seed}", b"raw"])
        items = [random_item(rng) for _ in range(rng.randint(1, 20))]
        one_by_one = BloomFilter(size, num_hashes, secret)
        for item in items:
            one_by_one.add(item)
        together = BloomFilter(size, num_hashes, secret)
        together.add_all(items)
        expected = oracle_bits(secret, size, num_hashes, items)
        assert one_by_one.bits == expected
        assert together.bits == expected
        probes = items + [random_item(rng) for _ in range(20)]
        for probe in probes:
            assert (probe in together) == oracle_contains(
                expected, secret, size, num_hashes, probe)


def test_int_and_bool_items_do_not_share_a_mask():
    # keyed_hash encodes 1 as b"1" and True as b"True"; the memo must keep
    # the two apart even though 1 == True.
    for first, second in ((1, True), (True, 1)):
        bloom = BloomFilter(64, 3, "k")
        bloom.add(first)
        assert bloom.bits == oracle_bits("k", 64, 3, [first])
        assert _bloom_mask("k", 64, 3, second) == oracle_bits("k", 64, 3, [second])


def test_bad_items_still_raise_crypto_error():
    with pytest.raises(CryptoError):
        BloomFilter().add(1.5)
    with pytest.raises(CryptoError):
        BloomFilter().add(["unhashable"])
    with pytest.raises(CryptoError):
        BloomFilter().__contains__(["unhashable"])


def oracle_dedup(rows, fields, threshold, secret):
    """``ResultIntegrator._private_dedup`` over oracle-encoded filters."""
    def encode(row):
        values = [row.get(field, "") or "" for field in fields]
        return oracle_bits(secret, 512, 4, record_qgrams(values, 2))

    def dice(a, b):
        total = a.bit_count() + b.bit_count()
        return 1.0 if total == 0 else 2.0 * (a & b).bit_count() / total

    kept, kept_bits, removed = [], [], 0
    for row in rows:
        bits = encode(row)
        duplicate_of = None
        for index, existing in enumerate(kept_bits):
            if (kept[index]["_source"] != row["_source"]
                    and dice(existing, bits) >= threshold):
                duplicate_of = index
                break
        if duplicate_of is None:
            kept.append(dict(row))
            kept_bits.append(bits)
        else:
            removed += 1
            merged = kept[duplicate_of]
            for key, value in row.items():
                if key == "_source":
                    merged["_source"] = f"{merged['_source']}+{value}"
                elif merged.get(key) in (None, "") and value not in (None, ""):
                    merged[key] = value
    return kept, removed


def test_private_dedup_matches_the_oracle_on_healthcare_names():
    patients = HealthcareGenerator(seed=2006).patients()
    rows = [
        {"first": record["first"], "last": record["last"], "_source": hmo}
        for hmo in sorted(patients)
        for record in patients[hmo]
    ]
    integrator = ResultIntegrator(None, linkage_attributes=("first", "last"))
    kept, removed = integrator._private_dedup(rows)
    expected_kept, expected_removed = oracle_dedup(
        rows, ["first", "last"], integrator.dedup_threshold,
        integrator.bloom_secret,
    )
    assert removed == expected_removed
    assert removed > 0  # the planted duplicates are found
    assert kept == expected_kept
