"""Bloom filters.

Used by the private record-linkage encodings (Schnell-style): each party
encodes a record's q-grams into a Bloom filter under shared keyed hash
functions; filters can then be compared by Dice similarity without
exchanging plaintext identifiers.
"""

from __future__ import annotations

import functools
import math

from repro.errors import CryptoError
from repro.crypto.keyed_hash import keyed_hash_int


# functools rather than repro.cache: the crypto layer sits below the cache
# layer, and a mask depends on nothing but its arguments — no epoch can
# invalidate it.  ``typed`` keeps ``1``, ``True`` and ``1.0`` apart: they
# hash differently, and a float is rejected.  Record linkage re-encodes
# the same ~1.5k field-tagged q-grams on every pose; 8192 entries hold
# them all.
@functools.lru_cache(maxsize=8192, typed=True)
def _bloom_mask(secret, size, num_hashes, item):
    """The bits ``item`` sets in a ``(size, num_hashes, secret)`` filter.

    Bit ``keyed_hash_int(f"{secret}:{i}", item) % size`` for every hash
    function ``i`` — the Schnell construction, as one int mask.
    """
    mask = 0
    for i in range(num_hashes):
        mask |= 1 << (keyed_hash_int(f"{secret}:{i}", item) % size)
    return mask


class BloomFilter:
    """A fixed-size Bloom filter with ``num_hashes`` keyed hash functions.

    All parties that intend to compare filters must share ``size``,
    ``num_hashes``, and ``secret`` (the HMAC key) — that shared secret is
    what keeps a curious mediator from mounting a dictionary attack.
    """

    def __init__(self, size=256, num_hashes=4, secret="private-iye"):
        if size < 8:
            raise CryptoError("Bloom filter size must be at least 8 bits")
        if num_hashes < 1:
            raise CryptoError("need at least one hash function")
        self.size = size
        self.num_hashes = num_hashes
        self.secret = secret
        self.bits = 0  # an int used as a bit set

    def _mask(self, item):
        try:
            return _bloom_mask(self.secret, self.size, self.num_hashes, item)
        except TypeError:  # unhashable, so not str, bytes or int either
            raise CryptoError("item must be str, bytes, or int") from None

    def add(self, item):
        """Insert ``item``."""
        self.bits |= self._mask(item)

    def add_all(self, items):
        """Insert every item of ``items``."""
        for item in items:
            self.add(item)

    def __contains__(self, item):
        mask = self._mask(item)
        return self.bits & mask == mask

    def count_bits(self):
        """Number of set bits."""
        return self.bits.bit_count()

    def dice_similarity(self, other):
        """Dice coefficient of two filters' bit sets (∈ [0, 1])."""
        self._check_compatible(other)
        a, b = self.count_bits(), other.count_bits()
        if a + b == 0:
            return 1.0
        overlap = (self.bits & other.bits).bit_count()
        return 2.0 * overlap / (a + b)

    def jaccard_similarity(self, other):
        """Jaccard coefficient of two filters' bit sets (∈ [0, 1])."""
        self._check_compatible(other)
        union = (self.bits | other.bits).bit_count()
        if union == 0:
            return 1.0
        return (self.bits & other.bits).bit_count() / union

    def estimated_count(self):
        """Estimate of how many distinct items were inserted."""
        zero_fraction = 1 - self.count_bits() / self.size
        if zero_fraction <= 0:
            return float("inf")
        return -self.size / self.num_hashes * math.log(zero_fraction)

    def false_positive_rate(self, inserted):
        """Theoretical false-positive rate after ``inserted`` items."""
        return (1 - math.exp(-self.num_hashes * inserted / self.size)) ** self.num_hashes

    def _check_compatible(self, other):
        if not isinstance(other, BloomFilter):
            raise CryptoError("can only compare with another BloomFilter")
        if (self.size, self.num_hashes, self.secret) != (
            other.size, other.num_hashes, other.secret,
        ):
            raise CryptoError("Bloom filters have incompatible parameters")

    def __repr__(self):
        return (
            f"BloomFilter(size={self.size}, hashes={self.num_hashes}, "
            f"set={self.count_bits()})"
        )
