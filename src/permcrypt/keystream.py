"""Deterministic keyed bit streams and fixed-width message hashing.

One XOF family (SHAKE-256) expands a seed into independent, domain-tagged
streams; the fixed-width SHA3 digests provide the per-level message hash.
Streams are consumed most-significant-bit first.  Bounded draws are
rejection-sampled, and a Fisher-Yates shuffle takes its swaps from them.
The bit-field split and join here also serve the QPP pipeline.
"""

from __future__ import annotations

import hashlib
import math
import struct
from functools import lru_cache
from operator import length_hint

from .errors import ParameterError, _check_bytes

# Domain separation tags.  The QPP trio drives pad generation and the
# stream-cipher pipeline; the HPPK trio seeds deterministic key generation,
# encapsulation, and signing; the KAT tag derives per-vector seeds.
TAG_QPP_PAD = b"QPP-pad"
TAG_QPP_PRERAND = b"QPP-prerand"
TAG_QPP_DISPATCH = b"QPP-dispatch"
TAG_HPPK_HASH = b"HPPK-hash"
TAG_HPPK_U = b"HPPK-u"
TAG_HPPK_KEYGEN = b"HPPK-keygen"
TAG_KAT = b"KAT-vectors"

_DIGESTS = {32: hashlib.sha3_256, 48: hashlib.sha3_384, 64: hashlib.sha3_512}


@lru_cache(maxsize=17)  # the block sizes 2**0 to 2**16
def _ordered(size: int) -> tuple:
    """tuple(range(size)), one per size: every table of one size points into its ints.

    Fresh ints per table would give an n12m3 pad and its inverse six sets of
    4096; one shared set keeps the gathers and swaps that touch them in cache.
    For n = 16 the set is about 2.3 MiB, kept for the life of the process.
    """
    return tuple(range(size))


@lru_cache(maxsize=64)  # the pipeline's chunk shapes and the shuffle's runs
def _spread_masks(width: int, slot: int, words: int) -> tuple:
    # A word holds one granule, g = 8/gcd(width, 8) fields, right-aligned in g
    # slots.  Step b (highest first) moves the upper half of every group of
    # 2**(b+1) fields up by (slot - width) * 2**b bits; groups are slot * 2**(b+1)
    # bits apart after the higher steps, so each mask is one group pattern
    # repeated over the words.  Each step is (mask, mask << shift, shift).
    steps = (8 // math.gcd(width, 8)).bit_length() - 1
    masks = []
    for b in reversed(range(steps)):
        run, shift = width << b, (slot - width) << b
        pattern = (((1 << run) - 1) << run).to_bytes(slot << b >> 2, "big")
        mask = int.from_bytes(pattern * (words << (steps - 1 - b)), "big")
        masks.append((mask, mask << shift, shift))
    return tuple(masks)


def _spread(data: bytes, width: int, slot: int) -> bytes:
    """data with each width-bit field moved into its own slot-bit slot, big-endian.

    A granule of G = lcm(width, 8)/8 bytes holds g = 8/gcd(width, 8) fields.
    G strided copies right-align each granule in its own word of g slots, and
    at most log2(g) <= 3 whole-integer mask-and-shift steps spread the fields.
    """
    if width == slot:
        return data
    unit = math.gcd(width, 8)
    grain, word = width // unit, slot // unit  # bytes per granule and per word
    words = len(data) // grain
    out = bytearray(words * word)
    for b in range(grain):
        out[word - grain + b::word] = data[b::grain]
    value = int.from_bytes(out, "big")
    for mask, _, shift in _spread_masks(width, slot, words):
        high = value & mask
        value ^= high ^ (high << shift)
    return value.to_bytes(len(out), "big")


def _split(data: bytes, width: int):
    """The width-bit fields of data, most-significant first; 1 <= width <= 16.

    Returns bytes (8-bit slots) for width <= 8 and a tuple of ints above.
    """
    if width <= 8:
        return _spread(data, width, 8)
    data = _spread(data, width, 16)
    return struct.unpack(f">{len(data) // 2}H", data)


def _join(fields, width: int, count: int) -> bytes:
    """Pack `count` width-bit fields into bytes; the inverse of _split."""
    slot = 8 if width <= 8 else 16
    data = bytes(fields) if slot == 8 else struct.pack(f">{count}H", *fields)
    if width == slot:
        return data
    unit = math.gcd(width, 8)
    grain, word = width // unit, slot // unit
    words = len(data) // word
    value = int.from_bytes(data, "big")
    for _, moved, shift in reversed(_spread_masks(width, slot, words)):
        high = value & moved
        value ^= high ^ (high >> shift)
    data = value.to_bytes(len(data), "big")
    out = bytearray(words * grain)
    for b in range(grain):
        out[b::grain] = data[word - grain + b::word]
    return bytes(out)


class KeystreamState:
    """Deterministic bit stream derived from (seed, domain_tag).

    Equal (seed, tag) pairs yield the same infinite stream; distinct tags
    yield independent streams from one seed.  A state is single-owner and
    mutable; its only position is the count of stream bits consumed, and
    every draw reads the squeezed bytes that cover the bits it takes.
    """

    def __init__(self, seed: bytes, domain_tag: bytes):
        _check_bytes(seed, "seed")
        _check_bytes(domain_tag, "domain tag")
        if len(domain_tag) > 255:
            raise ParameterError("domain tag longer than 255 bytes")
        self._material = bytes([len(domain_tag)]) + domain_tag + seed
        self._buf = b""
        self._bit = 0  # stream bits consumed

    def _squeeze(self, end: int) -> None:
        # A shorter SHAKE-256 output is a prefix of a longer one, so squeezing
        # again from the start keeps the stream.  A caller that knows how far
        # its draws reach squeezes once to that bound on a fresh state; past
        # it, one squeeze covers the request and at least doubles the buffer,
        # so small draws stay linear.
        self._buf = hashlib.shake_256(self._material).digest(max(end, 2 * len(self._buf), 256))

    def next_bits(self, k: int) -> int:
        """The next k bits of the stream as an unsigned integer."""
        if not isinstance(k, int) or k < 1:
            raise ParameterError("bit count must be positive")
        end = self._bit + k
        last = (end + 7) >> 3
        if last > len(self._buf):
            self._squeeze(last)
        value = int.from_bytes(self._buf[self._bit >> 3:last], "big")
        self._bit = end
        return (value >> (-end & 7)) & ((1 << k) - 1)

    def next_bytes(self, n: int) -> bytes:
        """The next 8*n bits, packed big-endian; b"" for n == 0."""
        if not isinstance(n, int) or n < 0:
            raise ParameterError("byte count must not be negative")
        if self._bit & 7 and n:
            return self.next_bits(8 * n).to_bytes(n, "big")
        start = self._bit >> 3
        if start + n > len(self._buf):
            self._squeeze(start + n)
        self._bit += 8 * n
        return self._buf[start:start + n]

    def next_index(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection sampling.

        Draws ceil(log2(bound)) bits and redraws on overshoot, so the
        distribution is exactly uniform; bound 1 consumes no bits.
        """
        if not isinstance(bound, int) or bound < 1:
            raise ParameterError("bound must be positive")
        k = (bound - 1).bit_length()
        while k:
            v = self.next_bits(k)
            if v < bound:
                return v
        return 0

    def shuffle(self, size: int) -> list:
        """The forward Fisher-Yates arrangement of range(size); size <= 2**16.

        Position i swaps with i + next_index(size - i), and the stream is
        used exactly as by those calls.  Bounds of one bit width k above 16
        form a run: it reads about 1.5 times its remaining draws as k-bit
        fields, split by one granule pass, and one loop accepts j = i + v <
        size and swaps.  The last 16 bounds are cut from 128-bit windows.
        Either way the bit position then steps back over the bits not used.
        The result is a fresh list whose entries are the ints of the shared
        tuple(range(size)), so tables of one size share one set of ints.
        """
        if not isinstance(size, int) or not 0 <= size <= 1 << 16:
            raise ParameterError("shuffle size must lie in [0, 2**16]")
        table = list(_ordered(size))
        i, tail = 0, size - 16
        while i < tail:
            k = (size - 1 - i).bit_length()
            stop = size - (1 << k >> 1)  # the run ends where the width drops
            while i < stop:
                fields = iter(self._read_fields(k, (stop - i) * 3 // 2 + 4))
                for v in fields:
                    j = i + v
                    if j < size:
                        table[i], table[j] = table[j], table[i]
                        i += 1
                        if i == stop:
                            self._bit -= length_hint(fields) * k
                            break
        left = 0
        while i < size - 1:
            k = (size - 1 - i).bit_length()
            if left < k:
                self._bit -= left
                window, left = self.next_bits(128), 128
            left -= k
            j = i + (window >> left & (1 << k) - 1)
            if j < size:
                table[i], table[j] = table[j], table[i]
                i += 1
        self._bit -= left
        return table

    def _read_fields(self, k: int, want: int):
        """The next k-bit fields, at least `want` of them, split as by _split."""
        return _split(self.next_bytes(_field_bytes(k, want)), k)


def _field_bytes(k: int, want: int) -> int:
    """The bytes of the fewest whole granules that hold `want` k-bit fields."""
    group = math.lcm(k, 8)  # bits in whole fields and whole bytes
    return -(-want * k // group) * group // 8


def hash_to_field(message: bytes, p: int, digest_bytes: int) -> int:
    """Reduce the message digest into [0, p).

    digest_bytes selects the fixed-width digest (32, 48, or 64 bytes,
    matching the scheme's per-level hash column).
    """
    _check_bytes(message, "message")
    if not isinstance(p, int) or p < 2:
        raise ParameterError("field modulus must be at least 2")
    try:
        digest = _DIGESTS[digest_bytes]
    except (KeyError, TypeError):  # an unhashable width names no digest either
        raise ParameterError(f"unsupported digest width {digest_bytes!r}") from None
    return int.from_bytes(digest(message).digest(), "big") % p
