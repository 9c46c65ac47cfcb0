"""Independent reference of the QPP stream pipeline, for output checks.

Written from the format description, not from permcrypt's code: each
stream is SHAKE-256 over len(tag) || tag || seed, read most-significant bit
first.  Every block takes an n-bit mask, then (random mode) a
ceil(log2 M)-bit dispatch field, redrawn while it is >= M; sequential mode
dispatches block t to table t mod M.  The block is XORed with the mask and
substituted through the chosen table.
"""

from __future__ import annotations

import hashlib

PRERAND_TAG = b"QPP-prerand"
DISPATCH_TAG = b"QPP-dispatch"


class _BitReader:
    def __init__(self, seed: bytes, tag: bytes):
        self._material = bytes([len(tag)]) + tag + seed
        self._bits = 0
        self._value = 0
        self._pos = 0

    def take(self, k: int) -> int:
        while self._pos + k > self._bits:
            self._bits = max(2 * self._bits, 4096)
            digest = hashlib.shake_256(self._material).digest(self._bits // 8)
            self._value = int.from_bytes(digest, "big")
        self._pos += k
        return (self._value >> (self._bits - self._pos)) & ((1 << k) - 1)


def encrypt_prefix(tables, n: int, seed: bytes, sequential: bool, prefix: bytes) -> bytes:
    """Ciphertext of `prefix`, which must hold a whole number of n-bit blocks."""
    size = len(tables)
    k = (size - 1).bit_length()
    mask = _BitReader(seed, PRERAND_TAG)
    dispatch = _BitReader(seed, DISPATCH_TAG)
    blocks = 8 * len(prefix) // n
    plain = int.from_bytes(prefix, "big")
    out = 0
    for t in range(blocks):
        block = (plain >> (n * (blocks - 1 - t))) & ((1 << n) - 1)
        r = mask.take(n)
        if sequential:
            i = t % size
        elif k == 0:
            i = 0
        else:
            i = dispatch.take(k)
            while i >= size:
                i = dispatch.take(k)
        out = (out << n) | tables[i][block ^ r]
    return out.to_bytes(len(prefix), "big")
