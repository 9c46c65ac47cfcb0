"""Deterministic keyed bit streams and fixed-width message hashing.

One XOF family (SHAKE-256) expands a seed into independent, domain-tagged
streams; the fixed-width SHA3 digests provide the per-level message hash.
Streams are consumed most-significant-bit first.
"""

from __future__ import annotations

import hashlib
import secrets

from .errors import ParameterError

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


class KeystreamState:
    """Deterministic bit stream derived from (seed, domain_tag).

    Equal (seed, tag) pairs yield the same infinite stream; distinct tags
    yield independent streams from one seed.  A state is single-owner and
    mutable.
    """

    def __init__(self, seed: bytes, domain_tag: bytes):
        if len(domain_tag) > 255:
            raise ParameterError("domain tag longer than 255 bytes")
        self._material = bytes([len(domain_tag)]) + domain_tag + seed
        self._buf = b""
        self._pos = 0  # bytes consumed from the squeezed stream
        self._acc = 0  # unconsumed bits carried between calls
        self._acc_bits = 0

    def _take_bytes(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            # Re-squeezing from scratch with a doubled length keeps the
            # stream identical to one long squeeze at amortized linear cost.
            size = max(len(self._buf), 256)
            while size < end:
                size *= 2
            self._buf = hashlib.shake_256(self._material).digest(size)
        chunk = self._buf[self._pos:end]
        self._pos = end
        return chunk

    def next_bits(self, k: int) -> int:
        """The next k bits of the stream as an unsigned integer."""
        if k < 1:
            raise ParameterError("bit count must be positive")
        short = k - self._acc_bits
        if short > 0:
            nbytes = (short + 7) // 8
            chunk = self._take_bytes(nbytes)
            self._acc = (self._acc << (8 * nbytes)) | int.from_bytes(chunk, "big")
            self._acc_bits += 8 * nbytes
        self._acc_bits -= k
        out = self._acc >> self._acc_bits
        self._acc &= (1 << self._acc_bits) - 1
        return out

    def next_bytes(self, n: int) -> bytes:
        """The next 8*n bits, packed big-endian."""
        if self._acc_bits == 0:
            return self._take_bytes(n)
        return self.next_bits(8 * n).to_bytes(n, "big")

    def next_index(self, bound: int) -> int:
        """Uniform draw from [0, bound) by rejection sampling.

        Draws ceil(log2(bound)) bits and redraws on overshoot, so the
        distribution is exactly uniform; bound 1 consumes no bits.
        """
        if bound < 1:
            raise ParameterError("bound must be positive")
        k = (bound - 1).bit_length()
        if bound == (1 << k) or bound == 1:
            return self.next_bits(k) if k else 0
        while True:
            v = self.next_bits(k)
            if v < bound:
                return v

    def next_indices(self, bounds) -> list:
        """[self.next_index(b) for b in bounds], with the same stream use.

        The rejection loop runs on a local accumulator refilled from the
        stream in whole 64-byte pieces, instead of one next_bits call per
        draw; the bits it leaves over go back to the state's accumulator,
        so later draws read exactly the stream next_index would leave.
        """
        acc, acc_bits = self._acc, self._acc_bits
        out = []
        append = out.append
        try:
            for bound in bounds:
                if bound < 1:
                    raise ParameterError("bound must be positive")
                k = (bound - 1).bit_length()
                while True:
                    if acc_bits < k:
                        piece = self._take_bytes(64)
                        acc = (acc << 512) | int.from_bytes(piece, "big")
                        acc_bits += 512
                    acc_bits -= k
                    v = acc >> acc_bits
                    acc &= (1 << acc_bits) - 1
                    if v < bound:
                        break
                append(v)
        finally:
            self._acc, self._acc_bits = acc, acc_bits
        return out


class SystemEntropy:
    """OS-backed entropy with the same drawing interface as KeystreamState."""

    def next_bits(self, k: int) -> int:
        if k < 1:
            raise ParameterError("bit count must be positive")
        return secrets.randbits(k)

    def next_bytes(self, n: int) -> bytes:
        return secrets.token_bytes(n)

    def next_index(self, bound: int) -> int:
        if bound < 1:
            raise ParameterError("bound must be positive")
        return secrets.randbelow(bound)


def hash_to_field(message: bytes, p: int, digest_bytes: int = 32) -> int:
    """Reduce the message digest into [0, p).

    digest_bytes selects the fixed-width digest (32, 48, or 64 bytes,
    matching the scheme's per-level hash column).
    """
    if p < 2:
        raise ParameterError("field modulus must be at least 2")
    try:
        digest = _DIGESTS[digest_bytes](message).digest()
    except KeyError:
        raise ParameterError(f"unsupported digest width {digest_bytes}") from None
    return int.from_bytes(digest, "big") % p
