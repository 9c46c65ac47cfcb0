"""Shared helpers for the test suite."""

from permcrypt.hppk_kem import KemParams
from permcrypt.keystream import KeystreamState


class ScriptedEntropy:
    """Entropy stub replaying a fixed list of next_index results."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.pos = 0

    def next_index(self, bound):
        value = self.draws[self.pos]
        self.pos += 1
        assert 0 <= value < bound, "scripted draw out of bounds"
        return value


class ZeroEntropy(KeystreamState):
    """Keystream whose every draw is zero; it still counts the bits it reads."""

    def __init__(self):
        super().__init__(b"", b"zero")

    def next_bits(self, k):
        super().next_bits(k)
        return 0

    def next_bytes(self, n):
        super().next_bytes(n)
        return bytes(n)


def toy_params(prime: int, noise_count: int = 1, ring_bits: int | None = None,
               shift_bits: int | None = None) -> KemParams:
    """Small-field parameter set for exhaustive oracle tests."""
    if ring_bits is None:
        ring_bits = 2 * prime.bit_length() + 8
    if shift_bits is None:
        shift_bits = ring_bits + 32
    return KemParams(
        prime=prime,
        noise_count=noise_count,
        ring_bits=ring_bits,
        shift_bits=shift_bits,
    )
