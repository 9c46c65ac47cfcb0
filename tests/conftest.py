"""Shared helpers for the test suite."""

from permcrypt.hppk_kem import KemParams


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


class ZeroEntropy:
    """Entropy stub that always draws zero."""

    def next_bits(self, k):
        return 0

    def next_bytes(self, n):
        return bytes(n)

    def next_index(self, bound):
        return 0

    def next_indices(self, bounds):
        return [0 for _ in bounds]


def toy_params(prime: int, noise_count: int = 1, ring_bits: int | None = None,
               shift_bits: int | None = None) -> KemParams:
    """Small-field parameter set for exhaustive oracle tests."""
    if ring_bits is None:
        ring_bits = 2 * prime.bit_length() + 8
    if shift_bits is None:
        shift_bits = ring_bits + 32
    return KemParams(
        prime=prime,
        base_order=1,
        factor_order=1,
        noise_count=noise_count,
        ring_bits=ring_bits,
        shift_bits=shift_bits,
    )
