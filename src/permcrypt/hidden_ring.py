"""Modular-multiplicative permutations over hidden rings.

The operator multiplies by a secret value modulo a secret modulus.  It is
additive- and scalar-homomorphic, which is what lets polynomial coefficients
be encrypted elementwise while evaluations still decrypt; keeping the
modulus secret is what blocks the ratio-cancellation attack that kills the
public-modulus variant.
"""

from __future__ import annotations

import math

from .errors import GenerationError, ParameterError, _bind, _Frozen, _unchecked
from .ring_arith import inv_mod, mul_mod

_COPRIME_RETRIES = 256


class RingOperator(_Frozen):
    """Coprime (multiplier, modulus) pair, checked when built; `multiplier_inv` and `bits` follow.

    The modulus is a true `bits`-bit value (top bit set), so the bit size
    quoted in security estimates is literal.
    """

    _fields = ("multiplier", "modulus")

    def __init__(self, multiplier: int, modulus: int):
        if not isinstance(modulus, int) or modulus < 2:
            raise ParameterError("modulus must exceed 1")
        if not isinstance(multiplier, int) or not 0 < multiplier < modulus:
            raise ParameterError("multiplier must lie in [1, modulus)")
        if math.gcd(multiplier, modulus) != 1:
            raise ParameterError("multiplier and modulus must be coprime")
        inverse, bits = inv_mod(multiplier, modulus), modulus.bit_length()
        _bind(self, (multiplier, modulus), {"multiplier_inv": inverse, "bits": bits})

    def apply(self, a: int) -> int:
        """multiplier * a mod modulus."""
        return mul_mod(self.multiplier, a, self.modulus)

    def invert(self, c: int) -> int:
        """Inverse of apply: multiplier_inv * c mod modulus."""
        return mul_mod(self.multiplier_inv, c, self.modulus)


def new_operator(rng, bits: int) -> RingOperator:
    """Sample a fresh operator with a `bits`-bit modulus.

    The modulus is uniform over the top half of the range (so its bit
    length is exact) and the multiplier uniform over [1, modulus) with
    non-coprime draws rejected; the draws pass the constructor's checks.
    """
    if not isinstance(bits, int) or bits < 8:
        raise ParameterError("ring size below 8 bits is not supported")
    half = 1 << (bits - 1)
    modulus = half + rng.next_index(half)
    for _ in range(_COPRIME_RETRIES):
        multiplier = 1 + rng.next_index(modulus - 1)
        if math.gcd(multiplier, modulus) == 1:
            inverse = pow(multiplier, -1, modulus)  # bits: the modulus is in [2**(bits-1), 2**bits)
            return _unchecked(RingOperator, multiplier, modulus, multiplier_inv=inverse, bits=bits)
    raise GenerationError("could not draw a coprime multiplier")


def encrypt_coefficients(op: RingOperator, coeffs, prime: int) -> list:
    """Map field coefficients into the hidden ring, elementwise.

    Rejects rings too small to keep an encrypted polynomial evaluation
    decryptable: 2**bits must hold prime**2 per term.
    """
    coeffs = list(coeffs)
    if any(not 0 <= c < prime for c in coeffs):
        raise ParameterError("coefficients must lie in [0, prime)")
    if (1 << op.bits) < prime * prime * len(coeffs):
        raise ParameterError(
            "ring too small: need bits >= 2*log2(prime) + log2(term count)"
        )
    return [op.apply(c) for c in coeffs]


def count_coprime_pairs(bits: int) -> int:
    """Exhaustively count valid (multiplier, modulus) pairs at small sizes.

    Counts both operators of a key (hence the factor two); this is the
    desk-scale ground truth the closed-form attack estimate is checked
    against.  Cost grows as 4**bits, so keep bits small.
    """
    if not isinstance(bits, int) or not 2 <= bits <= 14:
        raise ParameterError("exhaustive count only supported for 2..14 bits")
    total = 0
    for modulus in range(1 << (bits - 1), 1 << bits):
        total += sum(1 for r in range(1, modulus) if math.gcd(r, modulus) == 1)
    return 2 * total
