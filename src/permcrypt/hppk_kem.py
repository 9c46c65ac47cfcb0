"""Key encapsulation from homomorphically encrypted polynomial keys.

Key generation multiplies two secret univariate factors into a shared
multivariate base polynomial, then hides the two coefficient matrices
inside separate hidden rings.  Encapsulation evaluates both public
polynomials at a secret point with fresh noise; decapsulation strips the
rings, cancels the common base, and solves the linear factor for the
secret.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import (
    DecapsulationError, FormatError, GenerationError, ParameterError, _check_ints, _check_type,
    _Frozen, _setattr, _unchecked,
)
from .hidden_ring import RingOperator, new_operator

# Largest prime below 2**bits for every shipped field width, pinned so key
# material and test vectors stay stable across builds.  A regeneration test
# re-derives each entry with an independent primality oracle.
PRIMES_BY_BITS = {
    32: 4294967291,
    48: 281474976710597,
    64: 18446744073709551557,
    96: 79228162514264337593543950319,
    128: 340282366920938463463374607431768211297,
}

# The one table of shipped sets: field bits per level for the KEM (noise
# count 2 or 3) and for the signature scheme (noise count 1), which doubles it.
KEM_FIELD_BITS = {"I": 32, "III": 48, "V": 64}
DS_FIELD_BITS = {"I": 64, "III": 96, "V": 128}
LEVELS = tuple(KEM_FIELD_BITS)

_RESAMPLE_LIMIT = 64


class KemParams(_Frozen):
    """Parameter set shared by the KEM and signature schemes: a prime and a noise count.

    The polynomial shape is fixed: a base polynomial linear in the secret
    point x, times two linear secret factors f0 + f1*x and h0 + h1*x, so
    each public matrix has `rows` rows (powers x**0..x**2) of `noise_count`
    entries.  `base_order` and `factor_order` are constants, which the HPK1
    header still records.  Each width follows from the prime's bit length
    b = `field_bits`: `ring_bits` = 2b + 8, radix shift `shift_bits` =
    ring_bits + 32, and the shortest SHA3 digest of at least 4b bits,
    `hash_bytes`.  `eval_bound` = terms * 2**ring_bits * prime is the strict
    upper bound on a ciphertext evaluation, `ciphertext_bound`'s value.
    `level` names the shipped set equal to this one, if any.
    """

    base_order = 1  # class constants: no constructor argument, no part of == or hash
    factor_order = 1
    rows = 3

    _fields = ("prime", "noise_count")

    def __init__(self, prime: int, noise_count: int):
        _setattr(self, "prime", prime)
        _setattr(self, "noise_count", noise_count)
        if not isinstance(self.prime, int) or self.prime < 2:
            raise ParameterError("prime must be at least 2")
        if not isinstance(self.noise_count, int) or self.noise_count < 1:
            raise ParameterError("noise count must be >= 1")
        bits = self.prime.bit_length()
        hash_bytes = next((w for w in (32, 48, 64) if 2 * w >= bits), None)
        if hash_bytes is None:
            raise ParameterError("no SHA3 digest covers a field wider than 128 bits")
        ring_bits = 2 * bits + 8
        if (1 << ring_bits) < self.prime**2 * self.terms:
            raise ParameterError("noise count too large for decryptable evaluations")
        _setattr(self, "field_bits", bits)
        _setattr(self, "ring_bits", ring_bits)
        _setattr(self, "shift_bits", ring_bits + 32)
        _setattr(self, "hash_bytes", hash_bytes)
        _setattr(self, "eval_bound", self.terms * (1 << ring_bits) * self.prime)

    @property
    def level(self) -> str | None:
        """The level of the shipped set equal to this one; None for any other set."""
        return _LEVEL_OF.get(self)

    @property
    def terms(self) -> int:
        return self.rows * self.noise_count


def shipped_params(level: str, noise_count: int) -> KemParams:
    """The one shared shipped set: noise count 1 signs, 2 or 3 encapsulate."""
    try:
        return _SHIPPED[level, noise_count]
    except (KeyError, TypeError):  # an unhashable argument names no set either
        raise ParameterError(
            f"no shipped parameter set has level {level!r} and noise count {noise_count!r}"
        ) from None


def kem_params(level: str, noise_count: int = 2) -> KemParams:
    """Shipped KEM configuration for a security level (noise_count 2 or 3), shared."""
    if noise_count not in (2, 3):
        raise ParameterError("shipped KEM configurations use 2 or 3 noise variables")
    return shipped_params(level, noise_count)


def _build(level: str, noise_count: int) -> KemParams:
    field_bits = DS_FIELD_BITS if noise_count == 1 else KEM_FIELD_BITS
    return KemParams(PRIMES_BY_BITS[field_bits[level]], noise_count)


_SHIPPED = {(level, m): _build(level, m) for level in LEVELS for m in (1, 2, 3)}
_LEVEL_OF = {params: level for (level, _), params in _SHIPPED.items()}


class KemPrivateKey(_Frozen):
    """Secret linear factors (constant, leading) and the two ring operators hiding the public key."""

    _fields = ("numer_coeffs", "denom_coeffs", "ring1", "ring2")

    def __init__(
        self, numer_coeffs: tuple, denom_coeffs: tuple, ring1: RingOperator, ring2: RingOperator
    ):
        _setattr(self, "numer_coeffs", numer_coeffs)
        _setattr(self, "denom_coeffs", denom_coeffs)
        _setattr(self, "ring1", ring1)
        _setattr(self, "ring2", ring2)
        _check_ints(self.numer_coeffs, "numer_coeffs")
        _check_ints(self.denom_coeffs, "denom_coeffs")
        _check_type(self.ring1, RingOperator, "ring1")
        _check_type(self.ring2, RingOperator, "ring2")
        if len(self.numer_coeffs) != 2 or len(self.denom_coeffs) != 2:
            raise ParameterError("each secret factor must have two coefficients")


class KemPublicKey(_Frozen):
    """Encrypted coefficient matrices: flat tuples of `params.terms` entries < 2**ring_bits.

    Row by row, as the files store them: entry i * noise_count + j belongs to x**i * u_j.
    """

    _fields = ("numer_matrix", "denom_matrix")

    def __init__(self, numer_matrix: tuple, denom_matrix: tuple):
        _setattr(self, "numer_matrix", numer_matrix)
        _setattr(self, "denom_matrix", denom_matrix)
        _check_ints(self.numer_matrix, "numer_matrix")
        _check_ints(self.denom_matrix, "denom_matrix")


class KemCiphertext(_Frozen):
    """Plain-integer evaluations of the two public polynomials."""

    _fields = ("numer_eval", "denom_eval")

    def __init__(self, numer_eval: int, denom_eval: int):
        _setattr(self, "numer_eval", numer_eval)
        _setattr(self, "denom_eval", denom_eval)
        _check_type(self.numer_eval, int, "numer_eval")
        _check_type(self.denom_eval, int, "denom_eval")


def _sample_factor(rng, prime: int) -> tuple:
    # The constant coefficient first; the leading one is drawn nonzero.
    return rng.next_index(prime), 1 + rng.next_index(prime - 1)


def _proportional(f, h, prime: int) -> bool:
    # Two linear factors are scalar multiples iff their 2x2 minor vanishes.
    return (f[0] * h[1] - f[1] * h[0]) % prime == 0


def _sample_base(rng, params: KemParams) -> list:
    """The base matrix, rows x**0 and x**1; an all-zero column j is redrawn top to bottom."""
    p, m = params.prime, params.noise_count
    base = [rng.next_index(p) for _ in range(2 * m)]
    for j in range(m):
        for _ in range(_RESAMPLE_LIMIT):
            if any(base[j::m]):
                break
            base[j::m] = rng.next_index(p), rng.next_index(p)
        if not any(base[j::m]):
            raise GenerationError("could not draw a nonzero base column")
    return base


def _factor_times_base(factor, base, params: KemParams) -> list:
    """Row-major coefficients of (f0 + f1*x) * base(x, u) mod the prime; x shifts one row."""
    f0, f1 = factor
    pad = [0] * params.noise_count
    return [(f0 * b + f1 * a) % params.prime for a, b in zip(pad + base, base + pad)]


def keygen(params: KemParams, rng):
    """Generate a key pair.  Returns (private_key, public_key).

    Every random value comes from rng.next_index(bound), a uniform draw
    from [0, bound); a KeystreamState serves.  Degenerate draws
    (proportional factors, an all-zero base column) are resampled
    internally; the resample budget is bounded so a broken entropy source
    fails loudly instead of looping.
    """
    _check_type(params, KemParams, "params")
    numer = _sample_factor(rng, params.prime)
    for _ in range(_RESAMPLE_LIMIT):
        denom = _sample_factor(rng, params.prime)
        if not _proportional(numer, denom, params.prime):
            break
    else:
        raise GenerationError("could not draw independent secret factors")
    base = _sample_base(rng, params)
    ring1 = new_operator(rng, params.ring_bits)
    ring2 = new_operator(rng, params.ring_bits)
    # encrypt_coefficients' checks hold: entries are below the prime, KemParams fits the ring.
    pk = _unchecked(KemPublicKey, *(
        tuple([r.multiplier * c % r.modulus for c in _factor_times_base(f, base, params)])
        for r, f in ((ring1, numer), (ring2, denom))
    ))
    return _unchecked(KemPrivateKey, numer, denom, ring1, ring2), pk


def ciphertext_bound(params: KemParams) -> int:
    """Strict upper bound on either ciphertext evaluation: terms * 2**ring_bits * prime."""
    return params.eval_bound


def _evaluate(pk: KemPublicKey, params: KemParams, secret: int, noise) -> KemCiphertext:
    # Monomials x**i * u_j are reduced in the field, in the matrices' row
    # order; the sums are plain integers so the ring layer can be stripped exactly.
    p = params.prime
    monomials = []
    xpow = 1
    for _ in range(params.rows):
        monomials += [xpow * u % p for u in noise]
        xpow = xpow * secret % p
    numer = sum(map(mul, pk.numer_matrix, monomials))
    return _unchecked(KemCiphertext, numer, sum(map(mul, pk.denom_matrix, monomials)))


def _check_public_shape(pk: KemPublicKey, params: KemParams) -> None:
    """Refuse a public key whose matrices are not `params.terms` long, as a FormatError."""
    _check_type(pk, KemPublicKey, "pk")
    _check_type(params, KemParams, "params")
    if len(pk.numer_matrix) != params.terms or len(pk.denom_matrix) != params.terms:
        raise FormatError("public key has the wrong shape for these parameters")


def encapsulate(pk: KemPublicKey, params: KemParams, rng):
    """Encapsulate a fresh secret.  Returns (secret, ciphertext).

    The secret is uniform over the field; the noise values are uniform
    nonzero so the ciphertext never collapses to zero.  Both are drawn by
    rng.next_index, as in keygen.  A public key whose matrices are not
    `params.terms` long raises FormatError.
    """
    _check_public_shape(pk, params)
    secret = rng.next_index(params.prime)
    noise = [1 + rng.next_index(params.prime - 1) for _ in range(params.noise_count)]
    return secret, _evaluate(pk, params, secret, noise)


def decapsulate(sk: KemPrivateKey, ct: KemCiphertext, params: KemParams) -> int:
    """Recover the encapsulated secret.

    Strips each ring (the plain evaluations are smaller than the moduli,
    so the lift is exact), then solves the linear factors' ratio
    (f0 + f1*x) / (h0 + h1*x) = numer_lift / denom_lift for x in
    cross-multiplied form, which also covers the pole where the
    denominator factor vanishes at the secret point.  A ciphertext value
    outside [0, ciphertext_bound(params)) raises FormatError.
    """
    _check_type(sk, KemPrivateKey, "sk")
    _check_type(ct, KemCiphertext, "ct")
    _check_type(params, KemParams, "params")
    bound = params.eval_bound
    if not 0 <= ct.numer_eval < bound or not 0 <= ct.denom_eval < bound:
        raise FormatError("ciphertext values out of range")
    p = params.prime
    r1, r2 = sk.ring1, sk.ring2
    # RingOperator.invert on operands already reduced mod each modulus.
    numer_lift = r1.multiplier_inv * (ct.numer_eval % r1.modulus) % r1.modulus % p
    denom_lift = r2.multiplier_inv * (ct.denom_eval % r2.modulus) % r2.modulus % p
    f0, f1 = sk.numer_coeffs
    h0, h1 = sk.denom_coeffs
    denominator = (f1 * denom_lift - h1 * numer_lift) % p
    if denominator == 0:
        raise DecapsulationError("degenerate ciphertext: base polynomial vanished")
    numerator = (h0 * numer_lift - f0 * denom_lift) % p
    return numerator * pow(denominator, -1, p) % p


def attack_complexity(ring_bits: int) -> float:
    """log2 of a brute-force search over both hidden rings' (multiplier, modulus) pairs.

    Counts only that search over coprime pairs; it is not a bound on lattice attacks.
    """
    if not isinstance(ring_bits, int) or ring_bits < 2:
        raise ParameterError("ring size must be at least 2 bits")
    return 2 * ring_bits + math.log2(9 / (2 * math.pi**2))
