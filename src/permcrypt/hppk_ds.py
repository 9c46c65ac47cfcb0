"""Digital signatures verified without the hidden rings.

Signing blinds the two secret factors, evaluated at the message hash, back
through the inverse ring operators.  The verification key carries the
public matrices folded down by a Barrett-style split: residues mod the
field prime plus precomputed radix quotients.  A verifier can then check
the cross-multiplied polynomial identity while the ring moduli stay
secret; it never touches the private key or the rings.
"""

from __future__ import annotations

from .errors import (
    FormatError, GenerationError, ParameterError, SigningError, _check_ints, _check_type,
    _Frozen, _setattr, _unchecked,
)
from .hppk_kem import (
    KemParams, KemPrivateKey, KemPublicKey, _check_public_shape, keygen, shipped_params,
)
from .keystream import hash_to_field

_SELF_CHECK_LIMIT = 64


def ds_params(level: str) -> KemParams:
    """Shipped signature configuration, one shared object per level: m=1, linear factors."""
    return shipped_params(level, 1)


class Signature(_Frozen):
    """Blinded factor evaluations; both values are nonzero by construction."""

    _fields = ("numer_tag", "denom_tag")

    def __init__(self, numer_tag: int, denom_tag: int):
        _setattr(self, "numer_tag", numer_tag)
        _setattr(self, "denom_tag", denom_tag)
        _check_type(self.numer_tag, int, "numer_tag")
        _check_type(self.denom_tag, int, "denom_tag")
        if self.numer_tag == 0 or self.denom_tag == 0:
            raise ParameterError("signature values must be nonzero")


class DsVerificationKey(_Frozen):
    """Ring-free image of the public key.

    For each public matrix entry: its residue times the blinding scalar mod
    the prime, and its radix quotient against the hidden modulus.  The two
    scalar residues stand in for the moduli themselves.  The quotients are
    taken against the radix 2**params.shift_bits of the key's parameter set.
    Each matrix is a flat tuple of `params.terms` entries, row by row as in `pk`.
    """

    _fields = (
        "numer_resid", "denom_resid", "numer_quot", "denom_quot", "ring1_resid", "ring2_resid",
    )

    def __init__(
        self, numer_resid: tuple, denom_resid: tuple, numer_quot: tuple, denom_quot: tuple,
        ring1_resid: int, ring2_resid: int,
    ):
        _setattr(self, "numer_resid", numer_resid)
        _setattr(self, "denom_resid", denom_resid)
        _setattr(self, "numer_quot", numer_quot)
        _setattr(self, "denom_quot", denom_quot)
        _setattr(self, "ring1_resid", ring1_resid)
        _setattr(self, "ring2_resid", ring2_resid)
        for name in ("numer_resid", "denom_resid", "numer_quot", "denom_quot"):
            _check_ints(getattr(self, name), name)
        _check_type(self.ring1_resid, int, "ring1_resid")
        _check_type(self.ring2_resid, int, "ring2_resid")


def derive_verification_key(
    sk: KemPrivateKey, pk: KemPublicKey, blind: int, params: KemParams
) -> DsVerificationKey:
    """Fold the public matrices into the verification key with a known blind.

    A public key whose matrices are not `params.terms` long raises
    FormatError, as in encapsulate.
    """
    _check_type(sk, KemPrivateKey, "sk")
    _check_public_shape(pk, params)
    _check_type(blind, int, "blind")
    if not 0 < blind < params.prime:
        raise ParameterError("blinding scalar must be a nonzero field element")
    return DsVerificationKey(*_fold(sk, pk, blind, params))


def _fold(sk: KemPrivateKey, pk: KemPublicKey, blind: int, params: KemParams) -> tuple:
    """The verification key's fields, in order, from arguments its caller has checked."""
    p = params.prime
    radix = 1 << params.shift_bits
    matrices = pk.numer_matrix, pk.denom_matrix
    moduli = sk.ring1.modulus, sk.ring2.modulus
    return (
        *(tuple(blind * v % p for v in matrix) for matrix in matrices),  # the residues
        *(tuple(radix * v // s for v in matrix) for matrix, s in zip(matrices, moduli)),
        *(blind * s % p for s in moduli),  # ring1_resid, ring2_resid
    )


def ds_keygen(params: KemParams, rng):
    """Generate the full key triple (private, encapsulation, verification).

    One private key serves both decapsulation and signing; the blinding
    scalar is folded into the verification key and not retained.  rng
    feeds keygen and then draws the scalar, all through next_index.
    """
    sk, pk = keygen(params, rng)
    blind = 1 + rng.next_index(params.prime - 1)
    return sk, pk, _unchecked(DsVerificationKey, *_fold(sk, pk, blind, params))


def sign(
    sk: KemPrivateKey,
    params: KemParams,
    message: bytes,
    rng,
    vk: DsVerificationKey | None = None,
) -> Signature:
    """Sign a message with a fresh blinding scalar per attempt, drawn by rng.next_index.

    The signer self-checks each candidate against vk and redraws the scalar
    on the rare radix-quotient mismatch, so released signatures verify
    deterministically.  A vk whose ring residues do not match sk's moduli
    (one from another key) is refused with ParameterError before any draw.
    vk=None remains only for library callers that hold no vk; such a
    signature can fail to verify.  The verifier's fold of tag * P_t by the
    radix quotient floor(2**shift * P_t / s) comes out one too low exactly
    when A * e_t / s < tag * eps_t / 2**shift.  Here s is the ring's hidden
    modulus, A = alpha * f(x) mod p (alpha * h(x) on the other ring), e_t
    the plain entry under P_t, and eps_t the fractional part of
    2**shift * P_t / s.  Averaged over alpha, a key fails at the rate
    sum_t s**2 * eps_t / (2**(shift + 1) * e_t * p) over the entries of
    both rings.  The worst of 256 keys per level,
    ds_keygen(ds_params(level), KeystreamState(bytes([seed]), TAG_HPPK_KEYGEN)),
    fails at 7.3e-6 (DS-I, seed 108), 7.0e-5 (DS-III, seed 196) and 3.6e-5
    (DS-V, seed 147); simulating each key matched its rate.
    """
    _check_type(sk, KemPrivateKey, "sk")
    _check_type(params, KemParams, "params")
    p = params.prime
    r1, r2 = sk.ring1, sk.ring2
    if r1.modulus < p or r2.modulus < p:  # so each tag below is a nonzero value below s
        raise ParameterError("ring moduli must be at least the prime")
    if vk is not None:
        _check_verification_key(vk, params)
        # Both sides are blind * s1 * s2 mod p when vk was derived from sk.
        if vk.ring1_resid * r2.modulus % p != vk.ring2_resid * r1.modulus % p:
            raise ParameterError("verification key does not belong to this private key")
    x = hash_to_field(message, p, params.hash_bytes)
    f0, f1 = sk.numer_coeffs
    h0, h1 = sk.denom_coeffs
    fx = (f0 + f1 * x) % p
    hx = (h0 + h1 * x) % p
    if fx == 0 or hx == 0:
        # No scalar can rescue a vanished factor; the message is unsignable
        # under this key (probability about 2/prime).
        raise SigningError("message hash is a root of a secret factor")
    for _ in range(_SELF_CHECK_LIMIT):
        alpha = 1 + rng.next_index(p - 1)
        # RingOperator.invert of alpha * f(x) and alpha * h(x), nonzero and below p.
        numer_tag = r2.multiplier_inv * (alpha * fx % p) % r2.modulus
        sig = _unchecked(Signature, numer_tag, r1.multiplier_inv * (alpha * hx % p) % r1.modulus)
        if vk is None or _identity_holds(vk, params, x, sig):
            return sig
    raise GenerationError("signer self-check kept failing")


def _check_verification_key(vk: DsVerificationKey, params: KemParams):
    _check_type(vk, DsVerificationKey, "vk")
    for name in ("numer_resid", "denom_resid", "numer_quot", "denom_quot"):
        if len(getattr(vk, name)) != params.terms:
            raise FormatError(f"{name} has the wrong shape for these parameters")


def _identity_holds(vk: DsVerificationKey, params: KemParams, x: int, sig: Signature) -> bool:
    """The cross-multiplied identity at the message hash x, on a checked vk."""
    p = params.prime
    shift = params.shift_bits
    f_tag, h_tag = sig.numer_tag, sig.denom_tag
    for j in range(params.noise_count):
        lhs = 0
        rhs = 0
        xpow = 1
        for t in range(j, params.terms, params.noise_count):  # column j, row by row
            v = (f_tag * vk.denom_resid[t]
                 - vk.ring2_resid * (f_tag * vk.denom_quot[t] >> shift)) % p
            u = (h_tag * vk.numer_resid[t]
                 - vk.ring1_resid * (h_tag * vk.numer_quot[t] >> shift)) % p
            lhs = (lhs + v * xpow) % p
            rhs = (rhs + u * xpow) % p
            xpow = xpow * x % p
        if lhs != rhs:
            return False
    return True


def verify(
    vk: DsVerificationKey, params: KemParams, message: bytes, sig: Signature
) -> bool:
    """Check a signature; True on accept.

    Malformed inputs (wrong shapes, out-of-range values) raise FormatError
    so callers can distinguish garbage from a cryptographic reject.
    """
    _check_type(params, KemParams, "params")
    _check_type(sig, Signature, "sig")
    _check_verification_key(vk, params)
    limit = 1 << params.ring_bits
    if not 0 < sig.numer_tag < limit or not 0 < sig.denom_tag < limit:
        raise FormatError("signature values out of range")
    x = hash_to_field(message, params.prime, params.hash_bytes)
    return _identity_holds(vk, params, x, sig)
