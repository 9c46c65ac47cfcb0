"""Bit-exact serialization for HPPK keys, ciphertexts and signatures.

Every envelope is magic + kind + a parameter header + a fixed-width
big-endian payload whose length is fully determined by the parameters.
Each HPPK kind's payload is described in `_payload` and placed once per
(kind, shipped parameter set) by `_layout`: header bytes, field offsets
and size, read by its encoder, its decoder and its size formula.  There
each field's rule is stated once, as a [low, high) range, so an encoder
refuses exactly what its decoder refuses.  Decoders build each key,
ciphertext and signature through `errors._unchecked` from those
range-checked fields and do not re-run the constructors' checks.  The one
cross-field rule, a ring multiplier below its modulus and coprime to it,
is the `RingOperator` constructor: the private-key decoder checks each
ring with it, then builds the key around them.  A verification key holds
no radix shift; its encoder writes the set's own.  Key matrices are flat
tuples, row by row, and each is written as one run in that order.
A decode reads the header first and reports a header byte that names no
shipped set at its own offset.  It then checks the length once: truncation
is reported at the first missing byte, trailing bytes at the expected end,
and, after one pass reads every field, the first out of range at its offset.
Pad and stream files use the `QPP1` envelope, which `permcrypt.qpp` defines
with bit padding, beside the cipher whose limits its header shares; this
module re-exports its six public names (`encode_pad`, `decode_pad`,
`encode_qpp_stream`, `decode_qpp_stream`, `pad_bits`, `unpad_bits`), and
imports `qpp` the first time one of them is read.  Importing this module
loads neither `qpp` nor `hppk_ds`: the two DS envelopes' classes come from
`hppk_ds` on their first call.  The known-answer-test files, which run the
schemes, live in `permcrypt.kat`.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate, repeat
from operator import itemgetter, le, lt

from .errors import (
    FormatError, ParameterError, _check_bytes, _check_length, _check_magic, _check_type,
    _unchecked,
)
from .hppk_kem import (
    LEVELS,
    KemCiphertext,
    KemParams,
    KemPrivateKey,
    KemPublicKey,
    ciphertext_bound,
    shipped_params,
)
from .hidden_ring import RingOperator

# The QPP1 envelope and bit padding of `permcrypt.qpp`, re-exported on first use.
_QPP1_NAMES = frozenset((
    "encode_pad", "decode_pad", "encode_qpp_stream", "decode_qpp_stream", "pad_bits",
    "unpad_bits",
))


def __getattr__(name: str):
    """Import `qpp` the first time a QPP1 name is read, and keep that name here."""
    if name not in _QPP1_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import qpp

    value = globals()[name] = getattr(qpp, name)
    return value


@cache
def _ds_classes() -> tuple:
    """`DsVerificationKey` and `Signature`, imported once: only the DS envelopes use them."""
    from .hppk_ds import DsVerificationKey, Signature

    return DsVerificationKey, Signature


MAGIC_HPPK = b"HPK1"

KIND_KEM_PUBLIC = 0x01
KIND_KEM_PRIVATE = 0x02
KIND_KEM_CIPHERTEXT = 0x03
KIND_DS_VERIFICATION = 0x04
KIND_DS_SIGNATURE = 0x05

_LEVEL_CODE = dict(zip(LEVELS, (1, 3, 5)))  # the NIST level number
_LEVEL_FROM_CODE = {v: k for k, v in _LEVEL_CODE.items()}

HEADER_LEN = 11  # magic, kind, level, field_bits (2), orders, noise count


# ---------------------------------------------------------------------------
# HPPK payload layouts


def _bytes_for(bits: int) -> int:
    return (bits + 7) // 8


def _payload(kind: int, params: KemParams) -> tuple:
    """The payload of an HPPK envelope as ordered (name, count, width, low, high) runs.

    Each run is `count` big-endian fields of `width` bytes, every one in [low, high),
    the field's one rule.  A matrix is one run, row by row, in the order of its
    key's flat tuple (entry i * noise_count + j).  `_layout` places it once.
    """
    fw, rw = _bytes_for(params.field_bits), _bytes_for(params.ring_bits)
    p, ring, terms, shift = params.prime, 1 << params.ring_bits, params.terms, params.shift_bits
    if kind == KIND_KEM_PUBLIC:
        return (("public matrix entry", terms, rw, 0, ring),) * 2
    if kind == KIND_KEM_PRIVATE:
        factor = (("factor coefficient", params.factor_order, fw, 0, p),
                  ("leading factor coefficient", 1, fw, 1, p))
        operator = ("ring multiplier", 1, rw, 1, ring), ("ring modulus", 1, rw, ring >> 1, ring)
        return factor * 2 + operator * 2
    if kind == KIND_KEM_CIPHERTEXT:
        bound = ciphertext_bound(params)
        return (("ciphertext evaluation", 2, _bytes_for((bound - 1).bit_length()), 0, bound),)
    if kind == KIND_DS_VERIFICATION:
        resid = ("residue entry", terms, fw, 0, p)
        quot = ("quotient entry", terms, _bytes_for(shift), 0, 1 << shift)
        return (resid, resid, quot, quot,
                ("ring residue", 2, fw, 0, p), ("radix shift", 1, 2, shift, shift + 1))
    return (("signature value", 2, rw, 1, ring),)  # KIND_DS_SIGNATURE


@lru_cache(maxsize=64)  # five kinds over the nine shipped parameter sets
def _layout(kind: int, params: KemParams) -> tuple:
    """Header, (name, width, low, high, field offsets) runs and size, then for `_decode`
    a getter of every field's bytes, their lows (empty if all are 0) and highs, and each
    run's slice of the fields.  No payload has one field, so the getter gives a tuple."""
    header, runs, at = _params_header(kind, params), [], HEADER_LEN
    for what, count, width, low, high in _payload(kind, params):
        runs.append((what, width, low, high, range(at, at + count * width, width)))
        at += count * width
    cuts, lows, highs = zip(*((slice(i, i + width), low, high)
                              for _, width, low, high, where in runs for i in where))
    ends = tuple(accumulate(len(where) for *_, where in runs))
    return (header, tuple(runs), at, itemgetter(*cuts), lows if any(lows) else (), highs,
            tuple(map(slice, (0, *ends), ends)))


def _size(kind: int, params: KemParams) -> int:
    return _layout(kind, params)[2] - HEADER_LEN


def kem_public_size(params: KemParams) -> int:
    """Payload bytes of an encapsulation public key."""
    return _size(KIND_KEM_PUBLIC, params)


def kem_private_size(params: KemParams) -> int:
    """Payload bytes of a private key."""
    return _size(KIND_KEM_PRIVATE, params)


def kem_ciphertext_size(params: KemParams) -> int:
    return _size(KIND_KEM_CIPHERTEXT, params)


def ds_signature_size(params: KemParams) -> int:
    return _size(KIND_DS_SIGNATURE, params)


def ds_verification_size(params: KemParams) -> int:
    return _size(KIND_DS_VERIFICATION, params)


def shared_secret_size(params: KemParams) -> int:
    return _bytes_for(params.field_bits)


# ---------------------------------------------------------------------------
# headers


def _params_header(kind: int, params: KemParams) -> bytes:
    level = params.level
    if level is None:
        raise ParameterError("parameters are not a shipped set")
    return (
        MAGIC_HPPK
        + bytes([kind, _LEVEL_CODE[level]])
        + params.field_bits.to_bytes(2, "big")
        + bytes([params.base_order, params.factor_order, params.noise_count])
    )


@lru_cache(maxsize=64)  # only the headers of shipped sets return
def _read_params_header(data: bytes, expect_kind: int) -> tuple:
    """The parameters and layout that an envelope's first HEADER_LEN bytes name.

    The level byte and the noise-count byte pick the shipped set; the other
    bytes must then be that set's own, and the first that is not is reported.
    """
    _check_magic(data, MAGIC_HPPK, HEADER_LEN)
    if data[4] != expect_kind:
        raise FormatError(f"unexpected kind byte {data[4]:#04x}", offset=4)
    level = _LEVEL_FROM_CODE.get(data[5])
    if level is None:
        raise FormatError(f"unknown level code {data[5]}", offset=5)
    try:
        params = shipped_params(level, data[10])
    except ParameterError as exc:
        raise FormatError(str(exc), offset=10) from exc
    layout = _layout(expect_kind, params)
    for at in range(6, 10):
        if data[at] != layout[0][at]:
            raise FormatError("parameter header does not match a shipped set", offset=at)
    return params, layout


# ---------------------------------------------------------------------------
# HPPK envelopes


def _encode(kind: int, params: KemParams, runs) -> bytes:
    """The header, then each run's values at the width its layout gives.

    Each value is checked against its run's range, the one its decoder
    enforces, so no envelope carries a field its decoder calls out of range.
    """
    _check_type(params, KemParams, "params")
    header, layout, *_ = _layout(kind, params)
    out = [header]
    for (what, width, low, high, where), values in zip(layout, runs):
        if len(values) != len(where):
            raise ParameterError(f"expected {len(where)} values for {what}, got {len(values)}")
        fields = [v.to_bytes(width, "big") for v in values if low <= v < high]
        if len(fields) != len(where):  # the filter dropped an out-of-range value
            raise ParameterError(f"{what} out of range")
        out += fields
    return b"".join(out)


def _decode(data: bytes, kind: int):
    """The parameters, each run's values as a tuple, and the layout's runs.  All fields
    are read in one pass and range-checked in two, once the header has fixed the length;
    only a failure walks the runs, to name the first bad field at its own offset."""
    _check_bytes(data, "envelope")
    params, (_, runs, size, fields, lows, highs, spans) = _read_params_header(
        bytes(data[:HEADER_LEN]), kind)
    _check_length(data, size)
    values = tuple(map(int.from_bytes, fields(data), repeat("big")))
    if not (all(map(le, lows, values)) and all(map(lt, values, highs))):
        what, at = next((what, at) for (what, _, low, high, where), span in zip(runs, spans)
                        for at, v in zip(where, values[span]) if not low <= v < high)
        raise FormatError(f"{what} out of range", offset=at)
    return params, [values[span] for span in spans] if spans[1:] else [values], runs


def encode_kem_public(pk: KemPublicKey, params: KemParams) -> bytes:
    _check_type(pk, KemPublicKey, "pk")
    return _encode(KIND_KEM_PUBLIC, params, (pk.numer_matrix, pk.denom_matrix))


def decode_kem_public(data: bytes):
    params, (numer, denom), _ = _decode(data, KIND_KEM_PUBLIC)
    return _unchecked(KemPublicKey, numer, denom), params


def encode_kem_private(sk: KemPrivateKey, params: KemParams) -> bytes:
    _check_type(sk, KemPrivateKey, "sk")
    r1, r2 = sk.ring1, sk.ring2
    return _encode(KIND_KEM_PRIVATE, params, (
        sk.numer_coeffs[:-1], sk.numer_coeffs[-1:], sk.denom_coeffs[:-1], sk.denom_coeffs[-1:],
        (r1.multiplier,), (r1.modulus,), (r2.multiplier,), (r2.modulus,),
    ))


def decode_kem_private(data: bytes):
    params, runs, layout = _decode(data, KIND_KEM_PRIVATE)
    rings = []
    for (multiplier,), (modulus,), (*_, where) in zip(runs[4::2], runs[5::2], layout[4::2]):
        try:
            rings.append(RingOperator(multiplier, modulus))
        except ParameterError as exc:
            raise FormatError(str(exc), offset=where[0]) from exc
    return _unchecked(KemPrivateKey, runs[0] + runs[1], runs[2] + runs[3], *rings), params


def encode_kem_ciphertext(ct: KemCiphertext, params: KemParams) -> bytes:
    _check_type(ct, KemCiphertext, "ct")
    return _encode(KIND_KEM_CIPHERTEXT, params, ((ct.numer_eval, ct.denom_eval),))


def decode_kem_ciphertext(data: bytes):
    params, [(numer, denom)], _ = _decode(data, KIND_KEM_CIPHERTEXT)
    return _unchecked(KemCiphertext, numer, denom), params


def encode_verification_key(vk: DsVerificationKey, params: KemParams) -> bytes:
    _check_type(vk, _ds_classes()[0], "vk")
    _check_type(params, KemParams, "params")  # read here, for the radix shift
    return _encode(KIND_DS_VERIFICATION, params, (
        vk.numer_resid, vk.denom_resid, vk.numer_quot, vk.denom_quot,
        (vk.ring1_resid, vk.ring2_resid), (params.shift_bits,),
    ))


def decode_verification_key(data: bytes):
    params, (*matrices, residues, _set_shift), _ = _decode(data, KIND_DS_VERIFICATION)
    return _unchecked(_ds_classes()[0], *matrices, *residues), params


def encode_signature(sig: Signature, params: KemParams) -> bytes:
    _check_type(sig, _ds_classes()[1], "sig")
    return _encode(KIND_DS_SIGNATURE, params, ((sig.numer_tag, sig.denom_tag),))


def decode_signature(data: bytes):
    params, [(numer_tag, denom_tag)], _ = _decode(data, KIND_DS_SIGNATURE)
    return _unchecked(_ds_classes()[1], numer_tag, denom_tag), params


def encode_secret(secret: int, params: KemParams) -> bytes:
    """Shared-secret bytes: the field element, fixed width, no KDF."""
    _check_type(secret, int, "secret")
    _check_type(params, KemParams, "params")
    if not 0 <= secret < params.prime:
        raise ParameterError("secret out of field range")
    return secret.to_bytes(shared_secret_size(params), "big")


def decode_secret(data: bytes, params: KemParams) -> int:
    _check_bytes(data, "shared secret")
    _check_type(params, KemParams, "params")
    _check_length(data, shared_secret_size(params))
    value = int.from_bytes(data, "big")
    if value >= params.prime:
        raise FormatError("shared secret out of field range", offset=0)
    return value
