"""Bit-exact serialization for keys, ciphertexts, signatures, and pads.

Every envelope is magic + kind + a parameter header + a fixed-width
big-endian payload whose length is fully determined by the parameters;
decoding rejects trailing bytes and out-of-range fields with the offending
byte offset.  Pad and stream files use the `QPP1` envelope, and bit
padding fills a message out to whole blocks.  The known-answer-test files,
which run the schemes, live in `permcrypt.kat`.
"""

from __future__ import annotations

import math

from .errors import FormatError, ParameterError
from .hppk_ds import DsVerificationKey, Signature, ds_params
from .hppk_kem import (
    KemCiphertext,
    KemParams,
    KemPrivateKey,
    KemPublicKey,
    ciphertext_bound,
    kem_params,
)
from .hidden_ring import RingOperator
from .qpp import (
    MAX_BLOCK_BITS,
    MAX_PAD_SIZE,
    MIN_BLOCK_BITS,
    MODE_RANDOM,
    MODE_SEQUENTIAL,
    Permutation,
    PermutationPad,
)

MAGIC_HPPK = b"HPK1"
MAGIC_QPP = b"QPP1"

KIND_KEM_PUBLIC = 0x01
KIND_KEM_PRIVATE = 0x02
KIND_KEM_CIPHERTEXT = 0x03
KIND_DS_VERIFICATION = 0x04
KIND_DS_SIGNATURE = 0x05

QPP_VERSION_PAD = 0x01
QPP_VERSION_STREAM = 0x02

_LEVEL_CODE = {"I": 1, "III": 3, "V": 5}
_LEVEL_FROM_CODE = {v: k for k, v in _LEVEL_CODE.items()}
_MODE_CODE = {MODE_RANDOM: 0, MODE_SEQUENTIAL: 1}
_MODE_FROM_CODE = {v: k for k, v in _MODE_CODE.items()}

HEADER_LEN = 11  # magic, kind, level, field_bits (2), orders, noise count


# ---------------------------------------------------------------------------
# size formulas


def _bytes_for(bits: int) -> int:
    return (bits + 7) // 8


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


def kem_public_size(params: KemParams) -> int:
    """Payload bytes of an encapsulation public key."""
    return 2 * params.terms * _bytes_for(params.ring_bits)


def kem_private_size(params: KemParams) -> int:
    """Payload bytes of a private key."""
    return 2 * (params.factor_order + 1) * _bytes_for(params.field_bits) + 4 * _bytes_for(
        params.ring_bits
    )


def ciphertext_word_size(params: KemParams) -> int:
    """Fixed width of one ciphertext evaluation."""
    return _bytes_for(params.ring_bits + params.field_bits + _ceil_log2(params.terms))


def kem_ciphertext_size(params: KemParams) -> int:
    return 2 * ciphertext_word_size(params)


def ds_signature_size(params: KemParams) -> int:
    return 2 * _bytes_for(params.ring_bits)


def ds_verification_size(params: KemParams) -> int:
    fb = _bytes_for(params.field_bits)
    return 2 * params.terms * fb + 2 * params.terms * _bytes_for(params.shift_bits) + 2 * fb + 2


def shared_secret_size(params: KemParams) -> int:
    return _bytes_for(params.field_bits)


# ---------------------------------------------------------------------------
# primitive readers/writers


class _Reader:
    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.pos = offset

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError("truncated input", offset=self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def uint(self, width: int, bound: int, what: str) -> int:
        at = self.pos
        value = int.from_bytes(self.take(width), "big")
        if value >= bound:
            raise FormatError(f"{what} out of range", offset=at)
        return value

    def finish(self):
        if self.pos != len(self.data):
            raise FormatError("trailing bytes after payload", offset=self.pos)


def _matrix_bytes(matrix, width: int) -> bytes:
    return b"".join(v.to_bytes(width, "big") for row in matrix for v in row)


def _read_matrix(r: _Reader, params: KemParams, width: int, bound: int, what: str):
    return tuple(
        tuple(r.uint(width, bound, what) for _ in range(params.noise_count))
        for _ in range(params.rows)
    )


# ---------------------------------------------------------------------------
# parameter header


def _params_header(kind: int, params: KemParams) -> bytes:
    if params.level is None:
        raise ParameterError("only shipped parameter sets can be serialized")
    return (
        MAGIC_HPPK
        + bytes([kind, _LEVEL_CODE[params.level]])
        + params.field_bits.to_bytes(2, "big")
        + bytes([params.base_order, params.factor_order, params.noise_count])
    )


def _read_params_header(r: _Reader, expect_kind: int) -> KemParams:
    at = r.pos
    if r.take(4) != MAGIC_HPPK:
        raise FormatError("bad magic", offset=at)
    at = r.pos
    kind = r.u8()
    if kind != expect_kind:
        raise FormatError(f"unexpected kind byte {kind:#04x}", offset=at)
    at = r.pos
    level_code = r.u8()
    if level_code not in _LEVEL_FROM_CODE:
        raise FormatError(f"unknown level code {level_code}", offset=at)
    level = _LEVEL_FROM_CODE[level_code]
    at = r.pos
    field_bits = r.u16()
    base_order = r.u8()
    factor_order = r.u8()
    noise_count = r.u8()
    try:
        if noise_count == 1:
            candidate = ds_params(level)
        else:
            candidate = kem_params(level, noise_count)
    except ParameterError as exc:
        raise FormatError(str(exc), offset=at) from exc
    if (field_bits, base_order, factor_order) != (
        candidate.field_bits,
        candidate.base_order,
        candidate.factor_order,
    ):
        raise FormatError("parameter header does not match a shipped set", offset=at)
    return candidate


# ---------------------------------------------------------------------------
# HPPK envelopes


def encode_kem_public(pk: KemPublicKey, params: KemParams) -> bytes:
    width = _bytes_for(params.ring_bits)
    return (
        _params_header(KIND_KEM_PUBLIC, params)
        + _matrix_bytes(pk.numer_matrix, width)
        + _matrix_bytes(pk.denom_matrix, width)
    )


def decode_kem_public(data: bytes):
    r = _Reader(data)
    params = _read_params_header(r, KIND_KEM_PUBLIC)
    width = _bytes_for(params.ring_bits)
    bound = 1 << params.ring_bits
    numer = _read_matrix(r, params, width, bound, "public matrix entry")
    denom = _read_matrix(r, params, width, bound, "public matrix entry")
    r.finish()
    return KemPublicKey(numer, denom), params


def encode_kem_private(sk: KemPrivateKey, params: KemParams) -> bytes:
    fw = _bytes_for(params.field_bits)
    rw = _bytes_for(params.ring_bits)
    body = b"".join(c.to_bytes(fw, "big") for c in sk.numer_coeffs)
    body += b"".join(c.to_bytes(fw, "big") for c in sk.denom_coeffs)
    for op in (sk.ring1, sk.ring2):
        body += op.multiplier.to_bytes(rw, "big")
        body += op.modulus.to_bytes(rw, "big")
    return _params_header(KIND_KEM_PRIVATE, params) + body


def decode_kem_private(data: bytes):
    r = _Reader(data)
    params = _read_params_header(r, KIND_KEM_PRIVATE)
    fw = _bytes_for(params.field_bits)
    rw = _bytes_for(params.ring_bits)
    ncoeff = params.factor_order + 1
    factors = []
    for _ in range(2):
        coeffs = tuple(r.uint(fw, params.prime, "factor coefficient") for _ in range(ncoeff))
        if coeffs[-1] == 0:
            raise FormatError("leading factor coefficient is zero", offset=r.pos - fw)
        factors.append(coeffs)
    numer, denom = factors
    rings = []
    for _ in range(2):
        at = r.pos
        multiplier = r.uint(rw, 1 << params.ring_bits, "ring multiplier")
        modulus = r.uint(rw, 1 << params.ring_bits, "ring modulus")
        if modulus.bit_length() != params.ring_bits:
            raise FormatError("ring modulus has the wrong bit length", offset=at)
        try:
            rings.append(RingOperator.create(multiplier, modulus))
        except ParameterError as exc:
            raise FormatError(str(exc), offset=at) from exc
    r.finish()
    return KemPrivateKey(numer, denom, rings[0], rings[1]), params


def encode_kem_ciphertext(ct: KemCiphertext, params: KemParams) -> bytes:
    width = ciphertext_word_size(params)
    return (
        _params_header(KIND_KEM_CIPHERTEXT, params)
        + ct.numer_eval.to_bytes(width, "big")
        + ct.denom_eval.to_bytes(width, "big")
    )


def decode_kem_ciphertext(data: bytes):
    r = _Reader(data)
    params = _read_params_header(r, KIND_KEM_CIPHERTEXT)
    width = ciphertext_word_size(params)
    bound = ciphertext_bound(params)
    numer = r.uint(width, bound, "ciphertext evaluation")
    denom = r.uint(width, bound, "ciphertext evaluation")
    r.finish()
    return KemCiphertext(numer, denom), params


def encode_verification_key(vk: DsVerificationKey, params: KemParams) -> bytes:
    fw = _bytes_for(params.field_bits)
    qw = _bytes_for(params.shift_bits)
    return (
        _params_header(KIND_DS_VERIFICATION, params)
        + _matrix_bytes(vk.numer_resid, fw)
        + _matrix_bytes(vk.denom_resid, fw)
        + _matrix_bytes(vk.numer_quot, qw)
        + _matrix_bytes(vk.denom_quot, qw)
        + vk.ring1_resid.to_bytes(fw, "big")
        + vk.ring2_resid.to_bytes(fw, "big")
        + vk.shift_bits.to_bytes(2, "big")
    )


def decode_verification_key(data: bytes):
    r = _Reader(data)
    params = _read_params_header(r, KIND_DS_VERIFICATION)
    fw = _bytes_for(params.field_bits)
    qw = _bytes_for(params.shift_bits)
    p = params.prime
    qbound = 1 << params.shift_bits
    numer_resid = _read_matrix(r, params, fw, p, "residue entry")
    denom_resid = _read_matrix(r, params, fw, p, "residue entry")
    numer_quot = _read_matrix(r, params, qw, qbound, "quotient entry")
    denom_quot = _read_matrix(r, params, qw, qbound, "quotient entry")
    ring1_resid = r.uint(fw, p, "ring residue")
    ring2_resid = r.uint(fw, p, "ring residue")
    at = r.pos
    shift_bits = r.u16()
    if shift_bits != params.shift_bits:
        raise FormatError("radix shift does not match the parameter set", offset=at)
    r.finish()
    vk = DsVerificationKey(
        numer_resid, denom_resid, numer_quot, denom_quot,
        ring1_resid, ring2_resid, shift_bits,
    )
    return vk, params


def encode_signature(sig: Signature, params: KemParams) -> bytes:
    width = _bytes_for(params.ring_bits)
    return (
        _params_header(KIND_DS_SIGNATURE, params)
        + sig.numer_tag.to_bytes(width, "big")
        + sig.denom_tag.to_bytes(width, "big")
    )


def decode_signature(data: bytes):
    r = _Reader(data)
    params = _read_params_header(r, KIND_DS_SIGNATURE)
    width = _bytes_for(params.ring_bits)
    bound = 1 << params.ring_bits
    at = r.pos
    numer_tag = r.uint(width, bound, "signature value")
    denom_tag = r.uint(width, bound, "signature value")
    if numer_tag == 0 or denom_tag == 0:
        raise FormatError("zero signature value", offset=at)
    r.finish()
    return Signature(numer_tag, denom_tag), params


def encode_secret(secret: int, params: KemParams) -> bytes:
    """Shared-secret bytes: the field element, fixed width, no KDF."""
    if not 0 <= secret < params.prime:
        raise ParameterError("secret out of field range")
    return secret.to_bytes(shared_secret_size(params), "big")


def decode_secret(data: bytes, params: KemParams) -> int:
    if len(data) != shared_secret_size(params):
        raise FormatError("shared secret has the wrong length", offset=0)
    value = int.from_bytes(data, "big")
    if value >= params.prime:
        raise FormatError("shared secret out of field range", offset=0)
    return value


# ---------------------------------------------------------------------------
# QPP envelopes


def _qpp_header(version: int, n: int, size: int) -> bytes:
    if not MIN_BLOCK_BITS <= n <= MAX_BLOCK_BITS:
        raise ParameterError(f"block size {n} does not fit the QPP1 header")
    if not 1 <= size <= MAX_PAD_SIZE:
        raise ParameterError(f"pad size {size} does not fit the QPP1 header")
    return MAGIC_QPP + bytes([version, n]) + size.to_bytes(2, "big")


def _read_qpp_header(r: _Reader, version: int, kind: str):
    """Magic, version, block size n (offset 5) and pad size M (u16, offset 6)."""
    at = r.pos
    if r.take(4) != MAGIC_QPP:
        raise FormatError("bad magic", offset=at)
    at = r.pos
    if r.u8() != version:
        raise FormatError(f"not a {kind} file", offset=at)
    at = r.pos
    n = r.u8()
    if not MIN_BLOCK_BITS <= n <= MAX_BLOCK_BITS:
        raise FormatError(
            f"block size {n} not in [{MIN_BLOCK_BITS}, {MAX_BLOCK_BITS}]", offset=at
        )
    at = r.pos
    size = r.u16()
    if size < 1:
        raise FormatError("pad size must be at least 1", offset=at)
    return n, size


def encode_pad(pad: PermutationPad) -> bytes:
    width = _bytes_for(pad.n)
    body = bytearray(_qpp_header(QPP_VERSION_PAD, pad.n, pad.size))
    for perm in pad.perms:
        for value in perm.table:
            body += value.to_bytes(width, "big")
    return bytes(body)


def decode_pad(data: bytes) -> PermutationPad:
    r = _Reader(data)
    n, size = _read_qpp_header(r, QPP_VERSION_PAD, "pad")
    width = _bytes_for(n)
    perms = []
    for _ in range(size):
        at = r.pos
        table = [r.uint(width, 1 << n, "pad table entry") for _ in range(1 << n)]
        try:
            perms.append(Permutation(n, table))
        except ParameterError as exc:
            raise FormatError(str(exc), offset=at) from exc
    r.finish()
    return PermutationPad(n, perms)


def encode_qpp_stream(body: bytes, n: int, pad_size: int, mode: str) -> bytes:
    if mode not in _MODE_CODE:
        raise ParameterError(f"unknown dispatch mode {mode!r}")
    header = _qpp_header(QPP_VERSION_STREAM, n, pad_size)
    if (8 * len(body)) % n:
        raise ParameterError("stream body is not a whole number of blocks")
    return header + bytes([_MODE_CODE[mode]]) + body


def decode_qpp_stream(data: bytes):
    r = _Reader(data)
    n, pad_size = _read_qpp_header(r, QPP_VERSION_STREAM, "stream")
    at = r.pos
    mode_code = r.u8()
    if mode_code not in _MODE_FROM_CODE:
        raise FormatError(f"unknown dispatch mode code {mode_code}", offset=at)
    body = r.data[r.pos:]
    if (8 * len(body)) % n:
        raise FormatError("stream body is not a whole number of blocks", offset=r.pos)
    return body, n, pad_size, _MODE_FROM_CODE[mode_code]


def pad_bits(data: bytes, n: int) -> bytes:
    """Append a 1 bit then zeros, out to whole blocks and whole bytes.

    Always adds at least one bit, so unpadding is unambiguous.  Because the
    input is whole bytes, the marker lands on a byte boundary.
    """
    group = math.lcm(n, 8) // 8  # bytes per padding granule
    tail = group - (len(data) % group)
    return data + b"\x80" + b"\x00" * (tail - 1)


def unpad_bits(data: bytes, n: int) -> bytes:
    """Exact inverse of pad_bits; rejects data without a valid marker."""
    i = len(data) - 1
    while i >= 0 and data[i] == 0:
        i -= 1
    if i < 0 or data[i] != 0x80:
        raise FormatError("missing bit-padding marker", offset=max(i, 0))
    return data[:i]
