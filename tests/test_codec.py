import json
import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from conftest import assert_built_like_the_constructor, replace
from hypothesis import given, settings, strategies as st

from permcrypt import codec, qpp
from permcrypt.errors import FormatError, ParameterError
from permcrypt.hidden_ring import RingOperator
from permcrypt.hppk_ds import DsVerificationKey, Signature, ds_keygen, ds_params, sign
from permcrypt.hppk_kem import (
    LEVELS,
    KemCiphertext,
    KemParams,
    KemPublicKey,
    encapsulate,
    kem_params,
    keygen,
    shipped_params,
)
from permcrypt.keystream import (
    TAG_HPPK_HASH,
    TAG_HPPK_KEYGEN,
    TAG_HPPK_U,
    KeystreamState,
)
from permcrypt.qpp import (
    MAX_PAD_SIZE,
    MODE_RANDOM,
    MODE_SEQUENTIAL,
    Permutation,
    PermutationPad,
    generate_pad,
    pad_entropy,
)

SRC = Path(__file__).resolve().parents[1] / "src"

HEADER = 11  # magic, kind, level, two field-bit bytes, three shape bytes

# Public figures the payload formulas must reproduce, keyed by (level, m).
PUBLISHED_PK_SIZES = {
    ("I", 2): 108, ("I", 3): 162,
    ("III", 2): 156, ("III", 3): 234,
    ("V", 2): 204, ("V", 3): 306,
}
PUBLISHED_SK_SIZES = {"I": 52, "III": 76, "V": 100}


def kem_material(level="I", m=2, label=b"codec-kem"):
    params = kem_params(level, m)
    sk, pk = keygen(params, KeystreamState(label, TAG_HPPK_KEYGEN))
    secret, ct = encapsulate(pk, params, KeystreamState(label, TAG_HPPK_U))
    return params, sk, pk, secret, ct


def ds_material(level="I", label=b"codec-ds"):
    params = ds_params(level)
    sk, pk, vk = ds_keygen(params, KeystreamState(label, TAG_HPPK_KEYGEN))
    sig = sign(sk, params, b"codec message", KeystreamState(label, TAG_HPPK_HASH), vk=vk)
    return params, sk, pk, vk, sig


# --- sizes ------------------------------------------------------------------


@pytest.mark.parametrize("level,m", PUBLISHED_PK_SIZES)
def test_public_key_payload_sizes_reproduce_published_table(level, m):
    params, sk, pk, _, _ = kem_material(level, m)
    encoded = codec.encode_kem_public(pk, params)
    assert len(encoded) - HEADER == PUBLISHED_PK_SIZES[(level, m)]
    assert codec.kem_public_size(params) == PUBLISHED_PK_SIZES[(level, m)]


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_private_key_payload_sizes_reproduce_published_table(level):
    params, sk, _, _, _ = kem_material(level)
    encoded = codec.encode_kem_private(sk, params)
    assert len(encoded) - HEADER == PUBLISHED_SK_SIZES[level]
    assert codec.kem_private_size(params) == PUBLISHED_SK_SIZES[level]


def test_ciphertext_sizes_follow_artifact_formula():
    # The published ciphertext sizes do not follow from the stated
    # parameters; these are this artifact's own fixed widths.
    for (level, m), expected in {
        ("I", 2): 28, ("I", 3): 28,
        ("III", 2): 40, ("III", 3): 40,
        ("V", 2): 52, ("V", 3): 52,
    }.items():
        params, _, _, _, ct = kem_material(level, m, b"ct-size")
        assert codec.kem_ciphertext_size(params) == expected
        assert len(codec.encode_kem_ciphertext(ct, params)) - HEADER == expected


def test_signature_and_verification_key_sizes_follow_artifact_formula():
    for level, (sig_size, vk_size) in {
        "I": (34, 192), "III": (50, 272), "V": (66, 352),
    }.items():
        params, _, _, vk, sig = ds_material(level, b"sig-size")
        assert codec.ds_signature_size(params) == sig_size
        assert len(codec.encode_signature(sig, params)) - HEADER == sig_size
        assert codec.ds_verification_size(params) == vk_size
        assert len(codec.encode_verification_key(vk, params)) - HEADER == vk_size


# --- round trips ------------------------------------------------------------


@pytest.mark.parametrize("level,m", PUBLISHED_PK_SIZES)
def test_kem_round_trips(level, m):
    params, sk, pk, secret, ct = kem_material(level, m, b"roundtrip")
    got_pk, got_params = codec.decode_kem_public(codec.encode_kem_public(pk, params))
    assert got_pk == pk and got_params == params
    got_sk, _ = codec.decode_kem_private(codec.encode_kem_private(sk, params))
    assert got_sk == sk
    got_ct, _ = codec.decode_kem_ciphertext(codec.encode_kem_ciphertext(ct, params))
    assert got_ct == ct
    ss = codec.encode_secret(secret, params)
    assert len(ss) == codec.shared_secret_size(params)
    assert codec.decode_secret(ss, params) == secret


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_ds_round_trips(level):
    params, _, _, vk, sig = ds_material(level, b"roundtrip")
    got_vk, _ = codec.decode_verification_key(codec.encode_verification_key(vk, params))
    assert got_vk == vk
    got_sig, _ = codec.decode_signature(codec.encode_signature(sig, params))
    assert got_sig == sig


# Each decoder that builds its object from range-checked fields, and the
# public constructor over the same payload runs.
_DECODED_KINDS = {
    codec.KIND_KEM_PUBLIC: (codec.decode_kem_public, lambda runs: KemPublicKey(*map(tuple, runs))),
    codec.KIND_KEM_CIPHERTEXT: (codec.decode_kem_ciphertext,
                                lambda runs: KemCiphertext(*runs[0])),
    codec.KIND_DS_VERIFICATION: (codec.decode_verification_key,
                                 lambda runs: DsVerificationKey(*map(tuple, runs[:4]), *runs[4])),
    codec.KIND_DS_SIGNATURE: (codec.decode_signature, lambda runs: Signature(*runs[0])),
}


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_decoders_build_what_the_public_constructors_build(level, m):
    params = shipped_params(level, m)
    label = b"built-%s-%d" % (level.encode(), m)
    sk, pk, vk = ds_keygen(params, KeystreamState(label, TAG_HPPK_KEYGEN))
    _, ct = encapsulate(pk, params, KeystreamState(label, TAG_HPPK_U))
    sig = sign(sk, params, b"built", KeystreamState(label, TAG_HPPK_HASH), vk=vk)
    for kind, (value, encode) in {
        codec.KIND_KEM_PUBLIC: (pk, codec.encode_kem_public),
        codec.KIND_KEM_CIPHERTEXT: (ct, codec.encode_kem_ciphertext),
        codec.KIND_DS_VERIFICATION: (vk, codec.encode_verification_key),
        codec.KIND_DS_SIGNATURE: (sig, codec.encode_signature),
    }.items():
        data = encode(value, params)
        decode, construct = _DECODED_KINDS[kind]
        decoded, got = decode(data)
        assert got is params and decoded == value
        assert_built_like_the_constructor(decoded, construct(codec._decode(data, kind)[1]))


@st.composite
def _in_range_payloads(draw):
    """A kind, a shipped set and, for each run of its layout, values inside the run's range."""
    kind = draw(st.sampled_from(sorted(_DECODED_KINDS)))
    params = shipped_params(draw(st.sampled_from(LEVELS)), draw(st.sampled_from([1, 2, 3])))
    runs = [draw(st.lists(st.integers(low, high - 1), min_size=len(where), max_size=len(where)))
            for _, _, low, high, where in codec._layout(kind, params)[1]]
    return kind, params, runs


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(_in_range_payloads())
def test_drawn_in_range_fields_decode_to_the_constructors_object(case):
    kind, params, runs = case
    decode, construct = _DECODED_KINDS[kind]
    decoded, got = decode(codec._encode(kind, params, runs))
    assert got is params
    assert_built_like_the_constructor(decoded, construct(runs))


def test_pad_round_trip():
    pad = generate_pad(b"pad-codec", 8, 16)
    decoded = codec.decode_pad(codec.encode_pad(pad))
    assert decoded.n == pad.n and decoded.perms == pad.perms


def test_stream_round_trip():
    body = bytes(range(48))
    encoded = codec.encode_qpp_stream(body, 8, 64, MODE_SEQUENTIAL)
    assert codec.decode_qpp_stream(encoded) == (body, 8, 64, MODE_SEQUENTIAL)


@pytest.mark.parametrize("name", ["encode_pad", "decode_pad", "encode_qpp_stream",
                                  "decode_qpp_stream", "pad_bits", "unpad_bits"])
def test_codec_reexports_the_qpp1_envelope_of_qpp(name):
    # One definition: the QPP1 envelope lives in qpp, beside the cipher's limits.
    assert getattr(codec, name) is getattr(qpp, name)


def _fresh(code: str, *args: str):
    """The JSON value that `code` prints last, run with `args` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


_LAZY = ("import json, sys\nfrom permcrypt import codec\n"
         "lazy = ('permcrypt.qpp', 'permcrypt.hppk_ds')\n")


def test_importing_codec_loads_neither_qpp_nor_hppk_ds():
    assert _fresh(_LAZY + "print(json.dumps([m for m in lazy if m in sys.modules]))") == []


def test_a_qpp1_name_imports_qpp_on_first_use_and_stays():
    assert _fresh(
        "import json, sys; from permcrypt.codec import encode_pad; "
        "from permcrypt import codec, qpp; "
        "print(json.dumps([encode_pad is qpp.encode_pad, codec.encode_pad is qpp.encode_pad, "
        "vars(codec).get('encode_pad') is qpp.encode_pad, 'decode_pad' in vars(codec)]))"
    ) == [True, True, True, False]


def test_an_unknown_codec_name_is_an_attribute_error_and_loads_nothing():
    assert _fresh(_LAZY + (
        "try:\n    codec.no_such_name\nexcept AttributeError as exc:\n"
        "    print(json.dumps([str(exc), [m for m in lazy if m in sys.modules]]))"
    )) == ["module 'permcrypt.codec' has no attribute 'no_such_name'", []]


def test_ds_decoders_build_hppk_ds_objects_before_hppk_ds_is_imported():
    params, _, _, vk, sig = ds_material()
    vk_data = codec.encode_verification_key(vk, params)
    sig_data = codec.encode_signature(sig, params)
    assert _fresh(_LAZY + (
        "loaded = [m for m in lazy if m in sys.modules]; "
        "vk, _ = codec.decode_verification_key(bytes.fromhex(sys.argv[1])); "
        "sig, params = codec.decode_signature(bytes.fromhex(sys.argv[2])); "
        "from permcrypt.hppk_ds import DsVerificationKey, Signature; "
        "print(json.dumps([loaded, type(vk) is DsVerificationKey, type(sig) is Signature, "
        "codec.encode_verification_key(vk, params).hex(), "
        "codec.encode_signature(sig, params).hex()]))"
    ), vk_data.hex(), sig_data.hex()) == [[], True, True, vk_data.hex(), sig_data.hex()]


def test_a_wrong_type_signature_is_refused_before_hppk_ds_is_imported():
    assert _fresh(_LAZY + (
        "from permcrypt.errors import ParameterError\n"
        "try:\n    codec.encode_signature(None, codec.shipped_params('I', 1))\n"
        "except ParameterError as exc:\n    print(json.dumps(str(exc)))"
    )) == "sig must be Signature, not NoneType"


# --- malformed input --------------------------------------------------------


def test_decode_rejects_bad_magic():
    params, _, pk, _, _ = kem_material()
    data = b"XXXX" + codec.encode_kem_public(pk, params)[4:]
    with pytest.raises(FormatError) as err:
        codec.decode_kem_public(data)
    assert err.value.offset == 0


def test_decode_rejects_wrong_kind():
    params, sk, _, _, _ = kem_material()
    with pytest.raises(FormatError) as err:
        codec.decode_kem_public(codec.encode_kem_private(sk, params))
    assert err.value.offset == 4


def test_decode_rejects_trailing_bytes():
    params, _, pk, _, _ = kem_material()
    with pytest.raises(FormatError):
        codec.decode_kem_public(codec.encode_kem_public(pk, params) + b"\x00")


def test_decode_rejects_truncation():
    params, _, pk, _, _ = kem_material()
    with pytest.raises(FormatError):
        codec.decode_kem_public(codec.encode_kem_public(pk, params)[:-1])


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_decode_checks_the_length_the_header_implies(level):
    params, sk, pk, _, ct = kem_material(level, 2, b"length")
    ds_params_, _, _, vk, sig = ds_material(level, b"length")
    envelopes = [
        (codec.decode_kem_public, codec.encode_kem_public(pk, params)),
        (codec.decode_kem_private, codec.encode_kem_private(sk, params)),
        (codec.decode_kem_ciphertext, codec.encode_kem_ciphertext(ct, params)),
        (codec.decode_verification_key, codec.encode_verification_key(vk, ds_params_)),
        (codec.decode_signature, codec.encode_signature(sig, ds_params_)),
    ]
    for decode, data in envelopes:
        with pytest.raises(FormatError, match="truncated") as err:
            decode(data[:-1])
        assert err.value.offset == len(data) - 1  # the first missing byte
        with pytest.raises(FormatError, match="trailing") as err:
            decode(data + b"\x00")
        assert err.value.offset == len(data)


def test_every_header_byte_is_reported_at_its_own_offset():
    # Each kind on every set of its scheme: KEM pk, sk and ct, DS vk and sig.
    envelopes = []
    for level in ("I", "III", "V"):
        for m in (2, 3):
            params, sk, pk, _, ct = kem_material(level, m, b"header")
            envelopes += [
                (codec.decode_kem_public, codec.encode_kem_public(pk, params)),
                (codec.decode_kem_private, codec.encode_kem_private(sk, params)),
                (codec.decode_kem_ciphertext, codec.encode_kem_ciphertext(ct, params)),
            ]
        ds, _, _, vk, sig = ds_material(level, b"header")
        envelopes += [
            (codec.decode_verification_key, codec.encode_verification_key(vk, ds)),
            (codec.decode_signature, codec.encode_signature(sig, ds)),
        ]
    names_a_set = {5: (1, 3, 5), 10: (1, 2, 3)}  # level codes and noise counts
    cases = decoded = 0
    for decode, data in envelopes:
        for at in range(4, HEADER):
            for value in range(256):
                if value == data[at]:
                    continue
                cases += 1
                bad = data[:at] + bytes([value]) + data[at + 1:]
                try:
                    decode(bad)
                except FormatError as err:
                    if value not in names_a_set.get(at, ()):
                        assert err.offset == at, (bad[:HEADER].hex(), str(err))
                else:
                    assert value in names_a_set.get(at, ()), bad[:HEADER].hex()
                    decoded += 1
    assert cases == 24 * 7 * 255
    assert decoded == 12  # KEM private keys and ciphertexts of equal size, m2 <-> m3


def test_decode_rejects_out_of_range_entry_with_offset():
    params, sk, _, _, _ = kem_material()
    data = bytearray(codec.encode_kem_private(sk, params))
    data[HEADER:HEADER + 4] = b"\xff\xff\xff\xff"  # >= the 32-bit field prime
    with pytest.raises(FormatError) as err:
        codec.decode_kem_private(bytes(data))
    assert err.value.offset == HEADER


def test_decode_rejects_zero_leading_coefficient_with_offset():
    params, sk, _, _, _ = ds_material()
    encoded = codec.encode_kem_private(sk, params)
    width = (params.field_bits + 7) // 8
    ncoeff = params.factor_order + 1
    for factor in (1, 2):  # numerator, then denominator
        at = HEADER + (factor * ncoeff - 1) * width
        data = bytearray(encoded)
        data[at:at + width] = bytes(width)
        with pytest.raises(FormatError, match="leading factor coefficient") as err:
            codec.decode_kem_private(bytes(data))
        assert err.value.offset == at


def test_decode_rejects_non_bijective_pad_table():
    pad = generate_pad(b"pad-broken", 4, 2)
    data = bytearray(codec.encode_pad(pad))
    data[8] = data[9]  # duplicate one table entry
    with pytest.raises(FormatError):
        codec.decode_pad(bytes(data))


@pytest.mark.parametrize("n,slot", [(4, 1), (12, 2)])
def test_decode_pad_rejects_an_entry_past_the_block_range_at_its_table(n, slot):
    data = bytearray(codec.encode_pad(generate_pad(b"pad-range", n, 2)))
    table = 8 + (slot << n)  # the second table's offset
    entry = table + 3 * slot
    data[entry:entry + slot] = (1 << n).to_bytes(slot, "big")
    with pytest.raises(FormatError, match="bijection") as err:
        codec.decode_pad(bytes(data))
    assert err.value.offset == table


def test_decode_pad_rejects_truncated_and_over_long_pads():
    data = codec.encode_pad(generate_pad(b"pad-length", 10, 2))  # two-byte slots
    with pytest.raises(FormatError, match="truncated") as err:
        codec.decode_pad(data[:-1])
    assert err.value.offset == len(data) - 1
    with pytest.raises(FormatError, match="trailing") as err:
        codec.decode_pad(data + b"\x00")
    assert err.value.offset == len(data)


def test_encode_rejects_qpp_shapes_the_header_cannot_hold():
    too_many = PermutationPad(1, [Permutation.identity(1)] * (MAX_PAD_SIZE + 1))
    with pytest.raises(ParameterError):
        codec.encode_pad(too_many)
    for n, size in ((0, 4), (17, 4), (8, 0), (8, MAX_PAD_SIZE + 1)):
        with pytest.raises(ParameterError):
            codec.encode_qpp_stream(b"", n, size, MODE_SEQUENTIAL)


def test_decode_stream_rejects_zero_pad_size_at_its_field():
    data = bytearray(codec.encode_qpp_stream(bytes(6), 8, 64, MODE_SEQUENTIAL))
    data[6:8] = b"\x00\x00"
    with pytest.raises(FormatError, match="pad size") as err:
        codec.decode_qpp_stream(bytes(data))
    assert err.value.offset == 6


def test_decode_stream_rejects_zero_block_size_at_its_field():
    data = bytearray(codec.encode_qpp_stream(bytes(6), 8, 64, MODE_SEQUENTIAL))
    data[5] = 0
    with pytest.raises(FormatError, match="block size") as err:
        codec.decode_qpp_stream(bytes(data))
    assert err.value.offset == 5


def test_decode_pad_rejects_zero_pad_size_at_its_field():
    data = bytearray(codec.encode_pad(generate_pad(b"pad-empty", 2, 1)))
    data[6:8] = b"\x00\x00"
    with pytest.raises(FormatError, match="pad size") as err:
        codec.decode_pad(bytes(data))
    assert err.value.offset == 6


def test_decode_rejects_zero_signature():
    params, _, _, _, sig = ds_material()
    data = bytearray(codec.encode_signature(sig, params))
    width = codec.ds_signature_size(params) // 2
    data[HEADER:HEADER + width] = bytes(width)
    with pytest.raises(FormatError):
        codec.decode_signature(bytes(data))


def test_decode_rejects_tampered_ring_modulus():
    params, sk, _, _, _ = kem_material()
    data = bytearray(codec.encode_kem_private(sk, params))
    data[-1] ^= 0xFF  # breaks coprimality or modulus width
    raw = bytes(data)
    try:
        decoded, _ = codec.decode_kem_private(raw)
    except FormatError:
        return
    assert decoded.ring2.modulus != sk.ring2.modulus


def test_encode_rejects_a_key_of_the_wrong_shape():
    params, sk, pk, _, _ = kem_material()
    with pytest.raises(ParameterError):
        codec.encode_kem_public(KemPublicKey(pk.numer_matrix[:-1], pk.denom_matrix), params)
    with pytest.raises(ParameterError):
        codec.encode_kem_private(replace(sk, numer_coeffs=sk.numer_coeffs + (1,)), params)


def test_encode_rejects_a_value_its_decoder_would_refuse():
    params, sk, _, _, _ = kem_material()
    coeffs = (params.prime,) + sk.numer_coeffs[1:]
    with pytest.raises(ParameterError, match="factor coefficient out of range"):
        codec.encode_kem_private(replace(sk, numer_coeffs=coeffs), params)


@pytest.mark.parametrize("value", [-1, 2**136], ids=["negative", "wider-than-field"])
def test_encode_rejects_a_value_its_field_cannot_hold(value):
    with pytest.raises(ParameterError, match="signature value out of range"):
        codec.encode_signature(Signature(value, 1), ds_params("I"))


def _unchecked(kind, runs, valid):
    """`valid` rebuilt from one payload's runs of values, checked only by their types."""
    if kind == codec.KIND_KEM_PRIVATE:
        n0, n1, d0, d1, (m1,), (s1,), (m2,), (s2,) = runs
        return replace(
            valid, numer_coeffs=tuple(n0 + n1), denom_coeffs=tuple(d0 + d1),
            ring1=replace(valid.ring1, multiplier=m1, modulus=s1),
            ring2=replace(valid.ring2, multiplier=m2, modulus=s2),
        )
    if kind == codec.KIND_DS_VERIFICATION:
        *matrices, residues, _ = runs
        return DsVerificationKey(*map(tuple, matrices), *residues)
    return (KemCiphertext if kind == codec.KIND_KEM_CIPHERTEXT else Signature)(*runs[0])


# The public key is left out: each of its ranges fills its field's width.
@pytest.mark.parametrize("kind", [
    codec.KIND_KEM_PRIVATE, codec.KIND_KEM_CIPHERTEXT,
    codec.KIND_DS_VERIFICATION, codec.KIND_DS_SIGNATURE,
], ids=["kem-private", "kem-ciphertext", "ds-verification", "ds-signature"])
def test_encoder_refuses_exactly_what_its_decoder_refuses(kind):
    kem, sk, _, _, ct = kem_material("I", 2, b"symmetry")
    ds, _, _, vk, sig = ds_material("I", b"symmetry")
    params, valid, decode, encode = {
        codec.KIND_KEM_PRIVATE: (kem, sk, codec.decode_kem_private, codec.encode_kem_private),
        codec.KIND_KEM_CIPHERTEXT: (kem, ct, codec.decode_kem_ciphertext,
                                    codec.encode_kem_ciphertext),
        codec.KIND_DS_VERIFICATION: (ds, vk, codec.decode_verification_key,
                                     codec.encode_verification_key),
        codec.KIND_DS_SIGNATURE: (ds, sig, codec.decode_signature, codec.encode_signature),
    }[kind]
    data = encode(valid, params)
    _, runs, _ = codec._decode(data, kind)
    checked = 0
    for r, (what, width, low, high, where) in enumerate(codec._layout(kind, params)[1]):
        outside = [low - 1] * (low > 0) + [high] * (high < 256 ** width)
        for value in outside:
            for i in {0, len(where) - 1}:  # the run's first and last field
                bad = bytearray(data)
                bad[where[i]:where[i] + width] = value.to_bytes(width, "big")
                with pytest.raises(FormatError, match=f"^{what} out of range") as err:
                    decode(bytes(bad))
                assert err.value.offset == where[i]
                checked += 1
                if what == "radix shift":  # the set's own; a vk holds none to encode
                    continue
                values = [list(run) for run in runs]
                values[r][i] = value
                # Signature and RingOperator refuse some values themselves, before
                # the encoder runs.
                refusal = (f"^({what} out of range|signature values must be nonzero"
                           r"|multiplier must lie in \[1, modulus\)"
                           "|multiplier and modulus must be coprime)")
                with pytest.raises(ParameterError, match=refusal):
                    encode(_unchecked(kind, values, valid), params)
    assert checked


@pytest.mark.parametrize("damage,message", [
    (lambda sk: replace(sk, numer_coeffs=sk.numer_coeffs[:-1] + (0,)),
     "leading factor coefficient out of range"),
    (lambda sk: replace(sk, ring1=RingOperator(1, sk.ring1.modulus >> 1)),
     "ring modulus out of range"),
    (lambda sk: replace(sk, ring2=replace(sk.ring2, multiplier=2, modulus=sk.ring2.modulus & ~1)),
     "coprime"),
], ids=["zero-leading-coefficient", "modulus-one-bit-short", "non-coprime-operator"])
def test_encode_rejects_a_private_key_its_decoder_would_refuse(damage, message):
    params, sk, _, _, _ = kem_material()
    with pytest.raises(ParameterError, match=message):
        codec.encode_kem_private(damage(sk), params)


def test_a_verification_key_carries_its_sets_own_radix_shift():
    params, _, _, vk, _ = ds_material()
    data = bytearray(codec.encode_verification_key(vk, params))
    at = len(data) - 2  # the radix shift is the last field
    for shift in (params.shift_bits - 1, params.shift_bits + 1):
        data[at:] = shift.to_bytes(2, "big")
        with pytest.raises(FormatError, match="radix shift out of range") as err:
            codec.decode_verification_key(bytes(data))
        assert err.value.offset == at


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_decode_returns_the_shipped_parameter_object(level):
    params, _, _, _, ct = kem_material(level, 3, b"shared")
    ds, _, _, _, sig = ds_material(level, b"shared")
    # An equal copy encodes the same bytes and decodes to the shipped object.
    for shipped in (params, replace(params)):
        _, got = codec.decode_kem_ciphertext(codec.encode_kem_ciphertext(ct, shipped))
        assert got is kem_params(level, 3)
    _, got = codec.decode_signature(codec.encode_signature(sig, replace(ds)))
    assert got is ds_params(level)


def test_encode_rejects_a_set_its_header_would_name_as_another():
    params, _, _, _, sig = ds_material()
    with pytest.raises(ParameterError, match="shipped set"):
        codec.encode_signature(sig, replace(params, prime=params.prime - 2))


def test_encode_rejects_a_noise_count_decode_would_refuse():
    params = replace(kem_params("I", 3), noise_count=4)
    _, pk = keygen(params, KeystreamState(b"codec-m4", TAG_HPPK_KEYGEN))
    with pytest.raises(ParameterError):
        codec.encode_kem_public(pk, params)


def test_decode_secret_reports_length_like_the_envelopes():
    params = kem_params("I")  # four-byte secrets
    with pytest.raises(FormatError, match="truncated") as err:
        codec.decode_secret(bytes(3), params)
    assert err.value.offset == 3
    with pytest.raises(FormatError, match="trailing") as err:
        codec.decode_secret(bytes(5), params)
    assert err.value.offset == 4


@pytest.mark.parametrize("call,error,message", [
    (lambda p: codec.encode_secret(p.prime, p), ParameterError, "secret out of field range"),
    (lambda p: codec.decode_secret(p.prime.to_bytes(codec.shared_secret_size(p), "big"), p),
     FormatError, r"shared secret out of field range \(offset 0\)"),
    (lambda p: codec.encode_qpp_stream(b"", 8, 1, "zigzag"), ParameterError,
     "unknown dispatch mode 'zigzag'"),
    (lambda p: codec.encode_qpp_stream(b"ab", 3, 1, MODE_RANDOM), ParameterError,
     "stream body is not a whole number of blocks"),
], ids=["encode-secret-at-prime", "decode-secret-at-prime", "stream-unknown-mode",
        "stream-partial-block"])
def test_codec_refuses_a_value_outside_its_rule(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(kem_params("I"))


_WIDE_ITEMS = memoryview(array("H", range(8)))  # 16 bytes that len() counts as 8


@pytest.mark.parametrize("call", [
    lambda: codec.pad_bits("ab", 8),
    lambda: codec.pad_bits(None, 8),
    lambda: codec.pad_bits(_WIDE_ITEMS, 8),
    lambda: codec.unpad_bits("ab\x80", 8),
    lambda: codec.unpad_bits(_WIDE_ITEMS, 8),
    lambda: codec.decode_kem_public("HPK1"),
    lambda: codec.decode_kem_private(None),
    lambda: codec.decode_kem_ciphertext(list(b"HPK1")),
    lambda: codec.decode_verification_key(_WIDE_ITEMS),
    lambda: codec.decode_signature("x"),
    lambda: codec.decode_secret("x", kem_params("I")),
    lambda: codec.decode_pad(None),
    lambda: codec.decode_qpp_stream("QPP1"),
    lambda: codec.encode_pad(None),
    lambda: codec.encode_qpp_stream("ab", 8, 1, MODE_RANDOM),
], ids=["str-padded", "none-padded", "wide-item-padded", "str-unpadded", "wide-item-unpadded",
        "str-kem-public", "none-kem-private", "list-kem-ciphertext",
        "wide-item-verification-key", "str-signature", "str-secret", "none-pad", "str-stream",
        "none-encoded-pad", "str-stream-body"])
def test_codec_refuses_non_bytes_input_as_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def _level_i_objects():
    params = ds_params("I")
    sk, pk, vk = ds_keygen(params, KeystreamState(b"wrong-types", TAG_HPPK_KEYGEN))
    _, ct = encapsulate(pk, params, KeystreamState(b"wrong-types", TAG_HPPK_U))
    return params, {"pk": pk, "sk": sk, "ct": ct, "vk": vk, "sig": Signature(1, 1)}


@pytest.mark.parametrize("call,name", [
    (lambda o, p: codec.encode_kem_public(None, p), "pk"),
    (lambda o, p: codec.encode_kem_public(o["pk"], None), "params"),
    (lambda o, p: codec.encode_kem_private(None, p), "sk"),
    (lambda o, p: codec.encode_kem_private(o["sk"], None), "params"),
    (lambda o, p: codec.encode_kem_ciphertext(None, p), "ct"),
    (lambda o, p: codec.encode_kem_ciphertext(o["ct"], None), "params"),
    (lambda o, p: codec.encode_verification_key(None, p), "vk"),
    (lambda o, p: codec.encode_verification_key(o["vk"], None), "params"),
    (lambda o, p: codec.encode_signature(None, p), "sig"),
    (lambda o, p: codec.encode_signature(o["sig"], None), "params"),
    (lambda o, p: codec.encode_kem_public(o["vk"], p), "pk"),
    (lambda o, p: codec.encode_secret(1.5, p), "secret"),
    (lambda o, p: codec.encode_secret("x", p), "secret"),
    (lambda o, p: codec.encode_secret(1, None), "params"),
    (lambda o, p: codec.decode_secret(b"ab", None), "params"),
], ids=["none-pk", "pk-none-params", "none-sk", "sk-none-params", "none-ct", "ct-none-params",
        "none-vk", "vk-none-params", "none-sig", "sig-none-params", "vk-as-pk", "float-secret",
        "str-secret", "secret-none-params", "decode-secret-none-params"])
def test_hppk_codec_refuses_wrong_type_arguments_naming_them(call, name):
    params, objects = _level_i_objects()
    with pytest.raises(ParameterError, match=f"^{name} must be "):
        call(objects, params)


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_codec_takes_bytes_like_input_as_bytes(wrap):
    for n in (8, 12):
        padded = codec.pad_bits(wrap(b"message"), n)
        assert type(padded) is bytes and padded == codec.pad_bits(b"message", n)
        unpadded = codec.unpad_bits(wrap(padded), n)
        assert type(unpadded) is bytes and unpadded == b"message"
    pad = generate_pad(b"bytes-like", 4, 3)
    assert codec.decode_pad(wrap(codec.encode_pad(pad))) == pad
    stream = codec.encode_qpp_stream(wrap(b"body"), 8, 3, MODE_RANDOM)
    body, *shape = codec.decode_qpp_stream(wrap(stream))
    assert type(body) is bytes and (body, *shape) == (b"body", 8, 3, MODE_RANDOM)
    params, *_, vk, sig = ds_material()
    assert codec.decode_signature(wrap(codec.encode_signature(sig, params))) == (sig, params)


def test_toy_parameters_are_not_serializable():
    params = KemParams(7, 1)
    sk, pk = keygen(params, KeystreamState(b"toy", TAG_HPPK_KEYGEN))
    with pytest.raises(ParameterError):
        codec.encode_kem_public(pk, params)


# --- bit padding ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 3, 4, 8, 12])
@pytest.mark.parametrize("length", [0, 1, 2, 7, 8, 63])
def test_bit_padding_round_trip(n, length):
    data = bytes(range(length % 251 if length else 0))[:length].ljust(length, b"\x01")
    padded = codec.pad_bits(data, n)
    assert len(padded) > len(data)
    assert (8 * len(padded)) % n == 0
    assert codec.unpad_bits(padded, n) == data


def test_unpad_rejects_missing_marker():
    with pytest.raises(FormatError):
        codec.unpad_bits(b"\x00\x00", 8)
    with pytest.raises(FormatError):
        codec.unpad_bits(b"", 8)
    with pytest.raises(FormatError):
        codec.unpad_bits(b"data\x81", 8)


@pytest.mark.parametrize("n", [8, 12])
def test_unpad_rejects_a_granule_of_zeros_after_the_padding(n):
    padded = codec.pad_bits(b"x", n)  # b"x\x80" at n = 8, b"x\x80\x00" at n = 12
    extra = padded + bytes(len(padded))  # one more whole granule, all zeros
    with pytest.raises(FormatError, match="missing bit-padding marker") as err:
        codec.unpad_bits(extra, n)
    assert len(padded) <= err.value.offset < len(extra)  # inside the last granule


@pytest.mark.parametrize("n", [0, 17])
def test_bit_padding_rejects_a_block_size_outside_the_qpp_range(n):
    # One check, one message, for the padding, the QPP1 header and the entropy figure.
    for refused in (
        lambda: codec.pad_bits(b"x", n),
        lambda: codec.pad_bits(b"", n),
        lambda: codec.unpad_bits(b"x\x80", n),
        lambda: codec.encode_qpp_stream(b"", n, 1, "random"),
        lambda: pad_entropy(n, 1),
    ):
        with pytest.raises(ParameterError, match=r"^block size must be in \[1, 16\] bits$"):
            refused()


# --- seeded mutation over every decoder --------------------------------------


def _fuzz_targets():
    """(valid bytes, decode then encode) for each decoder on seeded inputs.

    Every HPPK envelope kind on all nine shipped sets, the shared secret,
    and the pad, stream and bit-padding decoders at four block sizes.
    """
    targets = []
    for level in LEVELS:
        for m in (1, 2, 3):
            params = shipped_params(level, m)
            label = b"fuzz-%s-%d" % (level.encode(), m)
            sk, pk, vk = ds_keygen(params, KeystreamState(label, TAG_HPPK_KEYGEN))
            secret, ct = encapsulate(pk, params, KeystreamState(label, TAG_HPPK_U))
            sig = sign(sk, params, b"fuzz", KeystreamState(label, TAG_HPPK_HASH), vk=vk)
            for value, encode, decode in (
                (pk, codec.encode_kem_public, codec.decode_kem_public),
                (sk, codec.encode_kem_private, codec.decode_kem_private),
                (ct, codec.encode_kem_ciphertext, codec.decode_kem_ciphertext),
                (vk, codec.encode_verification_key, codec.decode_verification_key),
                (sig, codec.encode_signature, codec.decode_signature),
            ):
                targets.append((encode(value, params), lambda d, e=encode, f=decode: e(*f(d))))
            targets.append((codec.encode_secret(secret, params),
                            lambda d, p=params: codec.encode_secret(codec.decode_secret(d, p), p)))
    for n in (1, 4, 9, 12):
        body = codec.pad_bits(b"fuzz body", n)
        targets += [
            (codec.encode_pad(generate_pad(b"fuzz-%d" % n, n, 2)),
             lambda d: codec.encode_pad(codec.decode_pad(d))),
            (codec.encode_qpp_stream(body, n, 2, MODE_RANDOM),
             lambda d: codec.encode_qpp_stream(*codec.decode_qpp_stream(d))),
            (body, lambda d, n=n: codec.pad_bits(codec.unpad_bits(d, n), n)),
        ]
    return targets


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three seeded edits: bit flips, byte sets, cuts, inserts, deletions, copied spans."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        if not out:
            break
        at, edit = rng.randrange(len(out)), rng.randrange(6)
        if edit == 0:
            out[at] ^= 1 << rng.randrange(8)
        elif edit == 1:
            out[at] = rng.choice((0, 0xFF, rng.randrange(256)))
        elif edit == 2:
            del out[at:]
        elif edit == 3:  # at any gap, the end included
            at = rng.randint(0, len(out))
            out[at:at] = rng.randbytes(rng.randint(1, 3))
        elif edit == 4:
            del out[at]
        else:  # one field's bytes copied over another's
            start, span = rng.randrange(len(out)), rng.randint(1, 17)
            out[at:at + span] = out[start:start + span]
    return bytes(out)


def test_every_decoder_takes_a_mutation_as_a_format_error_or_its_own_encoding():
    rng = random.Random(14)
    decoded = refused = 0
    for valid, round_trip in _fuzz_targets():
        assert round_trip(valid) == valid
        for _ in range(400):
            data = _mutate(rng, valid)
            try:
                again = round_trip(data)
            except FormatError:
                refused += 1
            else:  # whatever decodes is exactly what its encoder writes
                assert again == data, data.hex()
                decoded += 1
    assert decoded > 0 and refused > 0
