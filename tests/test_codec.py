import hashlib

import pytest

from permcrypt import codec
from permcrypt.errors import FormatError, ParameterError
from permcrypt.hppk_ds import ds_keygen, ds_params, sign
from permcrypt.hppk_kem import encapsulate, kem_params, keygen
from permcrypt.keystream import (
    TAG_HPPK_HASH,
    TAG_HPPK_KEYGEN,
    TAG_HPPK_U,
    KeystreamState,
)
from permcrypt.qpp import (
    MAX_PAD_SIZE,
    MODE_SEQUENTIAL,
    Permutation,
    PermutationPad,
    generate_pad,
)

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


def test_pad_round_trip():
    pad = generate_pad(b"pad-codec", 8, 16)
    decoded = codec.decode_pad(codec.encode_pad(pad))
    assert decoded.n == pad.n and decoded.perms == pad.perms


def test_stream_round_trip():
    body = bytes(range(48))
    encoded = codec.encode_qpp_stream(body, 8, 64, MODE_SEQUENTIAL)
    assert codec.decode_qpp_stream(encoded) == (body, 8, 64, MODE_SEQUENTIAL)


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


def test_decode_rejects_out_of_range_entry_with_offset():
    params, sk, _, _, _ = kem_material()
    data = bytearray(codec.encode_kem_private(sk, params))
    data[HEADER:HEADER + 4] = b"\xff\xff\xff\xff"  # >= the 32-bit field prime
    with pytest.raises(FormatError) as err:
        codec.decode_kem_private(bytes(data))
    assert err.value.offset == HEADER


def test_decode_rejects_non_bijective_pad_table():
    pad = generate_pad(b"pad-broken", 4, 2)
    data = bytearray(codec.encode_pad(pad))
    data[8] = data[9]  # duplicate one table entry
    with pytest.raises(FormatError):
        codec.decode_pad(bytes(data))


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


def test_toy_parameters_are_not_serializable():
    from conftest import toy_params

    params = toy_params(7, noise_count=1)
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


# --- known-answer tests -----------------------------------------------------


def test_kat_emit_then_check_passes():
    text = codec.emit_kat(b"kat-seed", "KEM-I-m2", count=3)
    report = codec.check_kat(text)
    assert report.ok and report.total == 3


def test_kat_detects_and_locates_a_corrupted_byte():
    text = codec.emit_kat(b"kat-seed", "KEM-I-m2", count=3)
    lines = text.splitlines()
    target = [i for i, l in enumerate(lines) if l.startswith("ct = ")][1]
    field, value = lines[target].split(" = ")
    flipped = "0" if value[10] != "0" else "f"
    lines[target] = f"{field} = {value[:10]}{flipped}{value[11:]}"
    report = codec.check_kat("\n".join(lines))
    assert report.failures == [(1, "ct")]


def test_kat_detects_edited_seed_line():
    text = codec.emit_kat(b"kat-seed", "DS-I", count=2)
    mangled = text.replace("count = 0\nseed = ", "count = 0\nseed = 00", 1)
    report = codec.check_kat(mangled)
    assert (0, "seed") in report.failures


def test_kat_detects_a_count_out_of_position():
    text = codec.emit_kat(b"kat-seed", "DS-I", count=2)
    mangled = text.replace("count = 0\n", "count = 7\n", 1)
    assert mangled != text
    assert codec.check_kat(mangled).failures == [(0, "count")]


@pytest.mark.parametrize("vectors", ["0", "-3"])
def test_kat_rejects_a_file_with_no_vectors(vectors):
    with pytest.raises(FormatError, match="vectors"):
        codec.check_kat(f"alg = DS-I\nvectors = {vectors}\nseed = 00\n")


def test_kat_all_configurations_smoke():
    for label in codec.KAT_CONFIGS:
        report = codec.check_kat(codec.emit_kat(b"matrix-seed", label, count=1))
        assert report.ok, label


def test_kat_rejects_unknown_label():
    with pytest.raises(FormatError):
        codec.kat_params("KEM-IX-m9")
    with pytest.raises(FormatError):
        codec.check_kat("alg = nope\nvectors = 0\nseed = 00\n")


# SHA-256 of emit_kat(b"c10-kat-seed", label, 5).  Seeded KAT bytes are a
# compatibility invariant: any change to key generation, encapsulation,
# signing or their encodings shows up here.
PINNED_KAT_SHA256 = {
    "KEM-I-m2": "a04bfcd370f81f7c66889727916b31c083536922518f81cfa1f44a48c4d222df",
    "KEM-I-m3": "a89ce18aa9b4cafc0650d3f2a8b8587b13df1aad81a40d0480ff2352800d0a81",
    "KEM-III-m2": "e0f1b6acb2af2bb0c2defea48e41199b1c341ab1b9a41fbb91855d67e3733d4d",
    "KEM-III-m3": "2cf2338fdb688b2b5324bc963bc3198b84b165172a536b5ce9bdf7dbd729f101",
    "KEM-V-m2": "393a8f6da00b3470a2cc93bffe7a0d31e7e0b44a79836a909702322d07554ad0",
    "KEM-V-m3": "ed59c374232fb4a09bba3f154f3545718a208d8f1a9f97ea77d6b5d6bb160cae",
    "DS-I": "c570d1ca3d91957b0f012432fcd24ae84bea68b0cf5d83ad9a504c3f5196e9e2",
    "DS-III": "ab50ea83692b7c6c2efc00ada004d650da39a7bf8774800843e1e38ef5cf261a",
    "DS-V": "4b3040b9449eec347c86e1fb09d46d7b298befff55007b4975febabc39c4534d",
}


@pytest.mark.parametrize("label", list(codec.KAT_CONFIGS))
def test_kat_bytes_are_pinned(label):
    text = codec.emit_kat(b"c10-kat-seed", label, 5)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_KAT_SHA256[label]
