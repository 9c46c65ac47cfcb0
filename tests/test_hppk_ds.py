import pytest
from conftest import ScriptedEntropy, assert_built_like_the_constructor, replace

from permcrypt.errors import FormatError, GenerationError, ParameterError, SigningError
from permcrypt.hidden_ring import RingOperator, new_operator
from permcrypt.hppk_ds import (
    DsVerificationKey,
    Signature,
    derive_verification_key,
    ds_keygen,
    ds_params,
    sign,
    verify,
)
from permcrypt.hppk_kem import (
    DS_FIELD_BITS,
    LEVELS,
    KemParams,
    KemPrivateKey,
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
    hash_to_field,
)


def seeded_triple(params, label: bytes):
    return ds_keygen(params, KeystreamState(label, TAG_HPPK_KEYGEN))


def sign_rng(label: bytes) -> KeystreamState:
    return KeystreamState(label, TAG_HPPK_HASH)


def long_division_quotient(numer: int, denom: int) -> int:
    quotient = 0
    remainder = numer
    while remainder >= denom:
        shift = remainder.bit_length() - denom.bit_length()
        if (denom << shift) > remainder:
            shift -= 1
        remainder -= denom << shift
        quotient += 1 << shift
    return quotient


# --- parameters and key derivation ------------------------------------------


def test_ds_params_shapes():
    for level, bits in DS_FIELD_BITS.items():
        params = ds_params(level)
        assert params.field_bits == bits
        assert params.noise_count == 1
        assert params.rows == 3
        assert params.shift_bits == 2 * bits + 8 + 32
        assert params.hash_bytes == bits // 2


def test_verification_key_dimensions_level1():
    params = ds_params("I")
    _, _, vk = seeded_triple(params, b"dims")
    for matrix in (vk.numer_resid, vk.denom_resid, vk.numer_quot, vk.denom_quot):
        assert len(matrix) == 3


def test_unit_blind_reduces_to_plain_residues():
    params = KemParams(7, 1)
    rng = KeystreamState(b"unit-blind", TAG_HPPK_KEYGEN)
    sk, pk = keygen(params, rng)
    vk = derive_verification_key(sk, pk, 1, params)
    assert vk.numer_resid == tuple(int(v) % 7 for v in pk.numer_matrix)
    assert vk.ring1_resid == int(sk.ring1.modulus) % 7


def test_quotients_match_long_division():
    params = KemParams(7, 1)
    sk, pk, vk = seeded_triple(params, b"quotients")
    for i in range(3):
        assert int(vk.numer_quot[i]) == long_division_quotient(
            int(pk.numer_matrix[i]) << params.shift_bits, int(sk.ring1.modulus)
        )
        assert int(vk.denom_quot[i]) == long_division_quotient(
            int(pk.denom_matrix[i]) << params.shift_bits, int(sk.ring2.modulus)
        )


def test_blind_must_be_nonzero_field_element():
    params = KemParams(7, 1)
    sk, pk, _ = seeded_triple(params, b"blind")
    with pytest.raises(ParameterError):
        derive_verification_key(sk, pk, 0, params)
    with pytest.raises(ParameterError):
        derive_verification_key(sk, pk, 7, params)


def test_derive_verification_key_refuses_a_public_key_of_the_wrong_length():
    # The same FormatError as encapsulate, before any matrix is folded.
    params = kem_params("I")  # 6 terms
    sk, pk = keygen(params, KeystreamState(b"vk-length", TAG_HPPK_KEYGEN))
    for bad in (replace(pk, numer_matrix=pk.numer_matrix + pk.numer_matrix[:3],
                        denom_matrix=pk.denom_matrix + pk.denom_matrix[:3]),
                replace(pk, numer_matrix=pk.numer_matrix[:-1]),
                replace(pk, denom_matrix=pk.denom_matrix + (1,))):
        with pytest.raises(FormatError, match="wrong shape"):
            derive_verification_key(sk, bad, 5, params)


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_schemes_build_what_the_public_constructors_build(level, m):
    # The schemes skip the constructors' checks; their objects must not differ
    # from the checked ones in any field, derived attribute or hash.
    params = shipped_params(level, m)
    label = b"schemes-%s-%d" % (level.encode(), m)
    sk, pk, vk = seeded_triple(params, label)
    _, ct = encapsulate(pk, params, KeystreamState(label, TAG_HPPK_U))
    sig = sign(sk, params, b"built", sign_rng(label), vk=vk)
    # The helper recurses into each ring, against RingOperator(multiplier, modulus).
    assert_built_like_the_constructor(
        sk, replace(sk, ring1=replace(sk.ring1), ring2=replace(sk.ring2))
    )
    for built in (pk, vk, ct, sig):
        assert_built_like_the_constructor(built, replace(built))
    # keygen alone draws the same pair; the next draw is ds_keygen's blind.
    rng = KeystreamState(label, TAG_HPPK_KEYGEN)
    assert keygen(params, rng) == (sk, pk)
    blind = 1 + rng.next_index(params.prime - 1)
    assert_built_like_the_constructor(vk, derive_verification_key(sk, pk, blind, params))


# --- signing ----------------------------------------------------------------


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_sign_verify_round_trip(level):
    params = ds_params(level)
    sk, _, vk = seeded_triple(params, b"roundtrip-" + level.encode())
    rng = sign_rng(b"messages-" + level.encode())
    msgs = KeystreamState(b"bodies-" + level.encode(), b"msg")
    for _ in range(25):
        message = msgs.next_bytes(32)
        sig = sign(sk, params, message, rng, vk=vk)
        assert verify(vk, params, message, sig)


def test_distinct_blinds_give_distinct_valid_signatures():
    params = ds_params("I")
    sk, _, vk = seeded_triple(params, b"distinct")
    message = b"same message, two signatures"
    sig1 = sign(sk, params, message, sign_rng(b"alpha-one"), vk=vk)
    sig2 = sign(sk, params, message, sign_rng(b"alpha-two"), vk=vk)
    assert sig1 != sig2
    assert verify(vk, params, message, sig1)
    assert verify(vk, params, message, sig2)


def test_signature_algebra_on_toy_field():
    # Recover the blinding scalar from the signature, then check that each
    # unreduced verifier coefficient equals the blinded factor times the
    # plain matrix entry.
    params = KemParams(7, 1)
    sk, pk, vk = seeded_triple(params, b"algebra")
    p = params.prime
    message = b"toy algebra"
    sig = sign(sk, params, message, sign_rng(b"toy"), vk=vk)
    x = hash_to_field(message, p, params.hash_bytes)
    fx = sum(c * x**i for i, c in enumerate(sk.numer_coeffs)) % p
    s2 = int(sk.ring2.modulus)
    alpha = int(sig.numer_tag) * int(sk.ring2.multiplier) % s2 * pow(fx, -1, p) % p
    for i in range(3):
        q_entry = int(pk.denom_matrix[i])
        plain_q = int(sk.ring2.invert(q_entry))
        lhs = int(sig.numer_tag) * q_entry % s2 % p
        assert lhs == alpha * fx % p * plain_q % p


def test_tampered_message_rejected():
    params = ds_params("I")
    sk, _, vk = seeded_triple(params, b"tamper")
    message = bytearray(b"pay alice 10 coins")
    sig = sign(sk, params, bytes(message), sign_rng(b"t"), vk=vk)
    message[4] ^= 0x01
    assert not verify(vk, params, bytes(message), sig)


def test_signature_swap_rejected():
    params = ds_params("I")
    sk, _, vk = seeded_triple(params, b"swap")
    sig_a = sign(sk, params, b"message a", sign_rng(b"a"), vk=vk)
    assert not verify(vk, params, b"message b", sig_a)


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_self_check_redraws_a_signature_that_fails_verification(level):
    # With alpha = f(x)^-1 the numerator tag is the inverse ring-2
    # multiplier, so each f_tag * P mod s2 is a plain entry far below s2:
    # every denominator fold sits just above a floor boundary, and the
    # verifier's quotient estimate lands one below it.
    params = ds_params(level)
    sk, _, vk = seeded_triple(params, b"boundary-" + level.encode())
    p = params.prime
    message = b"floor boundary"
    x = hash_to_field(message, p, params.hash_bytes)
    fx = sum(c * pow(x, i, p) for i, c in enumerate(sk.numer_coeffs)) % p
    boundary_draw = pow(fx, -1, p) - 1  # sign draws alpha = 1 + next_index(p - 1)

    unchecked = sign(sk, params, message, ScriptedEntropy([boundary_draw]))
    assert not verify(vk, params, message, unchecked)

    rng = ScriptedEntropy([boundary_draw, 12345])
    checked = sign(sk, params, message, rng, vk=vk)
    assert rng.pos == 2
    assert verify(vk, params, message, checked)


def test_sign_refuses_another_keys_vk_before_any_draw():
    params = ds_params("I")
    sk, _, _ = seeded_triple(params, b"self-check-signer")
    _, _, other_vk = seeded_triple(params, b"self-check-other")
    rng = ScriptedEntropy([1])
    with pytest.raises(ParameterError,
                       match="verification key does not belong to this private key"):
        sign(sk, params, b"foreign vk", rng, vk=other_vk)
    assert rng.pos == 0


def test_sign_refuses_rings_narrower_than_the_field_before_any_draw():
    # Each tag is nonzero and below its modulus only when the modulus is at least the prime.
    params = ds_params("I")
    sk, _, _ = seeded_triple(params, b"narrow-rings")
    rng = ScriptedEntropy([1])
    for narrow in (replace(sk, ring1=RingOperator(3, 7)), replace(sk, ring2=RingOperator(3, 7))):
        with pytest.raises(ParameterError, match="ring moduli must be at least the prime"):
            sign(narrow, params, b"narrow", rng)
    assert rng.pos == 0


def test_self_check_gives_up_after_64_draws():
    # Doubling both ring residues keeps the vk's cross-check with sk but breaks
    # every candidate's identity; the 65th draw would be an IndexError.
    params = ds_params("I")
    sk, _, vk = seeded_triple(params, b"self-check-signer")
    p = params.prime
    doubled = replace(vk, ring1_resid=2 * vk.ring1_resid % p, ring2_resid=2 * vk.ring2_resid % p)
    rng = ScriptedEntropy(range(1, 65))
    with pytest.raises(GenerationError, match="signer self-check kept failing"):
        sign(sk, params, b"foreign vk", rng, vk=doubled)
    assert rng.pos == 64


def test_zero_signature_values_unconstructible():
    with pytest.raises(ParameterError):
        Signature(0, 1)


@pytest.mark.parametrize("call,name", [
    (lambda p, sk, pk, vk, sig: sign(None, p, b"m", sign_rng(b"t")), "sk"),
    (lambda p, sk, pk, vk, sig: sign(sk, None, b"m", sign_rng(b"t")), "params"),
    (lambda p, sk, pk, vk, sig: sign(sk, p, b"m", sign_rng(b"t"), vk=pk), "vk"),
    (lambda p, sk, pk, vk, sig: verify(None, p, b"m", sig), "vk"),
    (lambda p, sk, pk, vk, sig: verify(vk, None, b"m", sig), "params"),
    (lambda p, sk, pk, vk, sig: verify(vk, p, b"m", None), "sig"),
    (lambda p, sk, pk, vk, sig: Signature(1.5, 1), "numer_tag"),
    (lambda p, sk, pk, vk, sig: Signature(1, "1"), "denom_tag"),
    (lambda p, sk, pk, vk, sig: replace(vk, numer_resid=(1.5,) * 3), "numer_resid"),
    (lambda p, sk, pk, vk, sig: replace(vk, denom_quot=list(vk.denom_quot)), "denom_quot"),
    (lambda p, sk, pk, vk, sig: replace(vk, ring2_resid=1.5), "ring2_resid"),
    (lambda p, sk, pk, vk, sig: derive_verification_key(None, pk, 5, p), "sk"),
    (lambda p, sk, pk, vk, sig: derive_verification_key(sk, vk, 5, p), "pk"),
    (lambda p, sk, pk, vk, sig: derive_verification_key(sk, pk, 5.0, p), "blind"),
    (lambda p, sk, pk, vk, sig: derive_verification_key(sk, pk, 5, None), "params"),
], ids=["none-sk", "sign-none-params", "pk-as-vk", "none-vk", "verify-none-params", "none-sig",
        "float-numer-tag", "str-denom-tag", "float-vk-residues", "list-vk-quotients",
        "float-vk-ring-residue", "derive-none-sk", "derive-vk-as-pk", "derive-float-blind",
        "derive-none-params"])
def test_ds_refuses_wrong_type_arguments_naming_them(call, name):
    params = ds_params("I")
    sk, pk, vk = seeded_triple(params, b"wrong-types")
    sig = sign(sk, params, b"m", sign_rng(b"t"), vk=vk)
    with pytest.raises(ParameterError, match=f"^{name} must be "):
        call(params, sk, pk, vk, sig)


def test_degenerate_hash_is_unsignable():
    # Build a key whose numerator factor vanishes exactly at the message
    # hash; no blinding scalar can fix that.
    params = KemParams(251, 1)
    p = params.prime
    message = b"unsignable"
    x = hash_to_field(message, p, params.hash_bytes)
    rng = KeystreamState(b"degenerate", TAG_HPPK_KEYGEN)
    sk = KemPrivateKey(
        numer_coeffs=((p - x) % p, 1),  # f(x) = x - x = 0
        denom_coeffs=(1, 1),
        ring1=new_operator(rng, params.ring_bits),
        ring2=new_operator(rng, params.ring_bits),
    )
    with pytest.raises(SigningError):
        sign(sk, params, message, sign_rng(b"d"))


def test_verify_rejects_malformed_inputs():
    params = ds_params("I")
    sk, _, vk = seeded_triple(params, b"malformed")
    sig = sign(sk, params, b"msg", sign_rng(b"m"), vk=vk)
    with pytest.raises(FormatError):
        verify(vk, params, b"msg", Signature(1 << 200, sig.denom_tag))
    squeezed = DsVerificationKey(
        vk.numer_resid[:2], vk.denom_resid, vk.numer_quot, vk.denom_quot,
        vk.ring1_resid, vk.ring2_resid,
    )
    with pytest.raises(FormatError):
        verify(squeezed, params, b"msg", sig)
    with pytest.raises(FormatError):  # sign checks the vk before any draw
        sign(sk, params, b"msg", ScriptedEntropy([]), vk=squeezed)


def test_barrett_split_matches_secret_side():
    # Verifier-side coefficients against the values computed with every
    # secret in hand, over a few thousand signatures' worth of entries.
    params = ds_params("I")
    sk, pk, vk = seeded_triple(params, b"barrett")
    p = params.prime
    s2 = int(sk.ring2.modulus)
    blind = vk.ring2_resid * pow(s2 % p, -1, p) % p
    rng = sign_rng(b"barrett-trials")
    mismatches = 0
    for _ in range(500):
        sig = sign(sk, params, rng.next_bytes(16), rng, vk=vk)
        f_tag = int(sig.numer_tag)
        for i in range(3):
            secret_side = blind * (f_tag * int(pk.denom_matrix[i]) % s2) % p
            split = (
                f_tag * vk.denom_resid[i]
                - vk.ring2_resid * (f_tag * int(vk.denom_quot[i]) >> params.shift_bits)
            ) % p
            if split != secret_side:
                mismatches += 1
    assert mismatches == 0
