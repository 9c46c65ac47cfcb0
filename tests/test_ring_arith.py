import math

import pytest

from permcrypt.errors import NotInvertibleError, ParameterError
from permcrypt.hppk_ds import ds_keygen, ds_params
from permcrypt.hppk_kem import kem_params, keygen
from permcrypt.keystream import TAG_HPPK_KEYGEN, KeystreamState
from permcrypt.ring_arith import inv_mod, mul_mod


def subtractive_mod(value: int, modulus: int) -> int:
    """Reduce by repeatedly subtracting the largest shifted modulus."""
    while value >= modulus:
        shifted = modulus
        while (shifted << 1) <= value:
            shifted <<= 1
        value -= shifted
    return value


def long_division_quotient(numer: int, denom: int) -> int:
    """Quotient by shift-and-subtract, independent of // ."""
    quotient = 0
    remainder = numer
    while remainder >= denom:
        shift = remainder.bit_length() - denom.bit_length()
        if (denom << shift) > remainder:
            shift -= 1
        remainder -= denom << shift
        quotient += 1 << shift
    return quotient


def level1_key():
    params = kem_params("I", 2)
    rng = KeystreamState(b"ring-arith-fixture", TAG_HPPK_KEYGEN)
    return keygen(params, rng)


# --- mul_mod ----------------------------------------------------------------


def test_mul_mod_zero_annihilates():
    assert mul_mod(0, 5, 7) == 0


def test_mul_mod_small():
    assert mul_mod(3, 5, 7) == 1


def test_mul_mod_matches_subtractive_oracle_on_level1_key():
    sk, pk = level1_key()
    r1 = int(sk.ring1.multiplier)
    s1 = int(sk.ring1.modulus)
    p00 = int(sk.ring1.invert(pk.numer_matrix[0]))
    assert mul_mod(r1, p00, s1) == subtractive_mod(r1 * p00, s1)


def test_mul_mod_rejects_out_of_range():
    with pytest.raises(ParameterError):
        mul_mod(7, 1, 7)
    with pytest.raises(ParameterError):
        mul_mod(1, 1, 0)


@pytest.mark.parametrize("call", [
    lambda: mul_mod(2, 3, 7.0),
    lambda: inv_mod(2.0, 7),
    lambda: inv_mod(3, 7.0),
], ids=["float-modulus-to-mul", "float-operand-to-inv", "float-modulus-to-inv"])
def test_ring_arith_refuses_non_int_arguments(call):
    with pytest.raises(ParameterError):
        call()


def test_ring_arith_takes_bools_as_ints():
    assert mul_mod(True, 3, 7) == 3
    assert inv_mod(True, 7) == 1


# --- inv_mod ----------------------------------------------------------------


def test_inv_mod_identity():
    assert inv_mod(1, 97) == 1


def test_inv_mod_small():
    assert inv_mod(3, 7) == 5


def test_inv_mod_exhaustive_scan_mod_251():
    for a in range(1, 251):
        expected = next(t for t in range(1, 251) if a * t % 251 == 1)
        assert inv_mod(a, 251) == expected


def test_inv_mod_rejects_non_coprime():
    with pytest.raises(NotInvertibleError):
        inv_mod(6, 9)
    with pytest.raises(ParameterError):
        inv_mod(3, 1)


# --- Barrett quotients -----------------------------------------------------


def test_barrett_mu_matches_long_division_on_level1_values():
    # The verification key's quotients are the Barrett constants
    # floor(P * 2**shift_bits / s) of each public entry P.
    params = ds_params("I")
    sk, pk, vk = ds_keygen(params, KeystreamState(b"ring-arith-fixture", TAG_HPPK_KEYGEN))
    for matrix, quot, modulus in (
        (pk.numer_matrix, vk.numer_quot, sk.ring1.modulus),
        (pk.denom_matrix, vk.denom_quot, sk.ring2.modulus),
    ):
        assert len(quot) == len(matrix)
        for entry, q in zip(matrix, quot):
            assert q == long_division_quotient(entry << params.shift_bits, modulus)


# --- properties -------------------------------------------------------------


def test_mul_mod_commutes_and_cancels():
    state = KeystreamState(b"ring-props", b"test")
    s = (1 << 63) | state.next_bits(63) | 1
    for _ in range(200):
        a = state.next_index(s)
        b = state.next_index(s)
        assert mul_mod(a, mul_mod(b, 1, s), s) == mul_mod(b, a, s)
    for _ in range(100):
        a = state.next_index(s)
        if a and math.gcd(a, s) == 1:
            assert mul_mod(a, inv_mod(a, s), s) == 1
