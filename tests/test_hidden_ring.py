import math

import pytest
import sympy
from conftest import ScriptedEntropy
from hypothesis import example, given, settings, strategies as st

from permcrypt.errors import GenerationError, ParameterError
from permcrypt.hidden_ring import (
    RingOperator,
    count_coprime_pairs,
    encrypt_coefficients,
    new_operator,
)
from permcrypt.hppk_kem import LEVELS, shipped_params
from permcrypt.keystream import KeystreamState
from permcrypt.ring_arith import inv_mod


def seeded(tag: bytes) -> KeystreamState:
    return KeystreamState(b"hidden-ring-tests", tag)


# --- operator construction --------------------------------------------------


def test_new_operator_ranges_and_coprimality():
    op = new_operator(seeded(b"op8"), 8)
    assert 128 <= op.modulus < 256
    assert op.bits == 8
    assert math.gcd(op.multiplier, op.modulus) == 1
    assert op.multiplier * op.multiplier_inv % op.modulus == 1


_SHIPPED_RING_BITS = sorted({shipped_params(l, m).ring_bits for l in LEVELS for m in (1, 2, 3)})


def _with_shipped_ring_bits(test):
    for bits in _SHIPPED_RING_BITS:
        test = example(bits=bits, label=b"shipped")(test)
    return test


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(bits=st.integers(8, 264), label=st.binary(max_size=8))
@_with_shipped_ring_bits
def test_new_operator_holds_the_constructors_invariants(bits, label):
    # new_operator builds its operator without RingOperator's checks.
    op = new_operator(KeystreamState(label, b"operator"), bits)
    assert all(type(v) is int for v in vars(op).values())
    assert 1 <= op.multiplier < op.modulus
    assert math.gcd(op.multiplier, op.modulus) == 1
    assert op.multiplier * op.multiplier_inv % op.modulus == 1
    assert op.bits == op.modulus.bit_length() == bits


def test_new_operator_deterministic_under_fixed_entropy():
    a = new_operator(seeded(b"det"), 16)
    b = new_operator(seeded(b"det"), 16)
    assert (a.multiplier, a.modulus) == (b.multiplier, b.modulus)


def test_new_operator_rejects_tiny_rings():
    with pytest.raises(ParameterError):
        new_operator(seeded(b"tiny"), 7)


def test_new_operator_gives_up_on_multipliers_that_stay_non_coprime():
    # Modulus 128 + 0, then multiplier 1 + 1 = 2 on every one of the 256 retries.
    rng = ScriptedEntropy([0] + [1] * 256)
    with pytest.raises(GenerationError, match="could not draw a coprime multiplier"):
        new_operator(rng, 8)
    assert rng.pos == 257


def test_create_validates_inputs():
    with pytest.raises(ParameterError):
        RingOperator(2, 8)  # not coprime
    with pytest.raises(ParameterError):
        RingOperator(0, 7)
    with pytest.raises(ParameterError):
        RingOperator(9, 7)


def test_coprime_acceptance_rate_matches_euler_estimate():
    # Raw (multiplier, modulus) draws at 16 bits are coprime with
    # probability about 6/pi^2.
    state = seeded(b"acceptance")
    trials = 10**4
    hits = 0
    for _ in range(trials):
        modulus = (1 << 15) + state.next_index(1 << 15)
        mult = 1 + state.next_index(modulus - 1)
        if math.gcd(mult, modulus) == 1:
            hits += 1
    rate = hits / trials
    expected = 6 / math.pi**2
    assert abs(rate - expected) / expected < 0.05


# --- apply / invert ---------------------------------------------------------


def test_apply_examples():
    op = RingOperator(5, 7)
    assert op.apply(0) == 0
    assert op.apply(3) == 1


def test_apply_invert_exhaustive_mod_251():
    op = RingOperator(187, 251)
    for a in range(251):
        assert op.invert(op.apply(a)) == a


def test_apply_rejects_out_of_range():
    op = RingOperator(5, 7)
    with pytest.raises(ParameterError):
        op.apply(7)
    with pytest.raises(ParameterError):
        op.invert(9)


# --- homomorphic properties -------------------------------------------------


def test_additive_and_scalar_homomorphism():
    state = seeded(b"homomorphism")
    for bits in (8, 72):
        op = new_operator(state, bits)
        s = int(op.modulus)
        for _ in range(500):
            a = state.next_index(s)
            b = state.next_index(s)
            c = state.next_index(s)
            assert op.apply((a + b) % s) == (op.apply(a) + op.apply(b)) % s
            assert op.apply(c * a % s) == c * op.apply(a) % s


def test_public_modulus_cancellation():
    # With the modulus known, ratios of images equal ratios of preimages:
    # the multiplier drops out entirely.
    state = seeded(b"cancel")
    op = new_operator(state, 16)
    s = int(op.modulus)
    checked = 0
    while checked < 100:
        b = state.next_index(s)
        b2 = state.next_index(s)
        if b == 0 or b2 == 0 or math.gcd(b, s) != 1:
            continue
        c, c2 = int(op.apply(b)), int(op.apply(b2))
        assert c2 * inv_mod(c, s) % s == b2 * inv_mod(b, s) % s
        checked += 1


def test_hidden_modulus_blocks_cancellation():
    state = seeded(b"no-cancel")
    op = new_operator(state, 16)
    s = int(op.modulus)
    surviving = 0
    trials = 0
    while trials < 100:
        wrong = (1 << 15) + state.next_index(1 << 15)
        b = state.next_index(s)
        b2 = state.next_index(s)
        if wrong == s or b == 0 or b2 == 0:
            continue
        c, c2 = int(op.apply(b)), int(op.apply(b2))
        if math.gcd(c, wrong) != 1 or math.gcd(b, wrong) != 1:
            continue
        trials += 1
        if c2 * inv_mod(c, wrong) % wrong == b2 * inv_mod(b, wrong) % wrong:
            surviving += 1
    assert surviving <= 1


# --- coefficient encryption -------------------------------------------------


def test_encrypt_zero_coefficients():
    op = RingOperator(5, 7 * 19)  # 8-bit modulus, coprime multiplier
    assert encrypt_coefficients(op, [0, 0, 0], 7) == [0, 0, 0]


def test_encrypt_unit_coefficient():
    op = RingOperator(5, 133)
    assert encrypt_coefficients(op, [1], 7) == [5]


def test_encrypted_polynomial_decrypts_for_all_field_points():
    op = new_operator(seeded(b"poly"), 8)
    p = 7
    coeffs = [3, 0, 6]
    encrypted = encrypt_coefficients(op, coeffs, p)
    s = int(op.modulus)
    for x in range(p):
        monomials = [pow(x, i, p) for i in range(3)]
        # the plain-side sum must fit under the modulus for the lift to be exact
        assert sum(c * m for c, m in zip(coeffs, monomials)) < s
        hidden_eval = sum(int(e) * m for e, m in zip(encrypted, monomials))
        plain = int(op.invert(hidden_eval % s)) % p
        assert plain == sum(c * m for c, m in zip(coeffs, monomials)) % p


def test_encrypt_rejects_oversized_term_count():
    op = new_operator(seeded(b"small"), 8)
    with pytest.raises(ParameterError):
        encrypt_coefficients(op, [1] * 6, 7)  # needs 49*6 > 2**8


def test_encrypt_rejects_out_of_field_coefficients():
    op = new_operator(seeded(b"field"), 8)
    with pytest.raises(ParameterError):
        encrypt_coefficients(op, [7], 7)


# --- key-space counting -----------------------------------------------------


def test_coprime_pair_count_matches_totient_sum():
    expected = 2 * sum(int(sympy.totient(s)) for s in range(128, 256))
    assert count_coprime_pairs(8) == expected


def test_coprime_pair_count_bounds():
    with pytest.raises(ParameterError):
        count_coprime_pairs(15)
