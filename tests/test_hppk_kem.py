import inspect

import pytest
import sympy
from conftest import ScriptedEntropy, ZeroEntropy, replace

from permcrypt.errors import DecapsulationError, FormatError, GenerationError, ParameterError
from permcrypt.hppk_ds import ds_params
from permcrypt.hppk_kem import (
    KEM_FIELD_BITS,
    PRIMES_BY_BITS,
    KemCiphertext,
    KemParams,
    KemPrivateKey,
    KemPublicKey,
    _RESAMPLE_LIMIT,
    _evaluate,
    _proportional,
    attack_complexity,
    ciphertext_bound,
    decapsulate,
    encapsulate,
    kem_params,
    keygen,
    shipped_params,
)
from permcrypt.hidden_ring import count_coprime_pairs
from permcrypt.keystream import TAG_HPPK_KEYGEN, TAG_HPPK_U, KeystreamState


def seeded_keygen(params, label: bytes):
    return keygen(params, KeystreamState(label, TAG_HPPK_KEYGEN))


def plain_matrices(sk, pk, params):
    """Strip the ring layer off the public matrices, regrouped by row (test-side oracle)."""
    m = params.noise_count

    def rows(op, matrix):
        plain = [int(op.invert(v)) for v in matrix]
        return [plain[i:i + m] for i in range(0, len(plain), m)]

    return rows(sk.ring1, pk.numer_matrix), rows(sk.ring2, pk.denom_matrix)


def poly_eval(coeffs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def column_eval(matrix, j, x, p):
    return sum(matrix[i][j] * pow(x, i, p) for i in range(len(matrix))) % p


def constant_noise(sk, pk, params):
    """Noise making the dotted base polynomial constant and nonzero.

    Any other noise gives the base a root in x, where decapsulation is
    information-theoretically impossible; exhaustive-over-x tests need to
    dodge that root.  Returns None when this key's base does not admit
    such a choice.
    """
    p = params.prime
    numer, _ = plain_matrices(sk, pk, params)
    f0, f1 = sk.numer_coeffs
    if f0 == 0:
        return None
    top = [numer[2][j] * pow(f1, -1, p) % p for j in range(2)]  # x-row of base
    low = [numer[0][j] * pow(f0, -1, p) % p for j in range(2)]
    u = [top[1], (p - top[0]) % p]
    if 0 in u or (u[0] * low[0] + u[1] * low[1]) % p == 0:
        return None
    return u


def exhaustive_toy_key(prime: int):
    params = KemParams(prime, 2)
    for trial in range(64):
        sk, pk = seeded_keygen(params, b"toy-kem-%d-%d" % (prime, trial))
        noise = constant_noise(sk, pk, params)
        if noise is not None:
            return params, sk, pk, noise
    raise AssertionError("no toy key admitted constant noise")


# --- parameters -------------------------------------------------------------


def test_pinned_primes_regenerate():
    for bits, prime in PRIMES_BY_BITS.items():
        assert sympy.isprime(prime)
        assert prime.bit_length() == bits
        assert sympy.nextprime(prime) > 1 << bits  # largest prime below 2**bits


def test_standard_param_shapes():
    for level, bits in KEM_FIELD_BITS.items():
        for m in (2, 3):
            params = kem_params(level, m)
            assert params.field_bits == bits
            assert params.ring_bits == 2 * bits + 8
            assert params.shift_bits == params.ring_bits + 32
            assert params.hash_bytes == 32
            assert params.rows == 3
            assert params.terms == 3 * m


def test_params_validation():
    with pytest.raises(ParameterError):
        kem_params("II")
    with pytest.raises(ParameterError):
        kem_params("I", 5)
    # The shipped sets are looked up only after these checks, so an
    # unhashable argument is still a ParameterError.
    for bad in (lambda: kem_params(["I"]), lambda: kem_params("I", 4), lambda: ds_params(None)):
        with pytest.raises(ParameterError):
            bad()
    # Every width follows from the prime: the 14-bit ring of p = 7 holds
    # 111 noise values (49 * 333 <= 2**14) but not 112, and no digest
    # covers a field wider than 128 bits.
    assert KemParams(7, 111).ring_bits == 14
    with pytest.raises(ParameterError, match="noise count"):
        KemParams(7, 112)
    with pytest.raises(ParameterError, match="128 bits"):
        KemParams((1 << 128) + 51, 1)
    # The signature set does not leak through kem_params, and the one table
    # names nothing but its nine sets.
    for bad in (
        lambda: kem_params("I", 1),
        lambda: shipped_params("II", 1),
        lambda: shipped_params("I", 0),
        lambda: shipped_params("I", 4),
        lambda: shipped_params(["I"], 1),
    ):
        with pytest.raises(ParameterError):
            bad()
    for level in KEM_FIELD_BITS:
        assert shipped_params(level, 1) is ds_params(level)
        for m in (2, 3):
            assert shipped_params(level, m) is kem_params(level, m)


def test_polynomial_shape_is_fixed():
    # Linear base and factors in every set; the orders are constants and the
    # widths follow from the prime, so neither is a constructor argument.
    for params in (kem_params("I"), ds_params("V"), KemParams(7, 1)):
        assert (params.base_order, params.factor_order, params.rows) == (1, 1, 3)
    for knob in ("base_order", "factor_order", "ring_bits", "shift_bits", "hash_bytes",
                 "eval_bound"):
        with pytest.raises(TypeError):
            KemParams(prime=7, noise_count=1, **{knob: 1})
    with pytest.raises(TypeError):
        replace(KemParams(7, 1), ring_bits=20)
    with pytest.raises(ParameterError, match="noise count"):
        KemParams(prime=7, noise_count=0)


def test_shape_constants_are_not_fields():
    # The constants are plain class attributes: no field, no part of == or hash.
    assert list(inspect.signature(KemParams).parameters) == ["prime", "noise_count"]
    assert KemParams(7, 1) == KemParams(7, 1) != KemParams(7, 2)
    assert hash(KemParams(7, 1)) == hash((7, 1))
    assert hash(kem_params("III", 3)) == hash((PRIMES_BY_BITS[48], 3))


def test_shipped_sets_are_shared_and_equal_to_a_fresh_build():
    for level in KEM_FIELD_BITS:
        for params, again in (
            (kem_params(level, 2), kem_params(level, 2)),
            (kem_params(level, 3), kem_params(level, 3)),
            (ds_params(level), ds_params(level)),
        ):
            assert params is again
            fresh = replace(params)  # runs __init__ and its checks again
            assert fresh is not params and fresh == params


# --- key generation ---------------------------------------------------------


def test_keygen_level1_dimensions_and_ranges():
    params = kem_params("I", 2)
    sk, pk = seeded_keygen(params, b"dims")
    for matrix in (pk.numer_matrix, pk.denom_matrix):
        assert len(matrix) == 3 * 2
        assert all(v < (1 << 72) for v in matrix)
    assert sk.numer_coeffs[-1] != 0 and sk.denom_coeffs[-1] != 0
    assert not _proportional(sk.numer_coeffs, sk.denom_coeffs, params.prime)


def test_keygen_convolution_against_schoolbook():
    # Fixed draws: f=2+3x, h=1+4x, base column (4, 6).
    params = KemParams(7, 1)
    draws = [
        2, 3 - 1,       # numerator factor: constant, then nonzero leading - 1
        1, 4 - 1,       # denominator factor
        4, 6,           # base column
        *([40, 4] * 2), # both rings: modulus 8232, multiplier 5 (coprime)
    ]
    sk, pk = keygen(params, ScriptedEntropy(draws))
    assert sk.numer_coeffs == (2, 3)
    assert sk.denom_coeffs == (1, 4)
    numer, denom = plain_matrices(sk, pk, params)
    # schoolbook (2+3x)(4+6x) = 8 + 24x + 18x^2 mod 7
    assert [row[0] for row in numer] == [8 % 7, 24 % 7, 18 % 7]
    # schoolbook (1+4x)(4+6x) = 4 + 22x + 24x^2 mod 7
    assert [row[0] for row in denom] == [4 % 7, 22 % 7, 24 % 7]


def test_keygen_cross_multiplied_identity_for_all_points():
    # numer(x)*h(x) == denom(x)*f(x) at every field point: both sides are
    # f*h*base.
    params = KemParams(7, 2)
    sk, pk = seeded_keygen(params, b"identity")
    numer, denom = plain_matrices(sk, pk, params)
    for x in range(7):
        fx = poly_eval(sk.numer_coeffs, x, 7)
        hx = poly_eval(sk.denom_coeffs, x, 7)
        for j in range(2):
            assert column_eval(numer, j, x, 7) * hx % 7 == (
                column_eval(denom, j, x, 7) * fx % 7
            )


def test_keygen_resamples_proportional_factors():
    params = KemParams(7, 1)
    draws = [
        1, 2 - 1,       # f = 1 + 2x
        2, 4 - 1,       # first h draw = 2 + 4x, proportional: rejected
        3, 1 - 1,       # second h draw = 3 + x
        4, 6,
        *([40, 4] * 2),
    ]
    sk, _ = keygen(params, ScriptedEntropy(draws))
    assert sk.numer_coeffs == (1, 2)
    assert sk.denom_coeffs == (3, 1)


def test_keygen_gives_up_on_factors_that_stay_proportional():
    # Every draw is zero, so each factor is 0 + 1x and every h equals f.
    with pytest.raises(GenerationError, match="could not draw independent secret factors"):
        keygen(kem_params("I"), ZeroEntropy())


def test_keygen_redraws_an_all_zero_base_column_in_row_order():
    # The base is drawn row by row; column 1 comes out all zero, so it is
    # redrawn top to bottom before the rings draw.
    params = KemParams(7, 2)
    draws = [
        2, 3 - 1,       # f = 2 + 3x
        1, 4 - 1,       # h = 1 + 4x
        4, 0, 6, 0,     # base rows (4, 0) and (6, 0): column 1 is zero
        1, 5,           # column 1 redrawn as (1, 5)
        *([40, 4] * 2),
    ]
    rng = ScriptedEntropy(draws)
    sk, pk = keygen(params, rng)
    assert rng.pos == len(draws)
    numer, denom = plain_matrices(sk, pk, params)
    # (2+3x)(4+6x) = 8 + 24x + 18x^2 and (2+3x)(1+5x) = 2 + 13x + 15x^2
    assert numer == [[8 % 7, 2], [24 % 7, 13 % 7], [18 % 7, 15 % 7]]
    # (1+4x)(4+6x) = 4 + 22x + 24x^2 and (1+4x)(1+5x) = 1 + 9x + 20x^2
    assert denom == [[4, 1], [22 % 7, 9 % 7], [24 % 7, 20 % 7]]


def test_keygen_gives_up_on_a_base_column_that_stays_zero():
    params = KemParams(7, 2)
    draws = [2, 3 - 1, 1, 4 - 1, 4, 0, 6, 0, *([0, 0] * _RESAMPLE_LIMIT)]
    rng = ScriptedEntropy(draws)
    with pytest.raises(GenerationError, match="could not draw a nonzero base column"):
        keygen(params, rng)
    assert rng.pos == len(draws)


def test_keygen_accepts_a_base_column_nonzero_on_its_last_redraw():
    # Every redraw is checked, the last one allowed included.
    params = KemParams(7, 2)
    draws = [
        2, 3 - 1, 1, 4 - 1,
        4, 0, 6, 0,                          # column 1 is zero
        *([0, 0] * (_RESAMPLE_LIMIT - 1)),   # and stays zero on 63 redraws
        1, 5,                                # the 64th redraw is (1, 5)
        *([40, 4] * 2),
    ]
    rng = ScriptedEntropy(draws)
    sk, pk = keygen(params, rng)
    assert rng.pos == len(draws)
    numer, _ = plain_matrices(sk, pk, params)
    assert [row[1] for row in numer] == [2, 13 % 7, 15 % 7]  # (2+3x)(1+5x)


def test_proportional_detects_scalar_multiples():
    assert _proportional((1, 2), (3, 6), 7)
    assert _proportional((1, 2), (4, 1), 7)  # 4*(1,2) = (4,8) = (4,1) mod 7
    assert not _proportional((1, 2), (1, 3), 7)


# --- encapsulation / decapsulation ------------------------------------------


def test_zero_secret_round_trip():
    params, sk, pk, noise = exhaustive_toy_key(7)
    assert decapsulate(sk, _evaluate(pk, params, 0, noise), params) == 0


@pytest.mark.parametrize("prime", [7, 251])
def test_exhaustive_round_trip_at_toy_primes(prime):
    params, sk, pk, noise = exhaustive_toy_key(prime)
    for x in range(prime):
        assert decapsulate(sk, _evaluate(pk, params, x, noise), params) == x


def test_encapsulate_refuses_a_public_key_of_the_wrong_length():
    params = kem_params("I", 2)
    _, pk = seeded_keygen(params, b"length")
    for bad in (replace(pk, numer_matrix=pk.numer_matrix[:-1]),
                replace(pk, denom_matrix=pk.denom_matrix + (1,))):
        with pytest.raises(FormatError, match="wrong shape"):
            encapsulate(bad, params, ScriptedEntropy([]))  # refused before any draw


def test_private_key_refuses_factors_that_are_not_linear():
    # Refused when built, so neither decapsulate nor sign can receive one.
    sk, _ = seeded_keygen(kem_params("I", 2), b"factor-shape")
    for bad in ({"numer_coeffs": sk.numer_coeffs + (1,)},
                {"denom_coeffs": sk.denom_coeffs[:1]},
                {"numer_coeffs": ()}):
        with pytest.raises(ParameterError, match="two coefficients"):
            replace(sk, **bad)


def test_decapsulate_refuses_a_ciphertext_whose_lifts_vanish():
    # Both lifts are zero, so the cross-multiplied ratio has no solution.
    params = kem_params("I")
    sk, _ = seeded_keygen(params, b"vanish")
    with pytest.raises(DecapsulationError, match="base polynomial vanished"):
        decapsulate(sk, KemCiphertext(0, 0), params)


@pytest.mark.parametrize("field", ["numer_eval", "denom_eval"])
@pytest.mark.parametrize("edge", ["minus-one", "bound"])
def test_decapsulate_refuses_ciphertext_values_out_of_range(field, edge):
    # [0, ciphertext_bound) is the range the codec reads; each field is
    # checked on its own, and the values just inside pass the check.
    params = kem_params("I")
    sk, pk = seeded_keygen(params, b"range")
    x, ct = encapsulate(pk, params, KeystreamState(b"range", TAG_HPPK_U))
    bound = ciphertext_bound(params)
    outside, inside = (-1, 0) if edge == "minus-one" else (bound, bound - 1)
    with pytest.raises(FormatError, match="out of range"):
        decapsulate(sk, replace(ct, **{field: outside}), params)
    try:
        decapsulate(sk, replace(ct, **{field: inside}), params)
    except DecapsulationError:
        pass
    assert decapsulate(sk, ct, params) == x


def test_decapsulate_reads_the_bound_of_its_own_parameter_set():
    # A set that is not shipped derives its bound in its constructor, and
    # ciphertext_bound keeps the formula it always had.
    def formula(params):
        return params.terms * (1 << params.ring_bits) * params.prime

    for level in KEM_FIELD_BITS:
        for m in (1, 2, 3):
            assert ciphertext_bound(shipped_params(level, m)) == formula(shipped_params(level, m))
    params = KemParams(65521, 2)
    assert params.level is None
    bound = ciphertext_bound(params)
    assert bound == formula(params)
    sk, pk = seeded_keygen(params, b"own-bound")
    x, ct = encapsulate(pk, params, KeystreamState(b"own-bound", TAG_HPPK_U))
    with pytest.raises(FormatError, match="^ciphertext values out of range$"):
        decapsulate(sk, replace(ct, numer_eval=bound), params)
    try:  # one below the bound passes the range check
        decapsulate(sk, replace(ct, numer_eval=bound - 1), params)
    except DecapsulationError:
        pass
    assert decapsulate(sk, ct, params) == x


def test_noise_randomizes_ciphertexts():
    params = kem_params("I", 2)
    sk, pk = seeded_keygen(params, b"randomized")
    rng = KeystreamState(b"noise", TAG_HPPK_U)
    x = 1234567
    ct1 = _evaluate(pk, params, x, [1 + rng.next_index(params.prime - 1) for _ in range(2)])
    ct2 = _evaluate(pk, params, x, [1 + rng.next_index(params.prime - 1) for _ in range(2)])
    assert ct1 != ct2
    assert decapsulate(sk, ct1, params) == x == decapsulate(sk, ct2, params)


def test_decapsulation_independent_of_noise_exhaustively():
    params, sk, pk, _ = exhaustive_toy_key(7)
    numer, denom = plain_matrices(sk, pk, params)
    x = 3
    for u1 in range(1, 7):
        for u2 in range(1, 7):
            ct = _evaluate(pk, params, x, [u1, u2])
            base_dot = sum(
                (numer[i][0] * u1 + numer[i][1] * u2) * pow(x, i, 7) for i in range(3)
            ) % 7
            if base_dot == 0 and poly_eval(sk.denom_coeffs, x, 7) != 0:
                # numer side vanished with the base: undecodable by design
                with pytest.raises(DecapsulationError):
                    decapsulate(sk, ct, params)
            else:
                assert decapsulate(sk, ct, params) == x


def test_plain_matrix_ratio_cancels_base_exhaustively():
    # Before any ring encryption, the two evaluation sums differ only by
    # the secret factors: their ratio is f(x)/h(x) for every x and noise.
    params = KemParams(7, 2)
    sk, pk = seeded_keygen(params, b"plain-ratio")
    numer, denom = plain_matrices(sk, pk, params)
    p = params.prime
    for x in range(p):
        for u1 in range(1, p):
            for u2 in range(1, p):
                top = sum(numer[i][j] * (pow(x, i, p) * u % p)
                          for i in range(3) for j, u in enumerate((u1, u2))) % p
                bot = sum(denom[i][j] * (pow(x, i, p) * u % p)
                          for i in range(3) for j, u in enumerate((u1, u2))) % p
                hx = poly_eval(sk.denom_coeffs, x, p)
                if bot == 0 or hx == 0:
                    continue
                assert top * pow(bot, -1, p) % p == (
                    poly_eval(sk.numer_coeffs, x, p) * pow(hx, -1, p) % p
                )


def test_noise_elimination_ratio_matches_factor_ratio():
    params, sk, pk, noise = exhaustive_toy_key(7)
    p = params.prime
    for x in range(p):
        ct = _evaluate(pk, params, x, noise)
        numer_lift = int(sk.ring1.invert(int(ct.numer_eval) % sk.ring1.modulus)) % p
        denom_lift = int(sk.ring2.invert(int(ct.denom_eval) % sk.ring2.modulus)) % p
        hx = poly_eval(sk.denom_coeffs, x, p)
        if denom_lift == 0 or hx == 0:
            continue  # ratio undefined at the denominator's root
        k = numer_lift * pow(denom_lift, -1, p) % p
        assert k == poly_eval(sk.numer_coeffs, x, p) * pow(hx, -1, p) % p


def test_plain_sums_stay_below_the_ring_moduli():
    params = kem_params("I", 2)
    sk, pk = seeded_keygen(params, b"bound")
    numer, _ = plain_matrices(sk, pk, params)
    rng = KeystreamState(b"bound-noise", TAG_HPPK_U)
    p = params.prime
    for _ in range(50):
        x = rng.next_index(p)
        noise = [1 + rng.next_index(p - 1) for _ in range(2)]
        total = sum(
            numer[i][j] * (pow(x, i, p) * noise[j] % p)
            for i in range(3)
            for j in range(2)
        )
        assert total < sk.ring1.modulus


def test_corrupted_ciphertext_never_returns_the_secret():
    params = kem_params("I", 2)
    sk, pk = seeded_keygen(params, b"corrupt")
    rng = KeystreamState(b"corrupt-trials", TAG_HPPK_U)
    from permcrypt.hppk_kem import KemCiphertext

    for _ in range(200):
        x, ct = encapsulate(pk, params, rng)
        bad = KemCiphertext(ct.numer_eval ^ 1, ct.denom_eval)
        try:
            assert decapsulate(sk, bad, params) != x
        except DecapsulationError:
            pass


def test_level_round_trips_all_configurations():
    for level in ("I", "III", "V"):
        for m in (2, 3):
            params = kem_params(level, m)
            sk, pk = seeded_keygen(params, b"roundtrip-%s-%d" % (level.encode(), m))
            rng = KeystreamState(b"trial", TAG_HPPK_U)
            for _ in range(25):
                x, ct = encapsulate(pk, params, rng)
                assert decapsulate(sk, ct, params) == x


@pytest.mark.parametrize("call,name", [
    (lambda p, sk, pk, ct, rng: keygen(None, rng), "params"),
    (lambda p, sk, pk, ct, rng: encapsulate(None, p, rng), "pk"),
    (lambda p, sk, pk, ct, rng: encapsulate(ct, p, rng), "pk"),
    (lambda p, sk, pk, ct, rng: encapsulate(pk, None, rng), "params"),
    (lambda p, sk, pk, ct, rng: decapsulate(None, ct, p), "sk"),
    (lambda p, sk, pk, ct, rng: decapsulate(sk, None, p), "ct"),
    (lambda p, sk, pk, ct, rng: decapsulate(sk, ct, None), "params"),
    (lambda p, sk, pk, ct, rng: KemPublicKey((1.5,) * 6, pk.denom_matrix), "numer_matrix"),
    (lambda p, sk, pk, ct, rng: KemPublicKey(pk.numer_matrix, list(pk.denom_matrix)),
     "denom_matrix"),
    (lambda p, sk, pk, ct, rng: KemCiphertext(1.5, 2), "numer_eval"),
    (lambda p, sk, pk, ct, rng: KemCiphertext(ct.numer_eval, "2"), "denom_eval"),
    (lambda p, sk, pk, ct, rng: replace(sk, numer_coeffs=(1.0, 2)), "numer_coeffs"),
    (lambda p, sk, pk, ct, rng: replace(sk, denom_coeffs=(3, None)), "denom_coeffs"),
    (lambda p, sk, pk, ct, rng: KemPrivateKey((1, 2), (3, 4), None, None), "ring1"),
    (lambda p, sk, pk, ct, rng: replace(sk, ring2=(3, 7)), "ring2"),
], ids=["keygen-none-params", "none-pk", "ct-as-pk", "encapsulate-none-params", "none-sk",
        "none-ct", "decapsulate-none-params", "float-pk-entries", "list-pk-matrix",
        "float-ct-eval", "str-ct-eval", "float-sk-coefficient", "none-sk-coefficient",
        "none-sk-rings", "tuple-sk-ring"])
def test_kem_refuses_wrong_type_arguments_naming_them(call, name):
    params = kem_params("I", 2)
    sk, pk = seeded_keygen(params, b"wrong-types")
    rng = KeystreamState(b"wrong-types", TAG_HPPK_U)
    _, ct = encapsulate(pk, params, rng)
    with pytest.raises(ParameterError, match=f"^{name} must be "):
        call(params, sk, pk, ct, rng)


# --- attack complexity ------------------------------------------------------


def test_attack_complexity_closed_form():
    assert attack_complexity(72) == pytest.approx(142.8669, abs=5e-4)
    assert attack_complexity(1 + 1) == pytest.approx(4 - 1.1331, abs=5e-4)
    with pytest.raises(ParameterError):
        attack_complexity(1)


def test_attack_complexity_grounded_by_enumeration():
    counted = count_coprime_pairs(8)
    estimated = 2 ** attack_complexity(8)
    assert abs(counted - estimated) / estimated < 0.15
