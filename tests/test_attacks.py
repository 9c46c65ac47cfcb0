"""Attacks that run against the shipped keys; each test pins a leak the docs state."""

from fractions import Fraction
from itertools import product

import pytest

from permcrypt.hppk_ds import ds_keygen, ds_params
from permcrypt.hppk_kem import encapsulate
from permcrypt.keystream import TAG_HPPK_KEYGEN, TAG_HPPK_U, KeystreamState


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _lll(basis, delta=Fraction(99, 100)):
    """Lenstra-Lenstra-Lovasz reduction of integer rows, exact rational Gram-Schmidt."""
    b = [list(row) for row in basis]

    def gram_schmidt():
        ortho, mu = [], []
        for row in b:
            coeffs = [_dot(row, o) / _dot(o, o) for o in ortho]
            v = [Fraction(x) for x in row]
            for c, o in zip(coeffs, ortho):
                v = [x - c * y for x, y in zip(v, o)]
            ortho.append(v)
            mu.append(coeffs)
        return [_dot(o, o) for o in ortho], mu

    norms, mu = gram_schmidt()
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):  # size-reduce row k
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu[k][j] -= q
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            norms, mu = gram_schmidt()
            k = max(k - 1, 1)
    return b


@pytest.mark.parametrize("level", ["I", "III", "V"])
def test_pk_and_vk_give_both_hidden_moduli(level):
    # vk stores q = floor(2^shift * P / s) for each public entry P.  So s lies
    # in (2^shift * P / (q + 1), 2^shift * P / q], an interval narrower than
    # 1 once P is near s; the largest entry gives s as one floor division.
    params = ds_params(level)
    for seed in range(3):  # the first three one-byte seeds, in order
        sk, pk, vk = ds_keygen(params, KeystreamState(bytes([seed]), TAG_HPPK_KEYGEN))
        for matrix, quot, ring in (
            (pk.numer_matrix, vk.numer_quot, sk.ring1),
            (pk.denom_matrix, vk.denom_quot, sk.ring2),
        ):
            entry, q = max(zip(matrix, quot))
            assert (entry << params.shift_bits) // q == ring.modulus


def test_vk_alone_gives_both_hidden_moduli_and_pk():
    # For each vk entry, r = 2^shift * P - q * s lies in [0, s).  Mod 2^shift,
    # r = -q * s; mod p, rho = resid / ring_resid = P / s, so r = (2^shift * rho
    # - q) * s.  Hence r = d * s mod N with N = p * 2^shift: s is a ring_bits-bit
    # number whose multiples d * s mod N are all below s, and so a short vector
    # of the lattice spanned by [1, d1, d2, d3] and N times the unit rows.
    params = ds_params("I")
    p, ring_bits = params.prime, params.ring_bits
    sk, pk, vk = ds_keygen(params, KeystreamState(bytes([0]), TAG_HPPK_KEYGEN))  # seed 0
    shift = params.shift_bits
    modulus = p << shift
    for matrix, quot, resid, ring_resid, ring in (
        (pk.numer_matrix, vk.numer_quot, vk.numer_resid, vk.ring1_resid, sk.ring1),
        (pk.denom_matrix, vk.denom_quot, vk.denom_resid, vk.ring2_resid, sk.ring2),
    ):
        inv = pow(ring_resid, -1, p)
        ds = [((r * inv % p << shift) - q) % modulus for q, r in zip(quot, resid)]
        basis = [[1, *ds]] + [
            [0] * (i + 1) + [modulus] + [0] * (len(ds) - i - 1) for i in range(len(ds))
        ]
        firsts = [row[0] for row in _lll(basis)]
        candidates = (abs(_dot(c, firsts)) for c in product(range(-3, 4), repeat=len(firsts)))
        found = {
            s for s in candidates
            if s.bit_length() == ring_bits and all(d * s % modulus < s for d in ds)
        }
        assert found == {ring.modulus}
        (s,) = found
        assert tuple(-(-q * s >> shift) for q in quot) == matrix  # ceil(q*s / 2^shift)


def test_pk_and_ciphertext_give_the_one_noise_kem_secret():
    # The ciphertext is c = sum_t P_t * y_t with y_t = x^i * u mod p < p, so the
    # lattice of rows [e_t | W*N_t | W*D_t | 0] and [0 | -W*c1 | -W*c2 | p] holds
    # the short vector [y | 0 | 0 | p]; the weight W makes the middle columns
    # vanish in every short vector.  Then x = y[1] / y[0] mod p.
    params = ds_params("I")
    p = params.prime
    _, pk, _ = ds_keygen(params, KeystreamState(bytes([0]), TAG_HPPK_KEYGEN))  # seed 0
    secret, ct = encapsulate(pk, params, KeystreamState(bytes([0]), TAG_HPPK_U))
    weight = 1 << (params.ring_bits + 64)
    numer, denom = pk.numer_matrix, pk.denom_matrix
    t = len(numer)
    basis = [
        [int(i == k) for k in range(t)] + [weight * n, weight * d, 0]
        for i, (n, d) in enumerate(zip(numer, denom))
    ] + [[0] * t + [-weight * ct.numer_eval, -weight * ct.denom_eval, p]]
    (y,) = [
        [v * row[-1] // p for v in row[:t]]  # the sign that makes the last entry p
        for row in _lll(basis) if row[t:t + 2] == [0, 0] and abs(row[-1]) == p
    ]
    assert y[1] * pow(y[0], -1, p) % p == secret
