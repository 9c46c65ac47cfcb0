"""Attacks that run against the shipped keys; each test pins a leak the docs state."""

from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from permcrypt import codec, kat
from permcrypt.hppk_ds import Signature, ds_keygen, ds_params, verify
from permcrypt.hppk_kem import encapsulate
from permcrypt.keystream import TAG_HPPK_KEYGEN, TAG_HPPK_U, KeystreamState, hash_to_field


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def _lll(basis):
    """LLL (delta = 99/100) of independent integer rows in integers, Cohen Alg. 2.6.7:
    d[i] is the Gram determinant of rows 0..i-1 and lam[k][j] = d[j + 1] * mu[k][j]."""
    b = [list(row) for row in basis]
    d, lam = [1] * (len(b) + 1), [[0] * len(b) for _ in b]
    for k in range(len(b)):
        for j in range(k + 1):
            lam[k][j] = _dot(b[k], b[j])
            for i in range(j):
                lam[k][j] = (d[i + 1] * lam[k][j] - lam[k][i] * lam[j][i]) // d[i]
        d[k + 1] = lam[k][k]  # the diagonal of lam repeats d
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):  # size-reduce row k, mu rounded half to even
            q, r = divmod(lam[k][j], d[j + 1])
            q += 2 * r > d[j + 1] or (2 * r == d[j + 1] and q & 1)
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][:j + 1] = [x - q * y for x, y in zip(lam[k], lam[j][:j + 1])]
        l = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * l * l:  # Lovasz
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        for row in lam[k + 1:]:
            row[k - 1], row[k] = ((row[k - 1] * l + row[k] * d[k - 1]) // d[k],
                                  (row[k - 1] * d[k + 1] - row[k] * l) // d[k])
        d[k] = lam[k - 1][k - 1] = (d[k - 1] * d[k + 1] + l * l) // d[k]
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


def _embedding(entries, modulus):
    """Rows [1, *entries] and modulus times each later unit row."""
    n = len(entries)
    return [[1, *entries]] + [[0] * (i + 1) + [modulus] + [0] * (n - i - 1) for i in range(n)]


def _moduli_and_pk_from_vk(vk, params):
    """Attack C: each ring's hidden modulus and public matrix, from vk alone.

    For each vk entry, r = 2^shift * P - q * s lies in [0, s).  Mod 2^shift,
    r = -q * s; mod p, rho = resid / ring_resid = P / s, so r = (2^shift * rho
    - q) * s.  Hence r = d * s mod N with N = p * 2^shift: s is a ring_bits-bit
    number whose multiples d * s mod N are all below s, and so a short vector
    of the lattice spanned by [1, d1, d2, d3] and N times the unit rows.
    """
    p, shift = params.prime, params.shift_bits
    modulus = p << shift
    rings = []
    for quot, resid, ring_resid in (
        (vk.numer_quot, vk.numer_resid, vk.ring1_resid),
        (vk.denom_quot, vk.denom_resid, vk.ring2_resid),
    ):
        inv = pow(ring_resid, -1, p)
        ds = [((r * inv % p << shift) - q) % modulus for q, r in zip(quot, resid)]
        firsts = [row[0] for row in _lll(_embedding(ds, modulus))]
        candidates = (abs(_dot(c, firsts)) for c in product(range(-3, 4), repeat=len(firsts)))
        found = {
            s for s in candidates
            if s.bit_length() == params.ring_bits and all(d * s % modulus < s for d in ds)
        }
        assert len(found) == 1
        (s,) = found
        rings.append((s, tuple(-(-q * s >> shift) for q in quot)))  # ceil(q*s / 2^shift)
    return rings


def test_vk_alone_gives_both_hidden_moduli_and_pk():
    params = ds_params("I")
    sk, pk, vk = ds_keygen(params, KeystreamState(bytes([0]), TAG_HPPK_KEYGEN))  # seed 0
    assert _moduli_and_pk_from_vk(vk, params) == [
        (sk.ring1.modulus, pk.numer_matrix), (sk.ring2.modulus, pk.denom_matrix),
    ]


def _forger(vk, params):
    """Attack E: a signing function built from vk alone.

    Attack C gives each ring's s and public entries P = r * e mod s, where e < p
    is the plain entry.  A multiple w = c / r mod s with c small maps every P to
    c * e; LLL of [1, K * P] and K * s times the unit rows, K = 2^(ring_bits -
    field_bits), finds one.  With a = c1 * N(x) and b = c2 * D(x) mod p, the tags
    w2 * a mod s2 and w1 * b mod s1 make both sides of the verifier's identity
    c1 * c2 * N(x) * D(x) mod p: with c small no product wraps, as p^2 is far below s.
    """
    p, weight = params.prime, 1 << (params.ring_bits - params.field_bits)
    folded = []
    for s, matrix in _moduli_and_pk_from_vk(vk, params):
        firsts = [row[0] for row in _lll(_embedding([weight * v for v in matrix], weight * s))]
        w = next(
            w for c in product(range(-2, 3), repeat=len(firsts)) for w in [_dot(c, firsts)]
            if all(0 < w * v % s < p << 8 for v in matrix)  # 0 < c * e; w = 0 or s fails
        )
        folded.append((s, w, [w * v % s for v in matrix]))
    (s1, w1, numer), (s2, w2, denom) = folded

    def forge(message):
        x = hash_to_field(message, p, params.hash_bytes)
        a, b = (sum(x ** i * v for i, v in enumerate(row)) % p for row in (numer, denom))
        return Signature(w2 * a % s2, w1 * b % s1)

    return forge


_UNSIGNED = (b"never signed", b"nor this one")


def test_vk_alone_forges_signatures():
    params = ds_params("I")
    _, _, vk = ds_keygen(params, KeystreamState(bytes([0]), TAG_HPPK_KEYGEN))  # seed 0
    forge = _forger(vk, params)
    for message in _UNSIGNED:
        assert verify(vk, params, message, forge(message))


def test_a_ds_kat_file_lets_its_reader_sign():
    fields = [line.split(" = ") for line in
              kat.emit_kat(bytes.fromhex("beef"), "DS-I", 2).split("\n") if " = " in line]
    assert not {bytes.fromhex(v) for k, v in fields if k == "msg"} & set(_UNSIGNED)
    vks = [codec.decode_verification_key(bytes.fromhex(v)) for k, v in fields if k == "pk"]
    assert len(vks) == 2
    for vk, params in vks:
        forge = _forger(vk, params)
        for message in _UNSIGNED:
            assert verify(vk, params, message, forge(message))


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


def _det(m):
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot], sign = m[pivot], m[i], -sign
        for r in range(i + 1, len(m)):
            m[r] = [(x * m[i][i] - m[r][i] * y) // prev for x, y in zip(m[r], m[i])]
        prev = m[i][i]
    return sign * prev


def _gram_det(rows, last=None):
    """The Gram determinant of `rows`; with `last`, lam[last][len(rows) - 1] in integers,
    the same determinant with `last` in place of the last row on one side."""
    left = rows if last is None else rows[:-1] + [last]
    return _det([[_dot(u, v) for v in rows] for u in left])


@st.composite
def _full_rank_bases(draw):
    n = draw(st.integers(2, 6))
    width = draw(st.integers(n, 6))
    flat = draw(st.lists(st.integers(-9, 9), min_size=n * width, max_size=n * width))
    rows = [flat[i:i + width] for i in range(0, n * width, width)]
    assume(_gram_det(rows))
    return rows


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_full_rank_bases())
def test_lll_output_is_an_lll_reduced_basis_of_the_same_lattice(basis):
    out = _lll(basis)
    d = [1] + [_gram_det(out[:i]) for i in range(1, len(out) + 1)]
    assert d[-1] == _gram_det(basis)  # integer row operations, same determinant: same lattice
    for k in range(1, len(out)):
        lam = [_gram_det(out[:j + 1], out[k]) for j in range(k)]
        assert all(2 * abs(lam[j]) <= d[j + 1] for j in range(k))  # size-reduced
        assert 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * lam[k - 1] ** 2  # Lovasz
