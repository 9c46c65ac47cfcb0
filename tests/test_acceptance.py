"""Acceptance suite: one test per release criterion, seeded and deterministic.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import math

from test_hppk_kem import exhaustive_toy_key

from permcrypt import codec, kat
from permcrypt.hidden_ring import count_coprime_pairs, new_operator
from permcrypt.hppk_ds import ds_keygen, ds_params, sign, verify
from permcrypt.hppk_kem import (
    _evaluate,
    attack_complexity,
    decapsulate,
    encapsulate,
    kem_params,
    keygen,
)
from permcrypt.keystream import (
    TAG_HPPK_HASH,
    TAG_HPPK_KEYGEN,
    TAG_HPPK_U,
    KeystreamState,
)
from permcrypt.qpp import (
    MODE_RANDOM,
    MODE_SEQUENTIAL,
    Permutation,
    PermutationPad,
    decrypt_stream,
    encrypt_stream,
    generate_pad,
)
from permcrypt.ring_arith import inv_mod


def report(number: int, text: str):
    print(f"[acceptance] criterion {number:2d} PASS — {text}")


def stream(label: bytes, tag: bytes = b"acceptance") -> KeystreamState:
    return KeystreamState(label, tag)


def test_c01_kem_correctness():
    # Exhaustive secrets at the toy primes.
    for prime in (7, 251):
        params, sk, pk, noise = exhaustive_toy_key(prime)
        for x in range(prime):
            assert decapsulate(sk, _evaluate(pk, params, x, noise), params) == x

    # A thousand randomized trials at each shipped configuration.
    for level in ("I", "III", "V"):
        for m in (2, 3):
            params = kem_params(level, m)
            label = b"c01-%s-%d" % (level.encode(), m)
            keys = stream(label, TAG_HPPK_KEYGEN)
            trials = stream(label, TAG_HPPK_U)
            for _ in range(20):
                sk, pk = keygen(params, keys)
                for _ in range(50):
                    secret, ct = encapsulate(pk, params, trials)
                    assert decapsulate(sk, ct, params) == secret
    report(1, "KEM round trips: exhaustive at p=7 and p=251, 1000 trials x 6 configs")


def test_c02_ds_correctness():
    for level in ("I", "III", "V"):
        params = ds_params(level)
        label = b"c02-" + level.encode()
        sk, _, vk = ds_keygen(params, stream(label, TAG_HPPK_KEYGEN))
        alphas = stream(label, TAG_HPPK_HASH)
        bodies = stream(label, b"messages")
        rejected = 0
        for i in range(1000):
            message = bytearray(bodies.next_bytes(32))
            sig = sign(sk, params, bytes(message), alphas, vk=vk)
            assert verify(vk, params, bytes(message), sig)
            message[i % 32] ^= 1 << (i % 8)
            if not verify(vk, params, bytes(message), sig):
                rejected += 1
        assert rejected >= 999
    report(2, "signatures: 1000 accepts and >=999/1000 tamper rejects per level")


def test_c03_homomorphism_suite():
    draws = stream(b"c03")
    for bits in (8, 72, 104, 136):
        op = new_operator(draws, bits)
        s = int(op.modulus)
        for _ in range(10_000):
            a = draws.next_index(s)
            b = draws.next_index(s)
            c = draws.next_index(s)
            assert op.apply((a + b) % s) == (op.apply(a) + op.apply(b)) % s
            assert op.apply(c * a % s) == c * op.apply(a) % s
    report(3, "additive and scalar homomorphism: 10^4 trials at L in {8,72,104,136}")


def test_c04_hidden_ring_distinguisher():
    draws = stream(b"c04")
    op = new_operator(draws, 16)
    s = int(op.modulus)

    # Public modulus: the multiplier cancels out of every image ratio.
    exact = 0
    while exact < 100:
        b, b2 = draws.next_index(s), draws.next_index(s)
        if 0 in (b, b2) or math.gcd(b, s) != 1:
            continue
        c, c2 = int(op.apply(b)), int(op.apply(b2))
        assert c2 * inv_mod(c, s) % s == b2 * inv_mod(b, s) % s
        exact += 1

    # Hidden modulus: a guessed ring almost never preserves the identity.
    surviving = 0
    trials = 0
    while trials < 100:
        wrong = (1 << 15) + draws.next_index(1 << 15)
        b, b2 = draws.next_index(s), draws.next_index(s)
        if wrong == s or 0 in (b, b2):
            continue
        c, c2 = int(op.apply(b)), int(op.apply(b2))
        if math.gcd(c, wrong) != 1 or math.gcd(b, wrong) != 1:
            continue
        trials += 1
        if c2 * inv_mod(c, wrong) % wrong == b2 * inv_mod(b, wrong) % wrong:
            surviving += 1
    assert surviving <= 1
    report(4, "ratio cancellation holds with the modulus public, fails hidden (>=99/100)")


def test_c05_barrett_oracle_equivalence():
    draws = stream(b"c05")
    modulus = (1 << 71) | draws.next_bits(71)
    shift = 104  # K = L + 32 for this 72-bit modulus
    prime = ds_params("I").prime
    blind = 1 + draws.next_index(prime - 1)
    ring_resid = blind * modulus % prime

    unreduced = 0
    split_mismatches = 0
    for _ in range(1_000_000):
        a = draws.next_index(modulus)
        b = draws.next_index(modulus)
        # Oracle: Barrett constant and reduction, written out in full.
        mu = (b << shift) // modulus
        got = a * b - modulus * (a * mu >> shift)
        direct = a * b % modulus
        assert got % modulus == direct and got < 2 * modulus
        if got != direct:
            unreduced += 1
        secret_side = blind * direct % prime
        split = (a * (blind * b % prime) - ring_resid * (a * mu >> shift)) % prime
        if split != secret_side:
            split_mismatches += 1
    assert unreduced == 0
    assert split_mismatches == 0
    report(5, "10^6 Barrett trials at K=L+32: all exact, verifier split matches secrets")


def test_c06_entropy_figures():
    from permcrypt.qpp import pad_entropy

    single = pad_entropy(8, 1)
    assert abs(single - 1684) < 0.5 and round(single) == 1684
    full = pad_entropy(8, 64)
    assert round(full) == 107_776 and full > 100_000
    assert pad_entropy(8, 1, "arithmetic") == 15.0
    report(6, "pad entropy: 1684 bits per table, 107776 per pad, 15 arithmetic")


def test_c07_published_size_reproduction():
    expected_pk = {("I", 2): 108, ("I", 3): 162, ("III", 2): 156,
                   ("III", 3): 234, ("V", 2): 204, ("V", 3): 306}
    expected_sk = {"I": 52, "III": 76, "V": 100}
    for (level, m), size in expected_pk.items():
        params = kem_params(level, m)
        sk, pk = keygen(params, stream(b"c07", TAG_HPPK_KEYGEN))
        assert len(codec.encode_kem_public(pk, params)) - codec.HEADER_LEN == size
        assert codec.kem_public_size(params) == size
        assert (
            len(codec.encode_kem_private(sk, params)) - codec.HEADER_LEN
            == codec.kem_private_size(params)
            == expected_sk[level]
        )
    # Ciphertext, signature, and verification-key sizes follow this
    # artifact's formulas; the published table's figures for them are not
    # derivable from the stated parameters and are documented as such.
    for level, (ct, sig, vk) in {"I": (28, 34, 192), "III": (40, 50, 272),
                                 "V": (52, 66, 352)}.items():
        assert codec.kem_ciphertext_size(kem_params(level, 2)) == ct
        assert codec.ds_signature_size(ds_params(level)) == sig
        assert codec.ds_verification_size(ds_params(level)) == vk
    report(7, "public/secret key payloads reproduce 108/162/156/234/204/306 and 52/76/100")


def test_c08_qpp_pipeline():
    pad = generate_pad(b"c08-pad", 8, 64)
    for perm in pad.perms:
        assert sorted(perm.table) == list(range(256))

    data = stream(b"c08-data").next_bytes(1 << 20)
    for mode in (MODE_RANDOM, MODE_SEQUENTIAL):
        ct = encrypt_stream(pad, b"c08-session", data, mode)
        assert len(ct) == len(data) and ct != data
        assert decrypt_stream(pad, b"c08-session", ct, mode) == data

    # Single-bit blocks with one identity table reduce to the XOR one-time pad.
    from permcrypt.keystream import TAG_QPP_PRERAND

    otp = PermutationPad(1, [Permutation.identity(1)])
    mask_byte = KeystreamState(b"c08-otp", TAG_QPP_PRERAND).next_bytes(1)[0]
    for byte in range(256):  # exhaustive inputs of eight one-bit blocks
        assert encrypt_stream(otp, b"c08-otp", bytes([byte])) == bytes([byte ^ mask_byte])
    plain = bytes(range(256))
    mask = KeystreamState(b"c08-otp", TAG_QPP_PRERAND).next_bytes(len(plain))
    assert encrypt_stream(otp, b"c08-otp", plain) == bytes(
        a ^ b for a, b in zip(plain, mask)
    )
    report(8, "1 MiB round trips in both dispatch modes; 64 bijections; OTP degeneration")


def test_c09_attack_estimate_grounded():
    counted = count_coprime_pairs(8)
    estimated = 2 ** attack_complexity(8)
    assert abs(counted - estimated) / estimated < 0.15
    report(9, f"coprime enumeration at L=8: {counted} vs estimate {estimated:.0f}")


def test_c10_kat_stability():
    seed = b"c10-kat-seed"
    for label in kat.KAT_CONFIGS:
        text = kat.emit_kat(seed, label, count=5)
        assert kat.check_kat(text).ok, label

    text = kat.emit_kat(seed, "KEM-V-m3", count=5)
    lines = text.splitlines()
    target = [i for i, line in enumerate(lines) if line.startswith("ct = ")][2]
    name, value = lines[target].split(" = ")
    lines[target] = f"{name} = {'0' if value[0] != '0' else 'f'}{value[1:]}"
    failures = kat.check_kat("\n".join(lines)).failures
    assert failures == [(2, "ct")]
    report(10, "KATs stable across all 9 configurations; corruption located at (2, ct)")
