"""Attacks that run against the shipped keys; each test pins a leak the docs state."""

import pytest

from permcrypt.hppk_ds import ds_keygen, ds_params
from permcrypt.keystream import TAG_HPPK_KEYGEN, KeystreamState


def _flat(matrix):
    return [v for row in matrix for v in row]


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
            entry, q = max(zip(_flat(matrix), _flat(quot)))
            assert (entry << vk.shift_bits) // q == ring.modulus
