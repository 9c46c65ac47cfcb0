"""Permutation-based cryptography: a pad cipher over n-bit blocks plus
hidden-ring public-key schemes for key encapsulation and signatures.

The package re-exports nothing; import each name from its own module:
`qpp` and `keystream` (the pad cipher), `ring_arith`, `hidden_ring`,
`hppk_kem` and `hppk_ds` (the public-key schemes), `codec`, `kat`,
`errors` and `cli`.

Prototype quality: no constant-time guarantees, no authenticated
encryption, and lattice attacks on public data break the shipped HPPK
sets (see the README's attack paragraphs and tests/test_attacks.py).
"""
