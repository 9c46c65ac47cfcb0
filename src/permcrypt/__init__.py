"""Permutation-based cryptography: a pad cipher over n-bit blocks plus
hidden-ring public-key schemes for key encapsulation and signatures.

The package re-exports nothing; import each name from its own module:
`qpp` and `keystream` (the pad cipher), `ring_arith`, `hidden_ring`,
`hppk_kem` and `hppk_ds` (the public-key schemes), `codec`, `kat`,
`errors` and `cli`.

Prototype quality: no constant-time guarantees, no authenticated
encryption, the one-noise KEM that the CLI runs is not IND-CPA (pk and a
ciphertext give its secret by lattice reduction), and a key's vk alone
exposes both hidden ring moduli, and with them pk, and yields signatures
that verify accepts (tests/test_attacks.py runs both).  The two- and
three-noise KEM sets are no safer: an attack run outside the tests
(ROADMAP.md's Baseline table) took their secret from pk plus a
ciphertext.
"""
