"""Permutation-based cryptography: a pad cipher over n-bit blocks plus
hidden-ring public-key schemes for key encapsulation and signatures.

The package re-exports nothing; import each name from its own module:
`qpp` and `keystream` (the pad cipher, its QPP1 files and bit padding),
`ring_arith`, `hidden_ring`, `hppk_kem` and `hppk_ds` (the public-key
schemes), `codec` (their HPK1 files; it re-exports qpp's file names and
loads qpp on first use), `kat`, `errors` and `cli`, whose commands each
load only the modules they run.  The key, ciphertext, signature and
parameter objects are immutable plain classes, not dataclasses: build a
changed copy with the keyword constructor, not `dataclasses.replace`.

Prototype quality: no constant-time guarantees, no authenticated
encryption, and lattice attacks on public data break the shipped HPPK
sets (see the README's attack paragraphs and tests/test_attacks.py).
"""
