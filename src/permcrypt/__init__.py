"""Permutation-based cryptography: a pad cipher over n-bit blocks plus
hidden-ring public-key schemes for key encapsulation and signatures.

Prototype quality: no constant-time guarantees, no authenticated
encryption, the one-noise KEM that the CLI runs is not IND-CPA (pk and a
ciphertext give its secret by lattice reduction), and a key's vk alone
exposes both hidden ring moduli, and with them pk.
"""

from .errors import (
    DecapsulationError,
    FormatError,
    GenerationError,
    NotInvertibleError,
    ParameterError,
    PermcryptError,
    SigningError,
)
from .hidden_ring import RingOperator, count_coprime_pairs, encrypt_coefficients, new_operator
from .hppk_ds import DsVerificationKey, Signature, ds_keygen, ds_params, sign, verify
from .hppk_kem import (
    KemCiphertext,
    KemParams,
    KemPrivateKey,
    KemPublicKey,
    attack_complexity,
    decapsulate,
    encapsulate,
    kem_params,
    keygen,
)
from .keystream import KeystreamState, hash_to_field
from .qpp import (
    Permutation,
    PermutationPad,
    decrypt_stream,
    encrypt_stream,
    generate_pad,
    pad_entropy,
)
from .ring_arith import inv_mod, mul_mod

__version__ = "0.1.0"
