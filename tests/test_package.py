import copy
import functools
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from permcrypt.errors import ParameterError
from permcrypt.hidden_ring import RingOperator, count_coprime_pairs, new_operator
from permcrypt.hppk_ds import DsVerificationKey, Signature, ds_keygen, ds_params, sign, verify
from permcrypt.hppk_kem import (
    KemCiphertext, KemParams, KemPrivateKey, KemPublicKey, attack_complexity, encapsulate,
)
from permcrypt.keystream import (
    TAG_HPPK_HASH, TAG_HPPK_KEYGEN, TAG_HPPK_U, KeystreamState, hash_to_field,
)
from permcrypt.qpp import Permutation, PermutationPad, generate_pad

SRC = Path(__file__).resolve().parents[1] / "src"


def test_importing_the_package_loads_no_module():
    # Every name lives in its own module; the package re-exports nothing.
    script = ("import json, sys, permcrypt; print(json.dumps([permcrypt.__file__, "
              "sorted(m for m in sys.modules if m.startswith('permcrypt.'))]))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    location, loaded = json.loads(out)
    assert Path(location).resolve() == SRC / "permcrypt" / "__init__.py"
    assert loaded == []


@pytest.mark.parametrize("call", [
    lambda: KeystreamState(b"s", b"t").next_bits(2.0),
    lambda: KeystreamState(b"s", b"t").next_bytes(1.5),
    lambda: KeystreamState(b"s", b"t").shuffle(4.0),
    lambda: KeystreamState(b"s", b"t").next_index(3.0),
    lambda: RingOperator(3.0, 7),
    lambda: RingOperator(3, 7.0),
    lambda: RingOperator(3, 7).apply(2.0),
    lambda: RingOperator(3, 7).invert(2.0),
    lambda: new_operator(KeystreamState(b"s", b"t"), 72.0),
    lambda: count_coprime_pairs(4.0),
    lambda: attack_complexity(72.5),
    lambda: hash_to_field(b"m", 7.0, 32),
    lambda: KemParams(7.0, 2),
    lambda: KemParams(4294967291, 2.0),
], ids=["next-bits", "next-bytes", "shuffle", "next-index", "ring-multiplier", "ring-modulus",
        "ring-apply", "ring-invert", "new-operator-bits", "coprime-pair-bits",
        "attack-ring-bits", "field-modulus", "kem-prime", "kem-noise-count"])
def test_non_int_arguments_outside_qpp_are_parameter_errors(call):
    # The QPP counterparts are in test_qpp.
    with pytest.raises(ParameterError):
        call()


@functools.cache
def _ds_session():
    params = ds_params("I")
    sk, _, vk = ds_keygen(params, KeystreamState(b"bytes-rule", TAG_HPPK_KEYGEN))
    sig = sign(sk, params, b"m", KeystreamState(b"bytes-rule", TAG_HPPK_HASH), vk=vk)
    return sk, vk, params, sig


@pytest.mark.parametrize("call", [
    lambda: KeystreamState("s", b"t"),
    lambda: KeystreamState(b"s", "t"),
    lambda: KeystreamState(b"s", 5),
    lambda: hash_to_field("m", 7, 32),
    lambda: sign(_ds_session()[0], _ds_session()[2], "m", KeystreamState(b"s", TAG_HPPK_HASH)),
    lambda: verify(_ds_session()[1], _ds_session()[2], "m", _ds_session()[3]),
    lambda: KeystreamState(memoryview(b"seed")[::2], b"t"),
    lambda: hash_to_field(memoryview(b"message")[::2], 7, 32),
    lambda: sign(_ds_session()[0], _ds_session()[2], memoryview(b"message")[::2],
                 KeystreamState(b"s", TAG_HPPK_HASH), vk=_ds_session()[1]),
    lambda: verify(_ds_session()[1], _ds_session()[2], memoryview(b"message")[::2],
                   _ds_session()[3]),
], ids=["str-seed", "str-tag", "int-tag", "str-hashed-message", "str-signed-message",
        "str-verified-message", "strided-seed", "strided-hashed-message",
        "strided-signed-message", "strided-verified-message"])
def test_non_bytes_arguments_outside_qpp_are_parameter_errors(call):
    # The QPP counterparts are in test_qpp.
    with pytest.raises(ParameterError):
        call()


@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_bytes_like_arguments_act_as_bytes(wrap):
    expected = KeystreamState(b"seed", b"tag").next_bytes(64)
    assert KeystreamState(wrap(b"seed"), wrap(b"tag")).next_bytes(64) == expected
    assert hash_to_field(wrap(b"m"), 2**61 - 1, 32) == hash_to_field(b"m", 2**61 - 1, 32)
    sk, vk, params, sig = _ds_session()
    assert verify(vk, params, wrap(b"m"), sig)


# --- the value objects' contract ----------------------------------------------

_VALUE_CLASSES = (KemParams, RingOperator, KemPrivateKey, KemPublicKey, KemCiphertext,
                  Signature, DsVerificationKey, Permutation, PermutationPad)


def _value_object(cls):
    """A fresh seeded object of a value class: from a DS-I key set, or a 4-bit pad of three."""
    params = ds_params("I")
    sk, pk, vk = ds_keygen(params, KeystreamState(b"contract", TAG_HPPK_KEYGEN))
    _, ct = encapsulate(pk, params, KeystreamState(b"contract", TAG_HPPK_U))
    sig = sign(sk, params, b"m", KeystreamState(b"contract", TAG_HPPK_HASH), vk=vk)
    pad = generate_pad(b"contract", 4, 3)
    return {KemParams: params, RingOperator: sk.ring1, KemPrivateKey: sk, KemPublicKey: pk,
            KemCiphertext: ct, Signature: sig, DsVerificationKey: vk,
            Permutation: pad.perms[1], PermutationPad: pad}[cls]


_each_class = pytest.mark.parametrize("cls", _VALUE_CLASSES, ids=lambda cls: cls.__name__)


@_each_class
def test_value_objects_compare_and_hash_as_their_constructor_arguments(cls):
    obj = _value_object(cls)
    names = list(inspect.signature(cls).parameters)
    args = tuple(getattr(obj, name) for name in names)
    assert obj == cls(*args) == cls(**dict(zip(names, args)))
    assert hash(obj) == hash(args)


def test_value_objects_of_different_classes_are_unequal():
    assert KemCiphertext(3, 5) != Signature(3, 5)
    assert KemCiphertext(3, 5) != (3, 5)


@_each_class
def test_value_objects_refuse_assignment_and_deletion(cls):
    obj = _value_object(cls)
    before = dict(vars(obj))
    for name in before:  # the constructor's fields and every attribute derived from them
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert vars(obj) == before and obj == _value_object(cls)


@_each_class
def test_value_objects_survive_pickle_deepcopy_and_repr(cls):
    obj = _value_object(cls)
    for again in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj),
                  eval(repr(obj), {c.__name__: c for c in _VALUE_CLASSES})):
        assert type(again) is cls and again == obj and hash(again) == hash(obj)


def test_cached_tables_take_no_part_in_equality_or_hash():
    pad, fresh = _value_object(PermutationPad), _value_object(PermutationPad)
    filled = pad._inverse, pad._flat_table, pad._phase_tables, pad.perms[0]._inverse
    assert all(filled) and {"_inverse", "_flat_table", "_phase_tables"} <= set(vars(pad))
    assert pad == fresh and hash(pad) == hash(fresh)
    assert pad.perms[0] == fresh.perms[0] and hash(pad.perms[0]) == hash(fresh.perms[0])
