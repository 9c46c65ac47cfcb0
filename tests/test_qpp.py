import functools
from array import array
import hashlib
import math
import random
import struct

import pytest
from conftest import ZeroEntropy, assert_built_like_the_constructor
from hypothesis import given, settings, strategies as st

from permcrypt import codec, keystream, qpp
from permcrypt.errors import FormatError, ParameterError
from permcrypt.keystream import (
    TAG_QPP_DISPATCH,
    TAG_QPP_PAD,
    TAG_QPP_PRERAND,
    KeystreamState,
)
from permcrypt.qpp import (
    MAX_PAD_SIZE,
    MODE_RANDOM,
    MODE_SEQUENTIAL,
    Permutation,
    PermutationPad,
    blocks_from_bytes,
    bytes_from_blocks,
    decrypt_stream,
    encrypt_stream,
    generate_pad,
    pad_entropy,
)


# --- permutations -----------------------------------------------------------


def test_identity_permutation():
    p = Permutation.identity(4)
    assert all(p.apply(m) == m for m in range(16))
    assert all(p.invert(c) == c for c in range(16))


def test_table_lookup_and_inverse():
    p = Permutation(2, [2, 0, 3, 1])
    assert p.apply(1) == 0
    assert p.invert(0) == 1
    assert all(p.invert(p.apply(m)) == m for m in range(4))


def test_permutation_rejects_non_bijections():
    with pytest.raises(ParameterError):
        Permutation(2, [0, 0, 1, 2])
    with pytest.raises(ParameterError):
        Permutation(2, [0, 1, 2])


def test_permutation_rejects_non_int_entries():
    # 1.0 == 1, so these pass a sort-and-compare bijection check.
    for n, table in ((1, (1.0, 0.0)), (2, (0, 1, 2, 3.0))):
        with pytest.raises(ParameterError, match="not a bijection"):
            Permutation(n, table)
    table = Permutation(1, (True, False)).table
    assert table == (1, 0) and all(type(v) is int for v in table)


def test_apply_rejects_out_of_range():
    p = Permutation.identity(2)
    with pytest.raises(ParameterError):
        p.apply(4)
    with pytest.raises(ParameterError):
        p.invert(-1)


def test_qpp_key_objects_are_frozen():
    # A swapped table would leave its cached inverse stale, and a changed
    # block size would no longer match the tables.
    pad = generate_pad(b"frozen", 8, 2)
    data = bytes(range(256))
    assert decrypt_stream(pad, b"k", encrypt_stream(pad, b"k", data)) == data
    perm = pad.perms[0]
    for obj, name, value in (
        (perm, "table", pad.perms[1].table),
        (perm, "n", 4),
        (pad, "n", 4),
        (pad, "perms", pad.perms[::-1]),
    ):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(obj, name, value)
    assert decrypt_stream(pad, b"k", encrypt_stream(pad, b"k", data)) == data


# len() of these 16-byte views counts 8 items or 4 rows, not bytes.
_WIDE_ITEMS = memoryview(array("H", range(8)))
_ROWS = memoryview(bytes(16)).cast("B", (4, 4))
# Every other byte of eight: one dimension of single bytes, but not contiguous.
_STRIDED = memoryview(b"abcdefgh")[::2]


@pytest.mark.parametrize("call", [
    lambda: Permutation(2.0, (0, 1, 2, 3)),
    lambda: PermutationPad(8, [1]),
    lambda: PermutationPad(8.0, [Permutation.identity(8)]),
    lambda: Permutation.identity(2).apply(1.0),
    lambda: Permutation.identity(2).invert(1.5),
    lambda: generate_pad(b"s", 8, 3.0),
    lambda: codec.encode_qpp_stream(b"ab", 8, 3.0, MODE_RANDOM),
    lambda: pad_entropy(8, 2.5),
    lambda: PermutationPad(8, []),
    lambda: PermutationPad(8, [Permutation.identity(8), Permutation.identity(4)]),
    lambda: decrypt_stream(generate_pad(b"mode", 8, 2), b"k", b"x", "zigzag"),
    lambda: generate_pad("seed", 8, 4),
    lambda: encrypt_stream(generate_pad(b"mode", 8, 2), "k", b"ab"),
    lambda: encrypt_stream(generate_pad(b"mode", 8, 2), b"k", "ab"),
    lambda: decrypt_stream(generate_pad(b"mode", 8, 2), b"k", "ab"),
    lambda: encrypt_stream("pad", b"k", b"ab"),
    lambda: decrypt_stream(None, b"k", b"ab"),
    lambda: encrypt_stream(generate_pad(b"mode", 8, 2), b"k", _WIDE_ITEMS),
    lambda: decrypt_stream(generate_pad(b"mode", 8, 2), b"k", _WIDE_ITEMS),
    lambda: decrypt_stream(generate_pad(b"mode", 8, 2), b"k", _ROWS),
    lambda: codec.encode_qpp_stream(b"ab", 8, 1, {}),
    lambda: generate_pad(_STRIDED, 8, 2),
    lambda: encrypt_stream(generate_pad(b"mode", 8, 2), _STRIDED, b"ab"),
    lambda: encrypt_stream(generate_pad(b"mode", 8, 2), b"k", _STRIDED),
    lambda: decrypt_stream(generate_pad(b"mode", 8, 2), b"k", _STRIDED),
    lambda: codec.decode_pad(_STRIDED),
    lambda: codec.pad_bits(_STRIDED, 8),
], ids=["float-block-size", "non-permutation-member", "float-pad-block-size",
        "float-block-to-apply", "float-block-to-invert", "float-pad-size",
        "float-stream-pad-size", "float-entropy-pad-size", "empty-pad", "mixed-block-sizes",
        "unknown-decrypt-mode", "str-pad-seed", "str-session-key", "str-plaintext",
        "str-ciphertext", "str-pad", "none-pad", "wide-item-plaintext", "wide-item-ciphertext",
        "two-dimensional-ciphertext", "unhashable-stream-mode", "strided-pad-seed",
        "strided-session-key", "strided-plaintext", "strided-ciphertext", "strided-pad-file",
        "strided-padded-message"])
def test_qpp_refuses_bad_arguments_as_parameter_errors(call):
    with pytest.raises(ParameterError):
        call()


def test_generated_permutations_are_injective():
    pad = generate_pad(b"inject", 4, 4)
    for perm in pad.perms:
        assert len(set(perm.apply(m) for m in range(16))) == 16


def test_compose_identity_and_inverse():
    pad = generate_pad(b"compose", 4, 1)
    p = pad.perms[0]
    ident = Permutation.identity(4)
    assert p.compose(ident) == p
    inverse = Permutation(4, [p.invert(c) for c in range(16)])
    assert p.compose(inverse) == ident


def test_compose_order_matters():
    state = KeystreamState(b"non-commute", TAG_QPP_PAD)
    non_commuting = 0
    for _ in range(100):
        p = Permutation(4, state.shuffle(16))
        q = Permutation(4, state.shuffle(16))
        if p.compose(q) != q.compose(p):
            non_commuting += 1
    assert non_commuting >= 99


def test_compose_rejects_mismatched_sizes():
    with pytest.raises(ParameterError):
        Permutation.identity(2).compose(Permutation.identity(3))


@pytest.mark.parametrize("other", [(0, 1, 2, 3), None], ids=["table-tuple", "none"])
def test_compose_refuses_a_non_permutation_naming_it(other):
    with pytest.raises(ParameterError, match="^other must be Permutation, not "):
        Permutation.identity(2).compose(other)


def test_tables_of_one_block_size_share_one_set_of_ints():
    # The forward, inverse and flat tables of a generated pad, a second pad
    # and a decoded copy all point into one set of 4096 int objects.
    pad, other = generate_pad(b"share", 12, 3), generate_pad(b"other", 12, 2)
    decoded = codec.decode_pad(codec.encode_pad(pad))
    entries = [pad._flat_table, pad._inverse._flat_table, Permutation.identity(12).table]
    for each in (pad, pad._inverse, other, other._inverse, decoded, decoded._inverse):
        entries += [p.table for p in each.perms]
    assert len({id(v) for table in entries for v in table}) == 4096


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32))
def test_inverse_equals_the_enumerated_inverse(n, seed):
    perm = Permutation(n, random.Random(seed).sample(range(1 << n), 1 << n))
    expected = [0] * (1 << n)
    for m, c in enumerate(perm.table):
        expected[c] = m
    assert perm._inverse.table == tuple(expected)
    assert perm._inverse.compose(perm) == Permutation.identity(n)


# --- pad generation ---------------------------------------------------------


def test_shuffle_with_zero_draws_is_identity():
    assert ZeroEntropy().shuffle(2) == [0, 1]
    assert ZeroEntropy().shuffle(256) == list(range(256))


def test_generate_pad_hand_trace():
    # Replay the same draw sequence and shuffle by hand.
    pad = generate_pad(b"trace-seed", 2, 1)
    state = KeystreamState(b"trace-seed", TAG_QPP_PAD)
    table = [0, 1, 2, 3]
    for i in range(3):
        j = i + state.next_index(4 - i)
        table[i], table[j] = table[j], table[i]
    assert list(pad.perms[0].table) == table


def _reference_pad_tables(seed, n, size):
    """The per-draw shuffle: one next_index call per Fisher-Yates swap."""
    state = KeystreamState(seed, TAG_QPP_PAD)
    tables = []
    for _ in range(size):
        table = list(range(1 << n))
        for i in range(len(table) - 1):
            j = i + state.next_index(len(table) - i)
            table[i], table[j] = table[j], table[i]
        tables.append(tuple(table))
    return tables


@pytest.mark.parametrize("n", range(1, 13))
def test_generate_pad_matches_per_draw_reference(n):
    for seed in (b"", b"ref-a", b"ref-b" * 20):
        for size in (1, 2, 3, 7):
            pad = generate_pad(seed, n, size)
            assert [p.table for p in pad.perms] == _reference_pad_tables(seed, n, size)


# SHA-256 of encode_pad(generate_pad(b"pad-pin-seed", n, M)), computed with
# one next_index call per Fisher-Yates swap.
PINNED_PADS = {
    (8, 64): "1ef1e9da792a8264e42229198f32e5a77e1bf3622f3032f2c28aeadf0ceb0528",
    (12, 3): "f6e92d262f87431954ac590649936d051f9d2b2fcb45ad24b0b5c050587cfe08",
    (1, 1): "780f9a5272e93118d34cfa4491ad36841f48ddd8d9cdce4919f87521b9689853",
    (5, 300): "3bcf1e98995567c80f3c5ffff6ee364908d65283da7dd6fb917cb7259a70628b",
    (16, 1): "7959e6318a80fd648511c95d4ce753b341899f7c54dfcbefdea3e499421c7e01",
    (3, 7): "e96a9e1d12314d4eb085111db9ba965fb28b7b5cdb266f01f0e0b464253a19fe",
}


@pytest.mark.parametrize("n,size", list(PINNED_PADS))
def test_pad_bytes_are_pinned(n, size):
    encoded = codec.encode_pad(generate_pad(b"pad-pin-seed", n, size))
    assert hashlib.sha256(encoded).hexdigest() == PINNED_PADS[n, size]


@pytest.mark.parametrize("n,size", list(PINNED_PADS))
def test_generate_pad_tables_are_bijections(n, size):
    # generate_pad builds its tables without the constructor's check.
    pad = generate_pad(b"pad-pin-seed", n, size)
    assert all(sorted(p.table) == list(range(1 << n)) for p in pad.perms)


def _constructed(pad):
    """The same pad rebuilt through the checked Permutation and PermutationPad constructors."""
    return PermutationPad(pad.n, [Permutation(pad.n, p.table) for p in pad.perms])


@pytest.mark.parametrize("n,size", [(1, 1), (4, 3), (8, 2), (12, 2)])
def test_pads_built_unchecked_match_the_constructor(n, size):
    # Each pad is fresh, so no cached table or inverse is in its __dict__ yet.
    built = [generate_pad(b"unchecked", n, size), generate_pad(b"unchecked", n, size)._inverse,
             codec.decode_pad(codec.encode_pad(generate_pad(b"unchecked", n, size)))]
    for pad in built:
        assert_built_like_the_constructor(pad, _constructed(pad))


def test_generate_pad_is_deterministic():
    a = generate_pad(b"det", 4, 8)
    b = generate_pad(b"det", 4, 8)
    assert all(x == y for x, y in zip(a.perms, b.perms))


def test_generate_pad_validates_shape(monkeypatch):
    def no_draws(state, size):
        raise AssertionError("drew a table for an invalid shape")

    monkeypatch.setattr(KeystreamState, "shuffle", no_draws)
    with pytest.raises(ParameterError):
        generate_pad(b"s", 0, 1)
    with pytest.raises(ParameterError):
        generate_pad(b"s", 17, 1)
    with pytest.raises(ParameterError):
        generate_pad(b"s", 8, 0)
    with pytest.raises(ParameterError):
        generate_pad(b"s", 8, MAX_PAD_SIZE + 1)


# --- block packing ----------------------------------------------------------


def _reference_blocks(data, n):
    blocks = []
    acc = 0
    acc_bits = 0
    for byte in data:
        acc = (acc << 8) | byte
        acc_bits += 8
        while acc_bits >= n:
            acc_bits -= n
            blocks.append(acc >> acc_bits)
            acc &= (1 << acc_bits) - 1
    return blocks


def _reference_bytes(blocks, n):
    out = bytearray()
    acc = 0
    acc_bits = 0
    for b in blocks:
        acc = (acc << n) | b
        acc_bits += n
        while acc_bits >= 8:
            acc_bits -= 8
            out.append(acc >> acc_bits)
            acc &= (1 << acc_bits) - 1
    return bytes(out)


@pytest.mark.parametrize("n", range(1, 17))
def test_block_packing_round_trip(n):
    state = KeystreamState(b"packing", b"test")
    # One granule, the fewest whole bytes of whole blocks; 24n bits is always whole blocks.
    for length in (0, math.lcm(n, 8) // 8, 3 * n, 3000 * n):
        data = state.next_bytes(length)
        blocks = blocks_from_bytes(data, n)
        assert blocks == _reference_blocks(data, n)
        assert all(b < (1 << n) for b in blocks)
        assert bytes_from_blocks(blocks, n) == data == _reference_bytes(blocks, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_spread_into_16_bit_slots_matches_per_field_reference(n):
    # The flat-table kernel spreads blocks of n < 8 bits this way to build its keys.
    state = KeystreamState(b"spread", b"test")
    for length in (0, math.lcm(n, 8) // 8, 3 * n, 3000 * n):
        data = state.next_bytes(length)
        spread = keystream._spread(data, n, 16)
        slots = struct.unpack(f">{len(spread) // 2}H", spread)
        assert list(slots) == _reference_blocks(data, n)


def test_block_packing_rejects_misalignment():
    with pytest.raises(ParameterError):
        blocks_from_bytes(b"ab", 3)


@pytest.mark.parametrize("call", [
    lambda: bytes_from_blocks([0, 16], 4),  # would spill into its neighbour: b"\x10"
    lambda: bytes_from_blocks([16, 0], 4),  # would overflow the packed integer
    lambda: bytes_from_blocks([-1, 0], 4),
    lambda: bytes_from_blocks([1 << 16], 16),
    lambda: bytes_from_blocks([0, 0], 0),
    lambda: bytes_from_blocks([0] * 8, 17),  # whole bytes, but no 17-bit blocks
    lambda: blocks_from_bytes(b"ab", 0),  # would divide by zero
    lambda: blocks_from_bytes(bytes(17), 17),
    lambda: bytes_from_blocks([1], 3),  # three bits do not fill a byte
], ids=["spilling-block", "overflowing-block", "negative-block", "block-past-16-bits",
        "pack-zero-bits", "pack-17-bits", "split-zero-bits", "split-17-bits",
        "pack-partial-byte"])
def test_block_packing_raises_parameter_error_outside_its_ranges(call):
    with pytest.raises(ParameterError):
        call()


# --- stream cipher ----------------------------------------------------------


_INVERSES = {}  # id(table) -> (table, inverse); holding the table keeps its id unique


def _reference_inverse(table):
    """The table's argsort, which is its inverse: position c holds the m with table[m] == c."""
    if id(table) not in _INVERSES:  # pool pads repeat seven tables up to 512 times
        _INVERSES[id(table)] = (table, sorted(range(len(table)), key=table.__getitem__))
    return _INVERSES[id(table)][1]


def _reference_cipher(pad, seed, data, mode, decrypt):
    """The per-block pipeline: one mask draw and one dispatch draw per block."""
    prerand = KeystreamState(seed, TAG_QPP_PRERAND)
    dispatch = KeystreamState(seed, TAG_QPP_DISPATCH)
    if decrypt:
        tables = [_reference_inverse(p.table) for p in pad.perms]
    else:
        tables = [p.table for p in pad.perms]
    out = []
    for t, block in enumerate(_reference_blocks(data, pad.n)):
        r = prerand.next_bits(pad.n)
        if mode == MODE_SEQUENTIAL:
            i = t % pad.size
        else:
            i = dispatch.next_index(pad.size)
        if decrypt:
            out.append(tables[i][block] ^ r)
        else:
            out.append(tables[i][block ^ r])
    return _reference_bytes(out, pad.n)


@functools.lru_cache(maxsize=None)
def _table_pool(n):
    rnd = random.Random(n)
    return tuple(Permutation(n, rnd.sample(range(1 << n), 1 << n)) for _ in range(7))


def _pool_pad(n, size):
    # Seven random tables reused round-robin keep large pads cheap to build.
    pool = _table_pool(n)
    return PermutationPad(n, [pool[i % len(pool)] for i in range(size)])


def _assert_matches_reference(pad, data, mode):
    ct = encrypt_stream(pad, b"diff", data, mode)
    assert ct == _reference_cipher(pad, b"diff", data, mode, decrypt=False)
    assert decrypt_stream(pad, b"diff", data, mode) == _reference_cipher(
        pad, b"diff", data, mode, decrypt=True
    )
    assert decrypt_stream(pad, b"diff", ct, mode) == data


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_SEQUENTIAL])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 64, 100, 255, 256, 257, 300, 512])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 16])
def test_stream_matches_per_block_reference(n, size, mode, monkeypatch):
    # A 48-byte chunk puts chunk and dispatch-draw boundaries inside short
    # inputs; the longest input is two whole chunks and a partial third.
    # Pad sizes 255, 256 and 257 reject one 8-bit field value, none, and
    # the 9-bit fields from 257 up; 512 keeps every 9-bit field unfiltered.
    monkeypatch.setattr(qpp, "_CHUNK_BYTES", 48)
    granule = math.lcm(n, 8) // 8
    step = 48 - 48 % granule
    pad = _pool_pad(n, size)
    for length in (0, granule, 2 * step + granule):
        data = KeystreamState(b"diff-%d" % length, b"test").next_bytes(length)
        _assert_matches_reference(pad, data, mode)


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_SEQUENTIAL])
@pytest.mark.parametrize("n,size", [(5, 300), (16, 3)])
def test_stream_matches_per_block_reference_over_full_chunks(n, size, mode):
    granule = math.lcm(n, 8) // 8
    step = qpp._CHUNK_BYTES - qpp._CHUNK_BYTES % granule
    length = 2 * step + 7 * granule
    data = KeystreamState(b"diff-full", b"test").next_bytes(length)
    _assert_matches_reference(_pool_pad(n, size), data, mode)


# Random dispatch gathers from one flat table while k = ceil(log2 M) <= 8
# and n + k <= 16; these shapes lie on either side of that rule.
_FLAT_RULE_SHAPES = {
    "n12m16-inside": (12, 16), "n12m17-outside": (12, 17), "n9m128-inside": (9, 128),
    "n8m256-inside": (8, 256), "n8m257-outside": (8, 257), "n16m2-outside": (16, 2),
    "n16m1-round-robin": (16, 1),
}


@pytest.mark.parametrize("n,size", list(_FLAT_RULE_SHAPES.values()), ids=list(_FLAT_RULE_SHAPES))
def test_stream_matches_per_block_reference_across_the_flat_table_rule(n, size, monkeypatch):
    monkeypatch.setattr(qpp, "_CHUNK_BYTES", 48)
    granule = math.lcm(n, 8) // 8
    step = 48 - 48 % granule
    pad = _pool_pad(n, size)
    for length in (0, granule, 2 * step + granule):
        data = KeystreamState(b"flat-%d" % length, b"test").next_bytes(length)
        _assert_matches_reference(pad, data, MODE_RANDOM)


# The kernel rules change at M = 2**k (no field rejected) and 2**k + 1 (one
# more field bit), and at 256 and 257, where the fields outgrow a byte.
_EDGE_SIZES = sorted({1 << k for k in range(11)} | {(1 << k) + 1 for k in range(10)})


@st.composite
def _stream_cases(draw):
    n = draw(st.sampled_from(range(1, 17)))
    size = draw(st.one_of(
        st.sampled_from(_EDGE_SIZES), st.sampled_from((256, 257)), st.integers(1, 1024)
    ))
    granule = math.lcm(n, 8) // 8
    units = draw(st.sampled_from(range(3 * (48 // granule) + 1)))  # up to three 48-byte chunks
    data = draw(st.binary(min_size=units * granule, max_size=units * granule))
    mode = draw(st.sampled_from((MODE_RANDOM, MODE_SEQUENTIAL)))
    return n, size, data, mode, draw(st.booleans())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_stream_cases())
def test_stream_matches_per_block_reference_over_drawn_shapes(case):
    n, size, data, mode, decrypt = case
    pad = _pool_pad(n, size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qpp, "_CHUNK_BYTES", 48)
        cipher = decrypt_stream if decrypt else encrypt_stream
        got = cipher(pad, b"drawn", data, mode)
    assert got == _reference_cipher(pad, b"drawn", data, mode, decrypt)


# SHA-256 of the ciphertext of 20481 seeded bytes (2.5 pipeline chunks),
# computed with the per-block implementation the pipeline replaced.
PINNED_CIPHERTEXTS = {
    (8, 64, MODE_RANDOM):
        "656d3d839a2cee4c9b28ef28441925b16c8715f4f6a878e91a58ec7fe976be07",
    (8, 64, MODE_SEQUENTIAL):
        "e4d4e90d2b0878143220d79cd59c4945d3b48ea0767f72fa1d7f5b509e736200",
    (12, 3, MODE_RANDOM):
        "005f446aad9d04f8608a231089acf15526d4a94406cf56de62bff38603f611e3",
    (12, 3, MODE_SEQUENTIAL):
        "c309b6d019c1a7d9b82128bf82bc8ffa01a6714114c40083921fca4321c52c60",
    (1, 1, MODE_RANDOM):
        "c31b98a3b6c15773c063eaf05811cb01852120ccd5616eea28baf1b94151ae27",
    (1, 1, MODE_SEQUENTIAL):
        "c31b98a3b6c15773c063eaf05811cb01852120ccd5616eea28baf1b94151ae27",
    # A byte period of 3 with two tables per byte, and a period of 300,
    # above the limit for phase tables.
    (4, 6, MODE_SEQUENTIAL):
        "508b437b7ee47b7a2655f8e907b0e98f8562c714de0b018f9fa2fd1fb06c140b",
    (8, 300, MODE_SEQUENTIAL):
        "74a5f5f14691f4eb33d3934e3ebb9de88aeee2207beefe374d69254962afff15",
}


@pytest.mark.parametrize("n,size,mode", list(PINNED_CIPHERTEXTS))
def test_ciphertext_is_pinned(n, size, mode):
    pad = generate_pad(b"qpp-pin-pad", n, size)
    data = KeystreamState(b"qpp-pin-data", b"test").next_bytes(20481)
    ct = encrypt_stream(pad, b"qpp-pin-session", data, mode)
    assert hashlib.sha256(ct).hexdigest() == PINNED_CIPHERTEXTS[n, size, mode]
    assert decrypt_stream(pad, b"qpp-pin-session", ct, mode) == data


def _kernels(pad, mode):
    """The names of the kernels that encryption and decryption pick for pad."""
    return {qpp._kernel(p, b"k", mode, 0).__name__ for p in (pad, pad._inverse)}


def test_round_robin_dispatch_over_whole_bytes_uses_phase_tables():
    # Digests alone would still pass if these shapes fell back to per-block
    # dispatch, so each must pick the phase tables in both directions.
    data = KeystreamState(b"phase-path", b"test").next_bytes(20481)
    for n, size, mode in ((8, 64, MODE_SEQUENTIAL), (4, 6, MODE_SEQUENTIAL), (1, 1, MODE_RANDOM)):
        pad = generate_pad(b"phase-path", n, size)
        assert _kernels(pad, mode) == {"translate_phases"}, (n, size, mode)
        ct = encrypt_stream(pad, b"k", data, mode)
        assert decrypt_stream(pad, b"k", ct, mode) == data
    # A byte period of 257 is above the limit, so it takes the per-block path.
    assert _kernels(generate_pad(b"phase-path", 8, 257), MODE_SEQUENTIAL) == {"per_block"}


def test_random_dispatch_inside_the_flat_table_rule_gathers():
    # As above: each shape must pick the flat gather in both directions.
    data = KeystreamState(b"flat-path", b"test").next_bytes(20481 - 20481 % 9)
    for n, size in ((8, 64), (8, 2), (8, 256), (4, 6), (1, 2), (12, 3), (12, 16), (9, 128)):
        pad = _pool_pad(n, size)
        assert _kernels(pad, MODE_RANDOM) == {"gather_flat"}, (n, size)
        ct = encrypt_stream(pad, b"k", data, MODE_RANDOM)
        assert decrypt_stream(pad, b"k", ct, MODE_RANDOM) == data
    # M > 256, or n + k > 16, keeps the per-block path.
    for n, size in ((8, 257), (12, 17), (16, 2)):
        assert _kernels(_pool_pad(n, size), MODE_RANDOM) == {"per_block"}, (n, size)


@pytest.mark.parametrize("wrap", [memoryview, bytearray])
@pytest.mark.parametrize("n,size,mode", [
    (8, 64, MODE_SEQUENTIAL), (4, 6, MODE_SEQUENTIAL), (1, 1, MODE_RANDOM), (8, 64, MODE_RANDOM),
], ids=["n8m64-sequential", "n4m6-sequential", "n1m1-random", "n8m64-random"])
def test_stream_accepts_bytes_like_input(n, size, mode, wrap):
    # The first three take the phase tables, which substitute by bytes.translate.
    pad = generate_pad(b"bytes-like", n, size)
    data = KeystreamState(b"bytes-like", b"test").next_bytes(20481)
    ct = encrypt_stream(pad, b"k", data, mode)
    assert encrypt_stream(pad, b"k", wrap(data), mode) == ct
    assert decrypt_stream(pad, b"k", wrap(ct), mode) == data


def _record_squeezes(monkeypatch) -> list:
    """The output length of every SHAKE-256 squeeze from here on, in order."""
    lengths = []
    shake = hashlib.shake_256

    class Recording:
        def __init__(self, material):
            self._xof = shake(material)

        def digest(self, n):
            lengths.append(n)
            return self._xof.digest(n)

    monkeypatch.setattr(hashlib, "shake_256", Recording)
    return lengths


def test_encrypt_stream_squeezes_its_mask_once(monkeypatch):
    # Sequential mode has no dispatch stream, so the mask is the only squeeze.
    pad = generate_pad(b"one-squeeze", 8, 64)
    lengths = _record_squeezes(monkeypatch)
    encrypt_stream(pad, b"k", bytes(20000), MODE_SEQUENTIAL)
    assert lengths == [20000]


def test_random_dispatch_squeezes_only_the_fields_a_chunk_needs(monkeypatch):
    # M = 64 rejects no 6-bit field, so 6144 blocks need 6144 * 6 / 8 bytes.
    pad = generate_pad(b"one-squeeze", 8, 64)
    lengths = _record_squeezes(monkeypatch)
    encrypt_stream(pad, b"k", bytes(6144), MODE_RANDOM)
    assert lengths == [6144, 4608]


def test_rejecting_dispatch_fills_a_chunk_from_one_squeeze(monkeypatch):
    # M = 3 rejects a quarter of the 2-bit fields; the refill's margin covers
    # the spread of that count, so no key squeezes its dispatch stream twice.
    for i in range(20):
        pad = generate_pad(b"margin %d" % i, 12, 3)
        lengths = _record_squeezes(monkeypatch)
        encrypt_stream(pad, b"key %d" % i, bytes(6144), MODE_RANDOM)
        monkeypatch.undo()
        assert len(lengths) == 2, (i, lengths)


# The pad shapes that the CI workflow generates.
CI_PAD_SHAPES = [(8, 64), (12, 3), (16, 1), (8, 300), (8, 512),
                 (4, 6), (7, 5), (13, 7), (16, 4), (1, 1)]


@pytest.mark.parametrize("n,size", CI_PAD_SHAPES, ids=[f"n{n}m{m}" for n, m in CI_PAD_SHAPES])
def test_generate_pad_squeezes_its_stream_once(monkeypatch, n, size):
    # 1.5 n-bit fields per table entry, the shuffle's read-ahead rate, or the
    # 256-byte floor of a squeeze.
    lengths = _record_squeezes(monkeypatch)
    for i in range(20):
        generate_pad(b"pad squeeze %d" % i, n, size)
    assert lengths == [max(size * 3 * (n << n) // 16, 256)] * 20


def _fixed_text(nbytes: int, n: int) -> bytes:
    """The text of `yes permcrypt`, cut to whole n-bit blocks."""
    nbytes -= nbytes % qpp._granule(n)
    return (b"permcrypt\n" * (nbytes // 10 + 1))[:nbytes]


@pytest.mark.parametrize("n,size,nbytes", [
    (8, 64, 100003), (12, 3, 100003), (8, 300, 100003), (8, 512, 100003), (4, 6, 100003),
    (7, 5, 100003), (13, 7, 100003), (16, 4, 100003), (8, 64, 1048579), (12, 3, 1048579),
])
def test_random_streams_squeeze_mask_and_dispatch_once(monkeypatch, n, size, nbytes):
    # Inputs of many chunks: every refill reads from the one dispatch squeeze.
    # With M = 2**k that squeeze is the blocks' k-bit fields in whole granules.
    pad = generate_pad(b"beef", n, size)
    data = _fixed_text(nbytes, n)
    blocks, k = 8 * len(data) // n, (size - 1).bit_length()
    fields_per_granule = math.lcm(k, 8) // k
    granules = -(-blocks // fields_per_granule)
    for key in (b"c0ffee", b"other key"):
        lengths = _record_squeezes(monkeypatch)
        ct = encrypt_stream(pad, key, data, MODE_RANDOM)
        assert len(lengths) == 2 and lengths[0] == len(data), (key, lengths)
        if size == 1 << k:
            assert lengths[1] == granules * math.lcm(k, 8) // 8
        lengths.clear()
        assert decrypt_stream(pad, key, ct, MODE_RANDOM) == data
        monkeypatch.undo()
        assert len(lengths) == 2 and lengths[0] == len(data), (key, lengths)


def test_encrypt_empty_is_empty():
    pad = generate_pad(b"empty", 8, 4)
    assert encrypt_stream(pad, b"k", b"") == b""
    assert decrypt_stream(pad, b"k", b"") == b""


def test_identity_pad_and_zero_streams_pass_through():
    # Identity tables leave only the mask layer, whatever the dispatch.
    data = b"plain text blocks"
    mask = KeystreamState(b"k", TAG_QPP_PRERAND).next_bytes(len(data))
    masked = bytes(a ^ b for a, b in zip(data, mask))
    for size, mode in ((1, MODE_RANDOM), (3, MODE_RANDOM), (3, MODE_SEQUENTIAL)):
        pad = PermutationPad(8, [Permutation.identity(8)] * size)
        assert encrypt_stream(pad, b"k", data, mode) == masked


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_SEQUENTIAL])
@pytest.mark.parametrize("n,size", [(1, 1), (3, 5), (4, 8), (8, 64), (12, 3)])
def test_stream_round_trip(n, size, mode):
    pad = generate_pad(b"round-trip", n, size)
    data = KeystreamState(b"payload", b"test").next_bytes(3 * n)
    ct = encrypt_stream(pad, b"session", data, mode)
    assert len(ct) == len(data)
    assert decrypt_stream(pad, b"session", ct, mode) == data


def test_modes_produce_different_ciphertexts():
    pad = generate_pad(b"modes", 8, 8)
    data = bytes(range(64))
    assert encrypt_stream(pad, b"k", data, MODE_RANDOM) != encrypt_stream(
        pad, b"k", data, MODE_SEQUENTIAL
    )


def test_one_key_shows_which_blocks_of_two_files_are_equal():
    # QPP1 carries no nonce: under one pad and key, block i of every file
    # meets the same mask and the same table, so equal plaintext blocks
    # give equal ciphertext blocks and unequal ones stay unequal.
    pad = generate_pad(b"no-nonce", 8, 64)
    rnd = random.Random(4096)
    a = rnd.randbytes(4096)
    b = bytes(x if i % 3 == 0 else x ^ rnd.randrange(1, 256) for i, x in enumerate(a))
    ca, cb = encrypt_stream(pad, b"one key", a), encrypt_stream(pad, b"one key", b)
    assert [i for i in range(4096) if ca[i] == cb[i]] == list(range(0, 4096, 3))


def test_wrong_seed_fails_to_decrypt():
    pad = generate_pad(b"seeded", 8, 8)
    data = b"super secret payload"
    ct = encrypt_stream(pad, b"right", data)
    assert decrypt_stream(pad, b"wrong", ct) != data


def test_encrypt_rejects_misaligned_input():
    pad = generate_pad(b"align", 3, 2)
    with pytest.raises(ParameterError):
        encrypt_stream(pad, b"k", b"ab")
    with pytest.raises(FormatError):
        decrypt_stream(pad, b"k", b"ab")


def test_unknown_mode_rejected():
    pad = generate_pad(b"mode", 8, 2)
    with pytest.raises(ParameterError):
        encrypt_stream(pad, b"k", b"x", "zigzag")


def test_single_bit_pipeline_equals_xor_otp():
    # With one identity permutation the dispatch layer is forced and the
    # substitution vanishes, leaving exactly the XOR of the mask stream.
    pad = PermutationPad(1, [Permutation.identity(1)])
    r = KeystreamState(b"otp", TAG_QPP_PRERAND).next_bytes(1)[0]
    for m in range(256):  # exhaustive eight-block inputs
        assert encrypt_stream(pad, b"otp", bytes([m])) == bytes([m ^ r])
    data = b"byte-level check"
    mask = KeystreamState(b"otp", TAG_QPP_PRERAND).next_bytes(len(data))
    expected = bytes(a ^ b for a, b in zip(data, mask))
    assert encrypt_stream(pad, b"otp", data) == expected


def test_single_bit_ciphertext_uniform_over_seeds():
    # Fixed one-block plaintext, fresh seed per encryption: the ciphertext
    # bit must be balanced, as a one-time pad demands.
    pad = PermutationPad(1, [Permutation.identity(1)])
    ones = sum(
        encrypt_stream(pad, b"u%d" % i, b"\x80")[0] >> 7 for i in range(2000)
    )
    assert abs(ones - 1000) < 3 * (2000 * 0.25) ** 0.5


# --- entropy ----------------------------------------------------------------


def test_entropy_known_figures():
    assert round(pad_entropy(8, 1)) == 1684
    assert round(pad_entropy(8, 64)) == 107776
    assert pad_entropy(8, 64) > 100_000
    assert pad_entropy(1, 1) == 1.0
    assert pad_entropy(8, 1, "arithmetic") == 15.0


def test_entropy_rejects_bad_kind():
    with pytest.raises(ParameterError):
        pad_entropy(8, 1, "vibes")
