import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from permcrypt.errors import ParameterError
from permcrypt.keystream import (
    TAG_QPP_DISPATCH,
    TAG_QPP_PAD,
    KeystreamState,
    hash_to_field,
)

# chi-square critical value at the 0.999 level, 51 degrees of freedom
CHI2_999_DF51 = 87.968


def test_equal_seed_and_tag_repeat_exactly():
    a = KeystreamState(b"seed", b"tag")
    b = KeystreamState(b"seed", b"tag")
    for k in (1, 3, 8, 13, 64, 1000):
        assert a.next_bits(k) == b.next_bits(k)


def test_distinct_tags_diverge_within_128_bits():
    a = KeystreamState(b"seed", TAG_QPP_PAD)
    b = KeystreamState(b"seed", TAG_QPP_DISPATCH)
    assert a.next_bits(128) != b.next_bits(128)


def test_tag_length_prefix_blocks_boundary_shifts():
    # (tag="ab", seed="c") and (tag="a", seed="bc") concatenate identically;
    # the length prefix must still separate them.
    a = KeystreamState(b"c", b"ab")
    b = KeystreamState(b"bc", b"a")
    assert a.next_bits(128) != b.next_bits(128)


def test_monobit_frequency_over_a_megabyte():
    state = KeystreamState(b"monobit", b"test")
    nbits = 8 * 10**6
    ones = state.next_bits(nbits).bit_count()
    sigma = (nbits * 0.25) ** 0.5
    assert abs(ones - nbits / 2) < 3 * sigma


def test_domain_tag_is_at_most_255_bytes():
    # The tag's length is one prefix byte of the SHAKE input.
    KeystreamState(b"", bytes(255))
    with pytest.raises(ParameterError, match="domain tag longer than 255 bytes"):
        KeystreamState(b"", bytes(256))


def test_next_bits_requires_positive_count():
    with pytest.raises(ParameterError):
        KeystreamState(b"s", b"t").next_bits(0)


def test_next_index_bound_one_consumes_nothing():
    state = KeystreamState(b"s", b"t")
    assert state.next_index(1) == 0
    assert state.next_bits(64) == KeystreamState(b"s", b"t").next_bits(64)


def test_next_index_power_of_two_is_a_raw_draw():
    a = KeystreamState(b"s", b"t")
    b = KeystreamState(b"s", b"t")
    for k in (1, 3, 6, 10):
        assert a.next_index(1 << k) == b.next_bits(k)


def test_next_index_never_reaches_bound():
    state = KeystreamState(b"bounds", b"test")
    for bound in (2, 3, 5, 52, 100, 257):
        assert all(state.next_index(bound) < bound for _ in range(500))


def test_next_index_uniformity_chi_square():
    state = KeystreamState(b"chi-square", b"test")
    bound = 52
    draws = 10**6
    counts = [0] * bound
    for _ in range(draws):
        counts[state.next_index(bound)] += 1
    expected = draws / bound
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert stat < CHI2_999_DF51


def _per_draw_shuffle(draw, size):
    """Forward Fisher-Yates with one draw(bound) call per swap."""
    table = list(range(size))
    for i in range(size - 1):
        j = i + draw(size - i)
        table[i], table[j] = table[j], table[i]
    return table


@pytest.mark.parametrize("lead_bits", [0, 5])
def test_shuffle_leaves_the_stream_where_per_draw_swaps_do(lead_bits):
    # One state shuffles every table size in turn; after each table the
    # next draw must read the bits the per-draw swaps would leave next.
    fused = KeystreamState(b"fused", b"test")
    single = KeystreamState(b"fused", b"test")
    if lead_bits:
        assert fused.next_bits(lead_bits) == single.next_bits(lead_bits)
    # 5 to 33 sit around the last 16 bounds, which the shuffle cuts from 128-bit windows.
    for size in [1 << n for n in (*range(1, 13), 16)] + [1, 3, 300, 5, 9, 16, 17, 31, 33]:
        assert fused.shuffle(size) == _per_draw_shuffle(single.next_index, size)
        assert fused.next_bits(64) == single.next_bits(64)


def test_shuffle_tail_takes_fresh_windows_where_per_draw_swaps_do(monkeypatch):
    # A stream of nine one-bits in ten rejects most tail draws, so the last
    # 16 bounds need more than one 128-bit window.
    rng = random.Random(16)
    stream = bytes(rng.choices(range(256), [0.1 ** (8 - b.bit_count()) * 0.9 ** b.bit_count()
                                            for b in range(256)], k=1 << 16))

    class Biased:
        def __init__(self, material):
            pass

        def digest(self, n):
            return stream[:n]

    monkeypatch.setattr(hashlib, "shake_256", Biased)
    fused = KeystreamState(b"biased", b"test")
    single = KeystreamState(b"biased", b"test")
    windows = []
    read = fused.next_bits
    fused.next_bits = lambda k: windows.append(k) or read(k)
    for size in (2, 5, 16, 17, 33, 16, 9, 300):
        assert fused.shuffle(size) == _per_draw_shuffle(single.next_index, size)
        assert fused.next_bits(7) == single.next_bits(7)
    assert windows.count(128) >= 8 + 8  # 8 tails, and at least 8 second windows


def test_changing_a_returned_shuffle_leaves_the_next_one_unchanged():
    # Every shuffle starts from one cached tuple(range(size)); the list it
    # returns must be the caller's own.
    for size in (4096, 300, 2):
        KeystreamState(b"alias", b"test").shuffle(size).reverse()
        got = KeystreamState(b"alias", b"test").shuffle(size)
        assert got == _per_draw_shuffle(KeystreamState(b"alias", b"test").next_index, size)


def test_shuffle_rejects_sizes_wider_than_16_bit_fields():
    state = KeystreamState(b"s", b"t")
    with pytest.raises(ParameterError):
        state.shuffle((1 << 16) + 1)
    assert state.next_bits(32) == KeystreamState(b"s", b"t").next_bits(32)


def test_shuffle_rejects_a_negative_size_and_arranges_size_zero_as_empty():
    state = KeystreamState(b"s", b"t")
    with pytest.raises(ParameterError):
        state.shuffle(-1)
    assert state.shuffle(0) == []
    assert state.next_bits(32) == KeystreamState(b"s", b"t").next_bits(32)


def test_next_bytes_matches_bitwise_reads():
    a = KeystreamState(b"s", b"t")
    b = KeystreamState(b"s", b"t")
    assert a.next_bytes(16) == b.next_bits(128).to_bytes(16, "big")
    # misaligned path
    a.next_bits(3)
    b.next_bits(3)
    assert a.next_bytes(5) == b.next_bits(40).to_bytes(5, "big")


def test_next_bytes_rejects_negative_counts_and_reads_nothing_for_zero():
    for lead in (0, 3):  # byte-aligned, then not
        state, ref = KeystreamState(b"s", b"t"), KeystreamState(b"s", b"t")
        if lead:
            state.next_bits(lead)
            ref.next_bits(lead)
        assert state.next_bytes(4) == ref.next_bytes(4)
        with pytest.raises(ParameterError):
            state.next_bytes(-2)
        assert state.next_bytes(0) == b""
        assert state.next_bytes(2) == ref.next_bytes(2)


_DRAWS = st.one_of(
    st.tuples(st.just("bits"), st.integers(1, 70)),
    st.tuples(st.just("bytes"), st.integers(0, 40)),
    st.tuples(st.just("index"), st.integers(1, 1 << 40)),
    st.tuples(st.just("shuffle"), st.integers(0, 300)),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(length=st.integers(0, 4096), draws=st.lists(_DRAWS, max_size=24))
def test_a_state_squeezed_ahead_draws_what_a_fresh_one_draws(length, draws):
    # A shorter SHAKE-256 output is a prefix of a longer one, so squeezing
    # to any bound before the first draw changes no draw and no position,
    # whether the draws stop short of the bound or run past it.
    fresh, ahead = KeystreamState(b"ahead", b"t"), KeystreamState(b"ahead", b"t")
    ahead._squeeze(length)
    for kind, arg in draws:
        method = {"bits": "next_bits", "bytes": "next_bytes",
                  "index": "next_index", "shuffle": "shuffle"}[kind]
        assert getattr(ahead, method)(arg) == getattr(fresh, method)(arg), (kind, arg)
        assert ahead._bit == fresh._bit


class _ShakeBits:
    """The stream by its definition: SHAKE-256 of len(tag) || tag || seed,
    read most-significant bit first, with rejection-sampled indices."""

    def __init__(self, seed: bytes, tag: bytes, nbytes: int):
        digest = hashlib.shake_256(bytes([len(tag)]) + tag + seed).digest(nbytes)
        # One character per bit: a read slices k characters instead of
        # shifting the whole digest, which stays cheap on long runs.
        self.text = format(int.from_bytes(digest, "big"), f"0{8 * nbytes}b")
        self.pos = 0

    def bits(self, k: int) -> int:
        self.pos += k
        assert self.pos <= len(self.text)
        return int(self.text[self.pos - k:self.pos], 2)

    def index(self, bound: int) -> int:
        k = (bound - 1).bit_length()
        while k:
            v = self.bits(k)
            if v < bound:
                return v
        return 0


def test_stream_matches_shake256_definition():
    # A seeded mix of every draw, read past the 256-, 512- and 1024-byte
    # re-squeeze sizes, against the SHAKE-256 output bits themselves.
    seed, tag = b"definition", TAG_QPP_PAD
    ref = _ShakeBits(seed, tag, 4096)
    state = KeystreamState(seed, tag)
    rng = random.Random(2024)
    seen = set()
    while ref.pos < 8 * 2400:
        op = rng.choice(("bits", "bytes", "aligned bytes", "index", "shuffle"))
        if op == "aligned bytes" and ref.pos % 8:
            skip = -ref.pos % 8
            assert state.next_bits(skip) == ref.bits(skip)
        if op == "bytes" and ref.pos % 8 == 0:
            op = "aligned bytes"
        seen.add(op)
        if op == "bits":
            k = rng.randint(1, 70)
            assert state.next_bits(k) == ref.bits(k)
        elif op.endswith("bytes"):
            n = rng.randint(1, 40)
            assert state.next_bytes(n) == ref.bits(8 * n).to_bytes(n, "big")
        elif op == "index":
            bound = rng.randint(1, 1 << rng.randint(1, 40))
            assert state.next_index(bound) == ref.index(bound)
        else:
            size = rng.randint(1, 300)
            assert state.shuffle(size) == _per_draw_shuffle(ref.index, size)
    assert seen == {"bits", "bytes", "aligned bytes", "index", "shuffle"}


def _check_index_run(bounds, lead_bits):
    # The run starts lead_bits into the stream, on a byte boundary or off
    # it; afterwards every kind of read must take the bits that follow the
    # last draw.
    ref = _ShakeBits(b"widths", b"test", 4 * len(bounds) + 1024)
    state = KeystreamState(b"widths", b"test")
    if lead_bits:
        assert state.next_bits(lead_bits) == ref.bits(lead_bits)
    assert [state.next_index(b) for b in bounds] == [ref.index(b) for b in bounds]
    assert state.next_bits(13) == ref.bits(13)
    assert state.next_bytes(5) == ref.bits(40).to_bytes(5, "big")
    assert state.next_index(300) == ref.index(300)
    assert state.next_bytes(700) == ref.bits(8 * 700).to_bytes(700, "big")


def test_next_index_matches_shake256_definition_across_widths():
    # Widths above 16 bits, exactly 2**16, and bound 1 (no bits) between
    # draws; then every power-of-two width up to 2**16 (raw draws), a long
    # run of one width, and a width that changes every draw.  Each from a
    # byte boundary and off it.
    mixed = [70000, 3, 1 << 20, 1, 1 << 16, 65535, 1, 2, (1 << 40) + 1, 1 << 17, 5] * 4
    runs = [1 << k for k in range(1, 17)] * 3 + [3] * 200 + [2, 65536, 300, 255, 7] * 20
    for bounds in (mixed, runs):
        for lead in (0, 3, 13):
            _check_index_run(bounds, lead)


BULK_BOUNDS = [
    [1],
    [2] * 100,
    [1 << k for k in range(1, 17)] * 3,
    [3] * 200,
    [300] * 50,
    [65536] * 9,
    list(range(4096, 0, -1)),
    [1, 2, 3, 4, 5, 300, 1, 65536, 255, 7, 1] * 20,
    # One width run that reads fields several times.
    pytest.param([3] * 5000, id="one-run-5000-draws"),
    # The bounds of every Fisher-Yates table size.
    *(pytest.param(list(range(1 << k, 1, -1)), id=f"table-{1 << k}") for k in range(1, 17)),
    pytest.param([2, 65536] * 50, id="width-changes-every-draw"),
    pytest.param([70000, 3, 1 << 20, 1 << 20, 5] * 4, id="widths-above-16-bits"),
]


@pytest.mark.parametrize("bounds", BULK_BOUNDS, ids=lambda b: f"{len(b)}-draws")
@pytest.mark.parametrize("lead_bits", [0, 3, 13])
def test_next_indices_matches_next_index(bounds, lead_bits):
    # A run of next_index draws over each list against the SHAKE-256
    # definition.  The name and IDs date from a removed bulk draw that these
    # cases once compared with next_index; they are kept so each case keeps
    # its history.
    _check_index_run(bounds, lead_bits)


def test_next_index_rejects_a_bound_below_one_without_drawing():
    state = KeystreamState(b"s", b"t")
    for bound in (0, -5):
        with pytest.raises(ParameterError):
            state.next_index(bound)
    assert state.next_bits(64) == KeystreamState(b"s", b"t").next_bits(64)


# --- hash_to_field ----------------------------------------------------------


def test_hash_empty_message_mod_two_is_digest_parity():
    parity = int.from_bytes(hashlib.sha3_256(b"").digest(), "big") % 2
    assert hash_to_field(b"", 2, 32) == parity


def test_hash_abc_pinned_value():
    # SHA3-256("abc") reduced into the 64-bit field used at level I.
    p = 18446744073709551557
    assert hash_to_field(b"abc", p, 32) == 17808542827521643092


def test_hash_single_bit_flip_changes_field_element():
    p = 18446744073709551557
    assert hash_to_field(b"abc", p, 32) != hash_to_field(b"abd", p, 32)


def test_hash_digest_widths():
    p = 2**127 - 1
    values = {hash_to_field(b"msg", p, width) for width in (32, 48, 64)}
    assert len(values) == 3
    with pytest.raises(ParameterError):
        hash_to_field(b"msg", p, 40)


def test_hash_rejects_an_unhashable_digest_width_as_a_parameter_error():
    with pytest.raises(ParameterError, match="unsupported digest width"):
        hash_to_field(b"msg", 2**127 - 1, [])
