"""Permutation-pad symmetric cipher over n-bit blocks.

A pad is an ordered list of secret bijections on [0, 2**n).  Encryption
XOR-masks each block with keystream bits, dispatches it to one of the pad's
permutations, and substitutes through its table; decryption inverts the two
layers in reverse order.  For comparison, pad_entropy also gives the far
smaller key space of affine maps x -> (a*x + b) mod 2**n with odd a.
Pad and stream files use the QPP1 envelope defined here, and bit padding
fills a message out to whole blocks; `codec` re-exports both.
"""

from __future__ import annotations

import math
import struct
from functools import cached_property
from itertools import chain, cycle, islice, repeat
from operator import getitem, itemgetter

from .errors import (
    FormatError, ParameterError, _check_bytes, _check_length, _check_magic, _check_type,
    _Frozen, _setattr, _unchecked,
)
from .keystream import (
    TAG_QPP_DISPATCH,
    TAG_QPP_PAD,
    TAG_QPP_PRERAND,
    KeystreamState,
    _field_bytes,
    _join,
    _ordered,
    _split,
    _spread,
)

MIN_BLOCK_BITS = 1
MAX_BLOCK_BITS = 16
MAX_PAD_SIZE = 0xFFFF  # the pad size is a u16 in the QPP1 header

# Bytes per pipeline chunk (rounded down to whole blocks): bounds the
# per-chunk working set while keeping the per-chunk overhead small.
_CHUNK_BYTES = 8192
# Longest byte period that gets phase tables: at most 64 KiB per pad.
_MAX_PERIOD = 256

MODE_RANDOM = "random"
MODE_SEQUENTIAL = "sequential"
_MODES = (MODE_RANDOM, MODE_SEQUENTIAL)

MAGIC_QPP = b"QPP1"
QPP_VERSION_PAD = 0x01
QPP_VERSION_STREAM = 0x02
_MODE_CODE = {MODE_RANDOM: 0, MODE_SEQUENTIAL: 1}
_MODE_FROM_CODE = {v: k for k, v in _MODE_CODE.items()}
_QPP_HEADER_LEN = 8  # magic, version, block size n, pad size M (2)


def _check_block_bits(n: int) -> None:
    if not isinstance(n, int) or not MIN_BLOCK_BITS <= n <= MAX_BLOCK_BITS:
        raise ParameterError(f"block size must be in [{MIN_BLOCK_BITS}, {MAX_BLOCK_BITS}] bits")


def _granule(n: int) -> int:
    """The fewest whole bytes that hold whole n-bit blocks: chunk and padding unit."""
    _check_block_bits(n)
    return math.lcm(n, 8) // 8


class Permutation(_Frozen):
    """Bijection on [0, 2**n) stored as a lookup table.

    The checked constructor stores the entries as the ints of the shared
    tuple(range(2**n)), so a decoded table of bools holds ints.
    """

    _fields = ("n", "table")

    def __init__(self, n: int, table: tuple):
        _setattr(self, "n", n)
        _setattr(self, "table", table)
        _check_block_bits(self.n)
        table = tuple(self.table)
        # 1.0 == 1, so the sort alone would pass a table of integral floats.
        ints = all(map(isinstance, table, repeat(int)))
        blocks = _ordered(1 << self.n)
        if not ints or sorted(table) != list(blocks):
            raise ParameterError("table is not a bijection on the block range")
        _setattr(self, "table", tuple(map(blocks.__getitem__, table)))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, range(1 << n))

    @cached_property  # written straight into __dict__, so freezing does not block it
    def _inverse(self) -> "Permutation":
        """The inverse table, filled from the shared tuple(range(2**n)) like the tables."""
        blocks = _ordered(len(self.table))
        inv = [0] * len(blocks)
        for c, m in zip(self.table, blocks):
            inv[c] = m
        return _unchecked(Permutation, self.n, tuple(inv))

    def apply(self, m: int) -> int:
        if not isinstance(m, int) or not 0 <= m < len(self.table):
            raise ParameterError("block out of range")
        return self.table[m]

    def invert(self, c: int) -> int:
        """The block m with apply(m) == c: apply through the inverse permutation."""
        return self._inverse.apply(c)

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation applying `other` first, then self."""
        if self.n != other.n:
            raise ParameterError("cannot compose permutations of different sizes")
        return Permutation(self.n, tuple(self.table[v] for v in other.table))


class PermutationPad(_Frozen):
    """Ordered list of permutations sharing one block size."""

    _fields = ("n", "perms")

    def __init__(self, n: int, perms: tuple):
        _setattr(self, "n", n)
        _setattr(self, "perms", perms)
        _check_block_bits(self.n)
        perms = tuple(self.perms)
        if not perms:
            raise ParameterError("pad must hold at least one permutation")
        if any(not isinstance(p, Permutation) or p.n != self.n for p in perms):
            raise ParameterError("all pad members must be permutations of one block size")
        _setattr(self, "perms", perms)

    @property
    def size(self) -> int:
        return len(self.perms)

    @cached_property
    def _phase_tables(self) -> tuple:
        return _compose_phases([p.table for p in self.perms], self.n)

    @cached_property
    def _inverse(self) -> "PermutationPad":
        """The pad of the members' inverses, in order: the decryption key."""
        return PermutationPad(self.n, (p._inverse for p in self.perms))

    @cached_property
    def _flat_table(self):
        """The tables end to end, entry (i << n) | b being tables[i][b]; bytes for n <= 8.

        None unless k = ceil(log2 M) <= 8 and n + k <= 16, so a 16-bit key reaches it all.
        """
        k = (self.size - 1).bit_length()
        if k > 8 or self.n + k > 16:
            return None
        tables = [p.table for p in self.perms]
        return b"".join(map(bytes, tables)) if self.n <= 8 else tuple(chain.from_iterable(tables))


def generate_pad(seed: bytes, n: int, size: int) -> PermutationPad:
    """Derive a pad of `size` permutations from the seed.

    Each table is an unbiased forward Fisher-Yates shuffle of the ordered
    block range, drawn by one KeystreamState.shuffle call on the pad-tagged
    keystream; the result is a pure function of the seed and equals one
    next_index call per swap.  The shuffled tables are bijections by
    construction, so they are not checked again.  Every table, its inverse
    and the flat table point into one shared set of ints per block size.
    The stream is squeezed once, to 1.5 n-bit fields per table entry: the
    rate at which the shuffle reads ahead, which its draws seldom pass.
    """
    _check_block_bits(n)
    if not isinstance(size, int) or not 1 <= size <= MAX_PAD_SIZE:
        raise ParameterError(f"pad size must be in [1, {MAX_PAD_SIZE}]")
    state = KeystreamState(seed, TAG_QPP_PAD)
    state._squeeze(size * 3 * (n << n) // 16)
    tables = (state.shuffle(1 << n) for _ in range(size))
    return PermutationPad(n, (_unchecked(Permutation, n, tuple(t)) for t in tables))


def blocks_from_bytes(data: bytes, n: int) -> list:
    """Split data into n-bit blocks, most-significant bit first."""
    _check_block_bits(n)
    if (8 * len(data)) % n:
        raise ParameterError("data length is not a whole number of blocks")
    return list(_split(data, n))


def bytes_from_blocks(blocks, n: int) -> bytes:
    """Pack n-bit blocks back into bytes (inverse of blocks_from_bytes)."""
    _check_block_bits(n)
    if (n * len(blocks)) % 8:
        raise ParameterError("block count does not fill whole bytes")
    if blocks and (min(blocks) < 0 or max(blocks) >> n):
        raise ParameterError(f"block value outside [0, 2**{n})")
    return _join(blocks, n, len(blocks))


def _compose_phases(tables: list, n: int) -> tuple:
    """One byte table per phase of round-robin dispatch's byte period, or ().

    With g = 8/n blocks per byte, byte j meets the g tables from (j*g) mod M
    on, a run that repeats every M / gcd(M, g) bytes.  Empty when n does not
    divide 8 or that period exceeds _MAX_PERIOD.
    """
    size, g = len(tables), 8 // n
    period = size // math.gcd(size, g)
    if 8 % n or period > _MAX_PERIOD:
        return ()
    fields = _split(bytes(range(256)), n)
    runs = ([tables[(p * g + i) % size] for i in range(g)] for p in range(period))
    return tuple(_join(map(getitem, cycle(run), fields), n, len(fields)) for run in runs)


def _draw_indices(size: int, seed: bytes, blocks: int):
    """A function from a count to the next `count` random dispatch indices.

    It reproduces one next_index(M) call per block in bulk: the dispatch
    stream is consecutive k = ceil(log2 M)-bit fields, and rejection sampling
    only drops the fields >= M.  The indices are sliced from a pending buffer
    (bytes for k <= 8, else a tuple) that a refill tops up with the
    ceil(shortfall * 2**k / M) fields it needs on average, in whole bytes.
    When M rejects fields, the refill adds 2 * sqrt of that many, at least
    four standard deviations of the rejected count, so it seldom falls short
    and reads again.  The stream is squeezed once, to the fields that
    `blocks` indices need on average plus twice that margin; only a run of
    rejections past it squeezes the stream again from its start.
    """
    stream = KeystreamState(seed, TAG_QPP_DISPATCH)
    k = (size - 1).bit_length()
    pending = b"" if k <= 8 else ()
    spare = 0 if size == 1 << k else 2  # fields per sqrt(want) when M rejects

    def to_read(count, margin):  # the fields that yield count indices, plus margin * sqrt
        want = -(-(count << k) // size)
        return want + margin * math.isqrt(want)

    if blocks:  # twice the margin: the last refill can end one margin past the blocks' fields
        stream._squeeze(_field_bytes(k, to_read(blocks, 2 * spare)))

    def take(count):
        nonlocal pending
        while len(pending) < count:
            fields = stream._read_fields(k, to_read(count - len(pending), spare))
            if k <= 8:  # one byte per field: translate deletes those >= M in C
                fields = fields.translate(None, bytes(range(size, 1 << k)))
            elif size != 1 << k:
                fields = tuple(filter(size.__gt__, fields))
            pending += fields
        chosen, pending = pending[:count], pending[count:]
        return chosen

    return take


def _xor(chunk: bytes, mask: bytes) -> bytes:
    return (int.from_bytes(chunk, "big") ^ int.from_bytes(mask, "big")).to_bytes(
        len(chunk), "big"
    )


def _kernel(pad, seed, mode, blocks):
    """The function substitute(chunk, start) for pad under mode: the one choice of kernel.

    Round-robin dispatch (sequential mode, or M = 1) with n dividing 8 takes
    one strided bytes.translate per phase of its byte period M / gcd(M, 8/n),
    through the pad's cached byte tables, while that period is at most
    _MAX_PERIOD bytes.  Random dispatch slices each chunk's indices from one
    pending buffer (_draw_indices); with k = ceil(log2 M) <= 8 and
    n + k <= 16 it gathers the chunk from the pad's flat table by 16-bit
    keys (index << n) | block.  Every other shape takes one pass over the
    blocks.  The function owns the dispatch state, so it must meet the
    chunks in order; start is the chunk's byte offset, and `blocks` is the
    input's block count, to which the dispatch stream is squeezed.
    """
    n = pad.n
    round_robin = mode == MODE_SEQUENTIAL or pad.size == 1
    phases = pad._phase_tables if round_robin else ()
    flat = None if round_robin else pad._flat_table
    draw = None if round_robin else _draw_indices(pad.size, seed, blocks)
    if phases:
        period = len(phases)

        def translate_phases(chunk, start):  # one strided translate per byte phase
            if period == 1:
                return chunk.translate(phases[0])
            out = bytearray(len(chunk))
            for p in range(min(period, len(chunk))):
                out[p::period] = chunk[p::period].translate(phases[(start + p) % period])
            return out

        return translate_phases
    if flat is not None:

        def gather_flat(chunk, start):  # one gather by 16-bit keys (index << n) | block
            count = 8 * len(chunk) // n
            keys = bytearray(2 * count)
            if n == 8:
                keys[0::2], keys[1::2] = draw(count), chunk
            else:
                keys[1::2] = draw(count)
                blocks = int.from_bytes(_spread(chunk, n, 16), "big")
                keys = (int.from_bytes(keys, "big") << n | blocks).to_bytes(2 * count, "big")
            found = itemgetter(*struct.unpack(f">{count}H", keys))(flat)
            return _join(found if count > 1 else (found,), n, count)  # one key: no tuple

        return gather_flat
    tables = [p.table for p in pad.perms]
    cycled = cycle(tables)  # islice takes exactly count: map would draw one more

    def per_block(chunk, start):
        count = 8 * len(chunk) // n
        chosen = islice(cycled, count) if round_robin else map(tables.__getitem__, draw(count))
        return _join(map(getitem, chosen, _split(chunk, n)), n, count)

    return per_block


def _run_pipeline(pad, seed, data, mode, decrypt) -> bytes:
    """Check the arguments, then mask and substitute; decryption unmasks last."""
    if not isinstance(pad, PermutationPad):
        raise ParameterError(f"pad must be a PermutationPad, not {type(pad).__name__}")
    if mode not in _MODES:
        raise ParameterError(f"unknown dispatch mode {mode!r}")
    name = "ciphertext" if decrypt else "plaintext"
    _check_bytes(data, name)
    if (8 * len(data)) % pad.n:
        # A misaligned ciphertext is a malformed file, not a caller's mistake.
        error = FormatError if decrypt else ParameterError
        raise error(f"{name} is not a whole number of blocks")
    # Block i is masked by stream bits [i*n, (i+1)*n), so the mask is the
    # stream's first len(data) bytes, squeezed once and sliced like the data.
    masks = KeystreamState(seed, TAG_QPP_PRERAND).next_bytes(len(data))
    substitute = _kernel(pad._inverse if decrypt else pad, seed, mode, 8 * len(data) // pad.n)
    step = _CHUNK_BYTES - _CHUNK_BYTES % _granule(pad.n)
    out = bytearray()
    for start in range(0, len(data), step):
        chunk, mask = data[start:start + step], masks[start:start + step]
        if decrypt:
            out += _xor(substitute(bytes(chunk), start), mask)  # memoryview has no translate
        else:
            out += substitute(_xor(chunk, mask), start)
    return bytes(out)


def encrypt_stream(
    pad: PermutationPad, seed: bytes, plaintext: bytes, mode: str = MODE_RANDOM
) -> bytes:
    """Encrypt block-aligned plaintext; output length equals input length.

    Per block: XOR with the next n prerandomization bits, pick a pad
    permutation from the dispatch stream (or round-robin in sequential
    mode), and substitute through its table.  The mask is one squeeze of
    len(plaintext) prerandomization bytes, and random dispatch squeezes its
    stream once, to the fields the input's blocks need.  The work runs in
    fixed-size chunks, but the mask, the dispatch stream's buffer and the
    output grow with the input.
    """
    return _run_pipeline(pad, seed, plaintext, mode, decrypt=False)


def decrypt_stream(
    pad: PermutationPad, seed: bytes, ciphertext: bytes, mode: str = MODE_RANDOM
) -> bytes:
    """Exact inverse of encrypt_stream under the same pad, seed, and mode.

    It is the same pipeline over the inverse pad, whose members are the
    inverse tables, except that each chunk is unmasked after substitution.
    """
    return _run_pipeline(pad, seed, ciphertext, mode, decrypt=True)


def pad_entropy(n: int, size: int, kind: str = "matrix") -> float:
    """Key-space entropy of a pad, in bits.

    Matrix pads draw each table from all (2**n)! permutations; affine pads
    only from the 2**(2n-1) odd-multiplier maps, hence the collapse.
    """
    _check_block_bits(n)
    if not isinstance(size, int) or size < 1:
        raise ParameterError("pad size must be at least 1")
    if kind == "matrix":
        return size * math.fsum(math.log2(k) for k in range(2, (1 << n) + 1))
    if kind == "arithmetic":
        return float(size * (2 * n - 1))
    raise ParameterError(f"unknown pad kind {kind!r}")


# ---------------------------------------------------------------------------
# QPP1 envelope and bit padding


def _slot_bits(n: int) -> int:
    """Bits per table entry in a pad file: a whole byte or two."""
    return 8 * -(-n // 8)


def _qpp_header(version: int, n: int, size: int) -> bytes:
    _check_block_bits(n)
    if not isinstance(size, int) or not 1 <= size <= MAX_PAD_SIZE:
        raise ParameterError(f"pad size {size} does not fit the QPP1 header")
    return MAGIC_QPP + bytes([version, n]) + size.to_bytes(2, "big")


def _read_qpp_header(data: bytes, version: int, kind: str, header_len: int):
    """Magic, version, block size n (offset 5) and pad size M (u16, offset 6)."""
    _check_bytes(data, f"{kind} file")
    _check_magic(data, MAGIC_QPP, header_len)
    if data[4] != version:
        raise FormatError(f"not a {kind} file", offset=4)
    n = data[5]
    if not MIN_BLOCK_BITS <= n <= MAX_BLOCK_BITS:
        raise FormatError(
            f"block size {n} not in [{MIN_BLOCK_BITS}, {MAX_BLOCK_BITS}]", offset=5
        )
    size = int.from_bytes(data[6:8], "big")
    if size < 1:
        raise FormatError("pad size must be at least 1", offset=6)
    return n, size


def encode_pad(pad: PermutationPad) -> bytes:
    _check_type(pad, PermutationPad, "pad")
    slot = _slot_bits(pad.n)
    header = _qpp_header(QPP_VERSION_PAD, pad.n, pad.size)
    return header + b"".join(bytes_from_blocks(perm.table, slot) for perm in pad.perms)


def decode_pad(data: bytes) -> PermutationPad:
    """Reads each table whole; Permutation's bijection check is its only check."""
    n, size = _read_qpp_header(data, QPP_VERSION_PAD, "pad", _QPP_HEADER_LEN)
    slot = _slot_bits(n)
    table_len = (slot // 8) << n
    _check_length(data, _QPP_HEADER_LEN + size * table_len)
    perms = []
    for at in range(_QPP_HEADER_LEN, len(data), table_len):
        try:
            perms.append(Permutation(n, blocks_from_bytes(data[at:at + table_len], slot)))
        except ParameterError as exc:
            raise FormatError(str(exc), offset=at) from exc
    return PermutationPad(n, perms)


def encode_qpp_stream(body: bytes, n: int, pad_size: int, mode: str) -> bytes:
    if mode not in _MODE_CODE:
        raise ParameterError(f"unknown dispatch mode {mode!r}")
    _check_bytes(body, "stream body")
    header = _qpp_header(QPP_VERSION_STREAM, n, pad_size)
    if (8 * len(body)) % n:
        raise ParameterError("stream body is not a whole number of blocks")
    return header + bytes([_MODE_CODE[mode]]) + body


def decode_qpp_stream(data: bytes):
    """The body, n, pad size and mode; the header is the pad's plus a mode byte."""
    start = _QPP_HEADER_LEN + 1
    n, pad_size = _read_qpp_header(data, QPP_VERSION_STREAM, "stream", start)
    mode = _MODE_FROM_CODE.get(data[_QPP_HEADER_LEN])
    if mode is None:
        raise FormatError(
            f"unknown dispatch mode code {data[_QPP_HEADER_LEN]}", offset=_QPP_HEADER_LEN
        )
    body = bytes(data[start:])
    if (8 * len(body)) % n:
        raise FormatError("stream body is not a whole number of blocks", offset=start)
    return body, n, pad_size, mode


def pad_bits(data: bytes, n: int) -> bytes:
    """Append a 1 bit then zeros, out to whole blocks and whole bytes.

    Always adds at least one bit, so unpadding is unambiguous.  Because the
    input is whole bytes, the marker lands on a byte boundary.
    """
    _check_bytes(data, "message")
    group = _granule(n)
    return bytes(data) + b"\x80" + bytes(group - 1 - len(data) % group)


def unpad_bits(data: bytes, n: int) -> bytes:
    """Exact inverse of pad_bits: whole granules, the last ending in the marker then zeros."""
    _check_bytes(data, "padded message")
    data, group = bytes(data), _granule(n)
    last = max(len(data) - (len(data) % group or group), 0)  # the last granule, whole or not
    marker = last + len(data[last:].rstrip(b"\x00")) - 1
    if len(data) % group or marker < last or data[marker] != 0x80:
        raise FormatError("missing bit-padding marker", offset=max(marker, last))
    return data[:marker]
