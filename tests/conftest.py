"""Shared helpers for the test suite."""

from permcrypt.errors import _Frozen
from permcrypt.keystream import KeystreamState


def replace(obj, **changes):
    """A copy of a value object with `changes`, rebuilt through its public, checked constructor."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def assert_built_like_the_constructor(got, built):
    """`got` equals and hashes like `built`, and so do its derived attributes, down to plain ints.

    `==` compares fields alone, so `vars()` is what catches a wrong derived
    value such as a ring operator's `multiplier_inv` or `bits`.
    """
    assert type(got) is type(built)
    assert got == built and hash(got) == hash(built)
    assert vars(got).keys() == vars(built).keys()
    for name, value in vars(got).items():
        if isinstance(value, _Frozen):
            assert_built_like_the_constructor(value, getattr(built, name))
            continue
        assert value == getattr(built, name)
        values = value if isinstance(value, tuple) else (value,)
        assert type(value) in (tuple, int) and all(type(v) is int for v in values)


class ScriptedEntropy:
    """Entropy stub replaying a fixed list of next_index results."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.pos = 0

    def next_index(self, bound):
        value = self.draws[self.pos]
        self.pos += 1
        assert 0 <= value < bound, "scripted draw out of bounds"
        return value


class ZeroEntropy(KeystreamState):
    """Keystream whose every draw is zero; it still counts the bits it reads."""

    def __init__(self):
        super().__init__(b"", b"zero")

    def next_bits(self, k):
        super().next_bits(k)
        return 0

    def next_bytes(self, n):
        super().next_bytes(n)
        return bytes(n)
