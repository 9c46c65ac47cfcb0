"""Shared helpers for the test suite."""

from permcrypt.keystream import KeystreamState


def replace(obj, **changes):
    """A copy of a value object with `changes`, rebuilt through its public, checked constructor."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


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
