"""Exception hierarchy and the argument checks shared by every permcrypt module."""

from itertools import repeat
from operator import attrgetter


class PermcryptError(Exception):
    """Base class for all errors raised by this package."""


class NotInvertibleError(PermcryptError):
    """Modular inverse requested for a non-coprime pair."""


class ParameterError(PermcryptError):
    """An argument violates an operation's stated precondition."""


class FormatError(PermcryptError):
    """Malformed serialized data. `offset` is the byte position when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class GenerationError(PermcryptError):
    """Key generation could not complete (entropy failure or resample limit)."""


class DecapsulationError(PermcryptError):
    """Ciphertext could not be decapsulated (malformed or degenerate input)."""


class SigningError(PermcryptError):
    """Message hash is degenerate for this key; the message cannot be signed."""


def _check_type(value, kind: type, name: str) -> None:
    """Refuse an argument of the wrong type as a ParameterError naming it."""
    if not isinstance(value, kind):
        raise ParameterError(f"{name} must be {kind.__name__}, not {type(value).__name__}")


def _check_bytes(value, name: str) -> None:
    """Refuse anything but bytes, a bytearray or a flat, contiguous memoryview of single bytes."""
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise ParameterError(f"{name} must be bytes, not {type(value).__name__}")
    # len() of any other view counts items or rows, not bytes; a strided one has no flat buffer.
    if isinstance(value, memoryview) and (
            value.itemsize != 1 or value.ndim != 1 or not value.c_contiguous):
        raise ParameterError(f"{name} must be a flat memoryview of single bytes")


def _check_ints(values, name: str) -> None:
    """Refuse a field that is not a tuple of ints as a ParameterError naming it."""
    if not isinstance(values, tuple) or not all(map(isinstance, values, repeat(int))):
        raise ParameterError(f"{name} must be a tuple of int")


def _check_magic(data: bytes, magic: bytes, header_len: int) -> None:
    """Refuse an envelope whose first bytes are not `magic` or that ends inside its header."""
    # A prefix of the magic is a truncated envelope, not a foreign one.
    if not magic.startswith(data[:4]):
        raise FormatError("bad magic", offset=0)
    if len(data) < header_len:
        raise FormatError("truncated input", offset=len(data))


def _check_length(data: bytes, size: int) -> None:
    """The one length check once a header has fixed the envelope's size."""
    if len(data) < size:
        raise FormatError("truncated input", offset=len(data))
    if len(data) > size:
        raise FormatError("trailing bytes after payload", offset=size)


_new = object.__new__
_writer = object.__setattr__.__get__  # obj's own object.__setattr__, past _Frozen's refusal


class _Frozen:
    """Base of the immutable value objects: `_fields` names the constructor's arguments in order.

    Equality and hash cover those fields alone, as one tuple, so attributes
    derived in `__init__` and cached properties in `__dict__` take no part.
    Assignment and deletion raise AttributeError naming the field; only `_bind` writes fields.
    """

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls._fields)  # a tuple, for two or more fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"


def _bind(obj, fields: tuple, derived: dict | None = None):
    """Write `obj`'s attributes once: `fields` in `_fields` order, then `derived`.

    `object.__setattr__` keeps them in the inline values that CPython reads fastest;
    a bound writer and an index loop cost less than zip or unbound calls."""
    write = _writer(obj)
    i = 0
    for name in type(obj)._fields:
        write(name, fields[i])
        i += 1
    for name in derived or ():
        write(name, derived[name])
    return obj


def _unchecked(cls, *fields, **derived):
    """A new `cls` bound without `__init__`: how the library builds what it decodes or computes.

    A checked constructor runs only on the fields a caller hands in."""
    return _bind(_new(cls), fields, derived)
