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
    """Refuse anything but bytes, a bytearray or a flat memoryview of single bytes."""
    if not isinstance(value, (bytes, bytearray, memoryview)):
        raise ParameterError(f"{name} must be bytes, not {type(value).__name__}")
    # len() of any other view counts items or rows, not bytes.
    if isinstance(value, memoryview) and (value.itemsize != 1 or value.ndim != 1):
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


_setattr = object.__setattr__  # how a frozen object's own __init__ writes its fields


class _Frozen:
    """Base of the immutable value objects: `_fields` names the constructor's arguments in order.

    Equality and hash cover those fields alone, as one tuple, so attributes
    derived in `__init__` and cached properties in `__dict__` take no part.
    Assignment and deletion raise AttributeError naming the field.
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


def _unchecked(cls, *fields):
    """A `_Frozen` object of `cls` from fields its caller has checked, without `__init__`.

    Decoders use it on range-checked fields, the HPPK schemes on values they
    compute that hold the checks by construction; public construction keeps them all.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        _setattr(obj, name, value)
    return obj
