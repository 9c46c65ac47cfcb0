"""Modular multiplication and inversion on plain integers.

Python's `int` is exact at any width, so these helpers only check their
operands' preconditions and name the non-invertible case.
"""

from __future__ import annotations

from .errors import NotInvertibleError, ParameterError


def mul_mod(a: int, b: int, s: int) -> int:
    """a*b mod s, exact.  Requires int operands, a, b < s and s > 0."""
    if not isinstance(s, int) or s <= 0:
        raise ParameterError("modulus must be a positive int")
    if not isinstance(a, int) or not isinstance(b, int) or not 0 <= a < s or not 0 <= b < s:
        raise ParameterError("operands must lie in [0, modulus)")
    return a * b % s


def inv_mod(a: int, s: int) -> int:
    """Multiplicative inverse of a modulo s; requires ints, gcd(a, s) = 1, s > 1."""
    if not isinstance(s, int) or s <= 1:
        raise ParameterError("modulus must be an int above 1")
    if not isinstance(a, int) or a < 0:
        raise ParameterError("operand must be a non-negative int")
    try:
        return pow(a, -1, s)
    except ValueError as exc:
        raise NotInvertibleError(f"gcd({a}, {s}) != 1") from exc
