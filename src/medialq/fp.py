"""Exact arithmetic modulo small primes.

Everything here is plain machine-integer arithmetic; there is no floating
point anywhere in the package.  Scalars are ints reduced into [0, p-1] and
the modulus travels alongside them.  `_Frozen`, the base of the package's
immutable value classes, lives here too, as every other module imports this
one.
"""

from __future__ import annotations

import math
import operator

# Primes are capped so that exhaustive p**4-scale scans stay tractable.
MAX_PRIME = 1 << 15


def as_integer(v) -> int:
    """v as an int, through `operator.index`: ints and numpy ints; no floats, strings or rounding."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{v!r} is not an integer") from None


class _Frozen:
    """Base of the package's immutable value classes, written out instead of generated at import.

    A subclass names its fields in `_fields`, and its `__init__` stores them
    with `object.__setattr__`; after that, assigning or deleting an
    attribute raises AttributeError.  Instances are equal when they are of
    the same class and their fields are equal, in order, and hash as the
    tuple of their fields; a subclass that compares by identity sets
    `__eq__` and `__hash__` back to `object`'s.  `repr` shows the fields as
    `Name(field=value, ...)`.
    """

    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def _least_factor(n: int, cap: int | None = None) -> int:
    """The least factor d >= 2 of n >= 2, by trial division up to sqrt(n) and `cap`; n if none is found."""
    limit = math.isqrt(n) if cap is None else min(math.isqrt(n), cap)
    return next((d for d in range(2, limit + 1) if n % d == 0), n)


class Prime(int):
    """A prime modulus, validated by trial division at construction."""

    def __new__(cls, p: int) -> "Prime":
        if isinstance(p, Prime):  # checked when it was made
            return p
        p = as_integer(p)
        if p < 2:
            raise ValueError(f"{p} is not a prime")
        if p > MAX_PRIME:
            raise ValueError(f"prime {p} exceeds the supported cap {MAX_PRIME}")
        if _least_factor(p) != p:
            raise ValueError(f"{p} is not a prime")
        return super().__new__(cls, p)

    def __repr__(self) -> str:
        return f"Prime({int(self)})"

    def __str__(self) -> str:
        return str(int(self))


def prime_power(n: int) -> tuple:
    """(p, k) with n = p^k, k >= 1 and p a `Prime`; a ValueError naming n otherwise.

    Trial division stops at the prime cap, so any n is settled in bounded time.
    """
    n = as_integer(n)
    if n < 2:
        raise ValueError(f"{n} is not a prime power")
    p = _least_factor(n, MAX_PRIME)
    if p > MAX_PRIME:
        raise ValueError(f"{n} is not a power of a prime within the supported cap {MAX_PRIME}")
    m, k = n, 0
    while m % p == 0:
        m, k = m // p, k + 1
    if m != 1:
        raise ValueError(f"{n} is not a prime power")
    return Prime(p), k


def fp_inv(x: int, p: int) -> int:
    """Multiplicative inverse of x modulo the prime p."""
    if x % p == 0:
        raise ValueError(f"{x} is not invertible mod {p}")
    return pow(x, -1, p)


def is_irreducible_quadratic(a: int, b: int, p: int) -> bool:
    """True iff x^2 - b*x - a has no root mod p.

    Decided by exhaustive root search over the p candidates so the same
    code path covers p = 2, where the discriminant criterion breaks down.
    """
    return all((x * x - b * x - a) % p != 0 for x in range(p))
