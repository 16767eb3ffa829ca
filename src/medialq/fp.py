"""Exact arithmetic modulo small primes.

Everything here is plain machine-integer arithmetic; there is no floating
point anywhere in the package.  Scalars are ints reduced into [0, p-1] and
the modulus travels alongside them.
"""

from __future__ import annotations

import operator

# Primes are capped so that exhaustive p**4-scale scans stay tractable.
MAX_PRIME = 1 << 15


def as_integer(v) -> int:
    """v as an int, through `operator.index`: ints and numpy ints; no floats, strings or rounding."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{v!r} is not an integer") from None


class Prime(int):
    """A prime modulus, validated by trial division at construction."""

    def __new__(cls, p: int) -> "Prime":
        p = as_integer(p)
        if p < 2:
            raise ValueError(f"{p} is not a prime")
        if p > MAX_PRIME:
            raise ValueError(f"prime {p} exceeds the supported cap {MAX_PRIME}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"{p} is not a prime")
            d += 1
        return super().__new__(cls, p)

    def __repr__(self) -> str:
        return f"Prime({int(self)})"

    def __str__(self) -> str:
        return str(int(self))


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


def count_irreducible_quadratics(p: int) -> int:
    """Exhaustive count of pairs (a, b) with x^2 - b*x - a irreducible.

    Equals (p^2 - p) / 2 for every prime p; the closed form is asserted
    against this count in the test suite rather than trusted.
    """
    return sum(
        is_irreducible_quadratic(a, b, p) for a in range(p) for b in range(p)
    )
