"""Automorphism groups: units of Z_{p^k} and GL(2, p).

The four kinds of conjugacy-class representatives of GL(2, p) -- scalar
matrices, diagonal matrices with distinct eigenvalues, Jordan blocks, and
companion matrices of irreducible quadratics -- are generated here together
with their centralizer subgroups.

Centralizers are always computed by brute-force filtering of the full
GL(2, p) element list, and the conjugacy partition by trace, determinant and
orbit-stabilizer, conjugating nothing.  Both run on integer arrays of matrix
entries (one row per matrix, columns m00, m01, m10, m11) and hand back the
`Mat2` objects of `gl2_elements`, built from those rows.  The closed-form
parametrizations of those subgroups (`parametrized_centralizer`) are kept
separately so the test suite can assert that filter and formula agree
element for element: the formulas are checked facts, not trusted input.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .fp import Prime, as_integer, fp_inv, is_irreducible_quadratic, prime_power
from .groups import Cyclic, GroupSpec

SCALAR = "scalar"
DISTINCT = "distinct"
JORDAN = "jordan"
IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over F_p, row-major entries reduced mod p.

    Singular matrices are deliberately representable (difference matrices of
    commuting automorphism pairs usually are singular); invertibility is
    enforced only where an automorphism is required.
    """

    m00: int
    m01: int
    m10: int
    m11: int
    p: int

    def __post_init__(self):
        # Checks inline rather than through calls: a Mat2 is built per enumerated
        # pair, and its p is mostly the Prime that its operands pass on.
        p = self.p
        if type(p) is not Prime:
            p = Prime(p)
            object.__setattr__(self, "p", p)
        try:
            object.__setattr__(self, "m00", operator.index(self.m00) % p)
            object.__setattr__(self, "m01", operator.index(self.m01) % p)
            object.__setattr__(self, "m10", operator.index(self.m10) % p)
            object.__setattr__(self, "m11", operator.index(self.m11) % p)
        except TypeError:
            for v in self.entries:
                as_integer(v)  # a ValueError naming the first non-integer
            raise

    @classmethod
    def identity(cls, p: int) -> "Mat2":
        return cls(1, 0, 0, 1, p)

    @classmethod
    def zero(cls, p: int) -> "Mat2":
        return cls(0, 0, 0, 0, p)

    @property
    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)

    def mul(self, other: "Mat2") -> "Mat2":
        if self.p != other.p:
            raise ValueError("matrices over different fields")
        p = self.p
        a, b, c, d = self.m00, self.m01, self.m10, self.m11
        e, f, g, h = other.m00, other.m01, other.m10, other.m11
        return Mat2(
            (a * e + b * g) % p,
            (a * f + b * h) % p,
            (c * e + d * g) % p,
            (c * f + d * h) % p,
            p,
        )

    def __sub__(self, other: "Mat2") -> "Mat2":
        if self.p != other.p:
            raise ValueError("matrices over different fields")
        p = self.p
        return Mat2(
            self.m00 - other.m00,
            self.m01 - other.m01,
            self.m10 - other.m10,
            self.m11 - other.m11,
            p,
        )

    def det(self) -> int:
        return (self.m00 * self.m11 - self.m01 * self.m10) % self.p

    def rank(self) -> int:
        if self.det() != 0:
            return 2
        return 0 if self.entries == (0, 0, 0, 0) else 1

    def inv(self) -> "Mat2":
        d = self.det()
        if d == 0:
            raise ValueError(f"{self} is singular")
        di = fp_inv(d, self.p)
        return Mat2(
            di * self.m11, -di * self.m01, -di * self.m10, di * self.m00, self.p
        )

    def is_scalar(self) -> bool:
        return self.m01 == 0 and self.m10 == 0 and self.m00 == self.m11

    def __int__(self) -> int:
        """The entries read as base-p digits, m00 first."""
        return ((self.m00 * self.p + self.m01) * self.p + self.m10) * self.p + self.m11

    def __str__(self) -> str:
        return f"[[{self.m00},{self.m01}],[{self.m10},{self.m11}]] mod {self.p}"


@dataclass(frozen=True)
class Unit:
    """Automorphism of Z_{p^k}: multiplication by a residue coprime to p."""

    value: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "modulus", as_integer(self.modulus))
        prime_power(self.modulus)  # raises unless the modulus is p^k
        object.__setattr__(self, "value", as_integer(self.value) % self.modulus)
        if math.gcd(self.value, self.modulus) != 1:
            raise ValueError(f"{self.value} is not a unit mod {self.modulus}")

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


Automorphism = Union[Unit, Mat2]


class Subgroup(tuple):
    """A tuple of automorphisms with their codes `int(f)` in one read-only array; hashed once."""

    def __new__(cls, members):
        self = super().__new__(cls, members)
        self.codes = np.array([int(f) for f in self], dtype=np.int64)
        self.codes.setflags(write=False)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


def _mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Matrix products of entry arrays x, y of shape (..., 4), broadcast, reduced mod p."""
    a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    e, f, g, h = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return np.stack((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), axis=-1) % p


def _class_key(x: np.ndarray, p: int) -> np.ndarray:
    """Trace, determinant and scalarness of entry arrays (..., 4) as one int; conjugates share it."""
    a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    scalar = (b == 0) & (c == 0) & (a == d)
    return (((a + d) % p) * p + (a * d - b * c) % p) * 2 + scalar


def _assert_commutative(members: tuple) -> bool:
    """Raise unless every pair of the matrices commutes; every pair is multiplied."""
    x = np.array([m.entries for m in members], dtype=np.int32)
    products = _mul(x[:, None], x[None, :], members[0].p)  # [i, j] = members[i] members[j]
    clash = np.argwhere((products != products.transpose(1, 0, 2)).any(axis=-1))
    if clash.size:
        i, j = clash[0]  # the first failing pair in row-major order, so i < j
        raise ValueError(f"centralizer is not commutative: {members[i]} vs {members[j]}")
    return True


@dataclass(frozen=True)
class ConjClassRep:
    """One conjugacy-class representative of GL(2, p).

    kind        matrix            constraint
    scalar      [[a,0],[0,a]]     a != 0
    distinct    [[a,0],[0,b]]     0 < a < b
    jordan      [[a,1],[0,a]]     a != 0
    irreducible [[0,1],[a,b]]     x^2 - b*x - a irreducible over F_p
    """

    kind: str
    a: int
    b: Optional[int]
    p: int

    def __post_init__(self):
        p, a, b = self.p, self.a, self.b
        if self.kind in (SCALAR, JORDAN):
            if not (0 < a < p and b is None):
                raise ValueError(f"bad {self.kind} representative ({a}, {b})")
        elif self.kind == DISTINCT:
            if b is None or not 0 < a < b < p:
                raise ValueError(f"bad distinct-diagonal representative ({a}, {b})")
        elif self.kind == IRREDUCIBLE:
            if b is None or not is_irreducible_quadratic(a, b, p):
                raise ValueError(f"x^2 - {b}x - {a} is reducible mod {p}")
        else:
            raise ValueError(f"unknown representative kind {self.kind!r}")

    def matrix(self) -> Mat2:
        if self.kind == SCALAR:
            return Mat2(self.a, 0, 0, self.a, self.p)
        if self.kind == DISTINCT:
            return Mat2(self.a, 0, 0, self.b, self.p)
        if self.kind == JORDAN:
            return Mat2(self.a, 1, 0, self.a, self.p)
        return Mat2(0, 1, self.a, self.b, self.p)


@lru_cache(maxsize=None)
def conj_class_reps(p: int) -> tuple:
    """All p^2 - 1 conjugacy-class representatives of GL(2, p), deterministically ordered."""
    p = Prime(p)
    reps = [ConjClassRep(SCALAR, a, None, p) for a in range(1, p)]
    reps += [
        ConjClassRep(DISTINCT, a, b, p)
        for a in range(1, p)
        for b in range(a + 1, p)
    ]
    reps += [ConjClassRep(JORDAN, a, None, p) for a in range(1, p)]
    reps += [
        ConjClassRep(IRREDUCIBLE, a, b, p)
        for a in range(p)
        for b in range(p)
        if is_irreducible_quadratic(a, b, p)
    ]
    return tuple(reps)


@lru_cache(maxsize=None)
def _gl2_entries(p: int) -> np.ndarray:
    """Entry rows of every invertible 2x2 matrix over F_p, lexicographic by entries."""
    p = Prime(p)
    x = np.indices((p,) * 4, dtype=np.int32).reshape(4, -1).T
    x = x[(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]) % p != 0]
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def gl2_elements(p: int) -> tuple:
    """All invertible 2x2 matrices over F_p, lexicographic by entries: `_gl2_entries` as `Mat2`."""
    p = Prime(p)
    return tuple(Mat2(*row, p) for row in _gl2_entries(p).tolist())


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


@lru_cache(maxsize=None)
def centralizer(A: Mat2) -> Subgroup:
    """The subgroup {B in GL(2,p) : AB = BA}, by brute-force filter.

    For non-scalar A, every pair of members is also checked to commute.
    """
    if A.det() == 0:
        raise ValueError(f"{A} is singular; centralizers are taken in GL(2,p)")
    x = _gl2_entries(A.p)
    a = np.array(A.entries, dtype=np.int32)
    keep = (_mul(a, x, A.p) == _mul(x, a, A.p)).all(axis=-1)
    return _members(A.p, keep.tobytes(), not A.is_scalar())


@lru_cache(maxsize=None)
def _members(p: int, mask: bytes, commutative: bool) -> Subgroup:
    """The elements of GL(2,p) whose entry rows a byte mask keeps.

    Keyed on the mask, so a centralizer shared by many matrices is built,
    and checked to commute if `commutative`, once.
    """
    gl = gl2_elements(p)
    members = Subgroup(gl[i] for i in np.flatnonzero(np.frombuffer(mask, dtype=bool)).tolist())
    if commutative:
        _assert_commutative(members)
    return members


def parametrized_centralizer(rep: ConjClassRep) -> tuple:
    """Closed-form description of the centralizer of each representative kind.

    Used as the cross-check target for the brute-force `centralizer` filter;
    the two must agree element for element.
    """
    p = rep.p
    if rep.kind == SCALAR:
        return gl2_elements(p)
    if rep.kind == DISTINCT:
        return tuple(
            Mat2(u, 0, 0, v, p) for u in range(1, p) for v in range(1, p)
        )
    if rep.kind == JORDAN:
        return tuple(
            Mat2(u, v, 0, u, p) for u in range(1, p) for v in range(p)
        )
    a, b = rep.a, rep.b
    return tuple(
        Mat2(u, v, a * v, u + b * v, p)
        for u in range(p)
        for v in range(p)
        if (u, v) != (0, 0)
    )


@lru_cache(maxsize=None)
def conjugacy_partition(p: int) -> tuple:
    """Conjugacy classes of GL(2, p) as frozensets, one per representative.

    The class of a representative R is the set of matrices sharing R's
    `_class_key`, which holds the class; orbit-stabilizer, |Cl(R)| = |GL| /
    |C(R)|, proves it no larger.  Raises if that count fails or the
    representatives fail to be a transversal (two of them conjugate, or some
    matrix uncovered), so downstream code may rely on the partition rather
    than assume it.
    """
    p = Prime(p)
    gl = gl2_elements(p)
    keys = _class_key(_gl2_entries(p), p)
    classes = []
    covered = np.zeros(len(gl), dtype=bool)
    for rep in conj_class_reps(p):
        R = rep.matrix()
        cls = keys == _class_key(np.array(R.entries), p)
        size, stabilizer = int(cls.sum()), len(centralizer(R))
        if size * stabilizer != len(gl):
            raise ValueError(
                f"orbit-stabilizer fails for {R}: {size} share its key, {stabilizer} commute,"
                f" |GL| = {len(gl)}"
            )
        if (covered & cls).any():
            raise ValueError(f"representative {R} is conjugate to an earlier one")
        covered |= cls
        classes.append(frozenset(gl[i] for i in np.flatnonzero(cls).tolist()))
    if not covered.all():
        raise ValueError("conjugacy classes of the representatives do not cover GL(2,p)")
    return tuple(classes)


def commutes(A: Automorphism, B: Automorphism) -> bool:
    """Whether two automorphisms of the same group commute."""
    if isinstance(A, Unit) and isinstance(B, Unit):
        if A.modulus != B.modulus:
            raise ValueError("units of different cyclic groups")
        return True
    if isinstance(A, Mat2) and isinstance(B, Mat2):
        return A.mul(B) == B.mul(A)  # raises for matrices over different fields
    raise TypeError("cannot mix a unit with a matrix")


def check_pair(G: GroupSpec, phi: Automorphism, psi: Automorphism) -> None:
    """Raise ValueError unless phi and psi are invertible, commuting automorphisms of G itself."""
    cyclic = isinstance(G, Cyclic)
    for f in (phi, psi):
        if not (isinstance(f, Unit) and f.modulus == G.order if cyclic else isinstance(f, Mat2) and f.p == G.p):
            raise ValueError(f"{f} does not act on {G}")
    if not cyclic and (phi.det() == 0 or psi.det() == 0):  # a Unit is invertible by construction
        raise ValueError(f"phi = {phi} and psi = {psi} must both be invertible")
    if not cyclic and not commutes(phi, psi):  # units of one modulus commute
        raise ValueError("phi and psi do not commute")


@lru_cache(maxsize=None, typed=True)  # typed: units(3, True) must reach the check, not hit units(3, 1)
def units(p: int, k: int = 1) -> Subgroup:
    """Aut(Z_{p^k}): all residues coprime to p, ascending; count p^k - p^(k-1)."""
    G = Cyclic(p, k)  # checks p and k
    p, n = G.p, G.order
    return Subgroup(Unit(u, n) for u in range(1, n) if u % p != 0)
