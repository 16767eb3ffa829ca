"""Automorphism groups: units of Z_{p^k} and GL(2, p).

The four kinds of conjugacy-class representatives of GL(2, p) -- scalar
matrices, diagonal matrices with distinct eigenvalues, Jordan blocks, and
companion matrices of irreducible quadratics -- are generated here together
with their centralizer subgroups.

A centralizer is the null space of B -> AB - BA over F_p, its span listed
and its singular members dropped; the conjugacy partition follows from
trace, determinant and orbit-stabilizer, conjugating nothing.  Both run on
integer arrays of matrix entries (one row per matrix, columns m00, m01,
m10, m11) or of matrix codes, and build no `Mat2` per element of GL(2, p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Union

import numpy as np

from .fp import Prime, as_integer, fp_inv, is_irreducible_quadratic, prime_power
from .groups import Cyclic, GroupSpec, _matrix_code, _matrix_entries

SCALAR = "scalar"
DISTINCT = "distinct"
JORDAN = "jordan"
IRREDUCIBLE = "irreducible"


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over F_p, row-major entries reduced mod p.

    Singular matrices are deliberately representable (difference matrices of
    commuting automorphism pairs usually are singular); invertibility is
    enforced only where an automorphism is required.  Each construction checks
    p through `Prime` and every entry through `fp.as_integer`.
    """

    m00: int
    m01: int
    m10: int
    m11: int
    p: int

    def __post_init__(self):
        p = Prime(self.p)
        object.__setattr__(self, "p", p)
        for name in ("m00", "m01", "m10", "m11"):
            object.__setattr__(self, name, as_integer(getattr(self, name)) % p)

    @property
    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)

    def det(self) -> int:
        return (self.m00 * self.m11 - self.m01 * self.m10) % self.p

    def is_scalar(self) -> bool:
        return self.m01 == 0 and self.m10 == 0 and self.m00 == self.m11

    def __int__(self) -> int:
        return _matrix_code(self.m00, self.m01, self.m10, self.m11, self.p)

    def __str__(self) -> str:
        return f"[[{self.m00},{self.m01}],[{self.m10},{self.m11}]] mod {self.p}"


def _product(A: Mat2, B: Mat2) -> tuple:
    """The entries of AB, reduced mod p; raises for matrices over different fields."""
    if A.p != B.p:
        raise ValueError("matrices over different fields")
    p = A.p
    a, b, c, d = A.m00, A.m01, A.m10, A.m11
    e, f, g, h = B.m00, B.m01, B.m10, B.m11
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


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


def _span_basis(x: np.ndarray, p: int) -> list:
    """Positions of entry rows of x, at most 4, that form a basis of the rows' span over F_p.

    Elimination keeps, in turn, the first row that the rows kept so far do
    not span, and clears its pivot entry from every row.
    """
    r, basis = x.astype(np.int64) % p, []
    while r.any():
        i = int(r.any(axis=1).argmax())
        col = int(np.flatnonzero(r[i])[0])
        pivot = r[i] * fp_inv(int(r[i, col]), p) % p
        r = (r - r[:, col : col + 1] * pivot) % p
        basis.append(i)
    return basis


def _assert_commutative(members: tuple) -> bool:
    """Raise unless every pair of the matrices commutes.

    AB - BA is bilinear in (A, B), so every pair commutes iff every member
    commutes with each matrix of a basis of the members' span over F_p.
    Only when one does not is every pair multiplied, to name the first
    failing pair.
    """
    p = members[0].p
    x = np.array([m.entries for m in members], dtype=np.int32)
    basis = x[_span_basis(x, p)]
    if (_mul(x[:, None], basis, p) == _mul(basis, x[:, None], p)).all():
        return True
    products = _mul(x[:, None], x[None, :], p)  # [i, j] = members[i] members[j]
    # the first failing pair in row-major order, so i < j
    i, j = np.argwhere((products != products.transpose(1, 0, 2)).any(axis=-1))[0]
    raise ValueError(f"centralizer is not commutative: {members[i]} vs {members[j]}")


@lru_cache(maxsize=None)
def conj_class_reps(p: int) -> MappingProxyType:
    """All p^2 - 1 conjugacy-class representatives of GL(2, p), each mapped to its kind, read-only.

    The kinds come in this order, each with its normal form:

    kind        matrix            constraint
    scalar      [[a,0],[0,a]]     a != 0
    distinct    [[a,0],[0,b]]     0 < a < b
    jordan      [[a,1],[0,a]]     a != 0
    irreducible [[0,1],[a,b]]     x^2 - b*x - a irreducible over F_p
    """
    p = Prime(p)
    reps = {Mat2(a, 0, 0, a, p): SCALAR for a in range(1, p)}
    reps.update({Mat2(a, 0, 0, b, p): DISTINCT for a in range(1, p) for b in range(a + 1, p)})
    reps.update({Mat2(a, 1, 0, a, p): JORDAN for a in range(1, p)})
    reps.update({Mat2(0, 1, a, b, p): IRREDUCIBLE for a in range(p) for b in range(p) if is_irreducible_quadratic(a, b, p)})
    return MappingProxyType(reps)


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


def _null_space(rows: list, p: int) -> np.ndarray:
    """A basis of {v : rows v = 0} over F_p, one vector per row, by Gauss-Jordan elimination."""
    rows, n, pivots = [[x % p for x in row] for row in rows], len(rows[0]), []
    for col in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is not None:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            rows[r] = [x * fp_inv(rows[r][col], p) % p for x in rows[r]]
            rows = [row if i == r else [(x - row[col] * y) % p for x, y in zip(row, rows[r])] for i, row in enumerate(rows)]
            pivots.append(col)
    free = [col for col in range(n) if col not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, col in enumerate(free):  # the free entry 1, each pivot entry solved from its row
        basis[k, col] = 1
        basis[k, pivots] = [-row[col] % p for row in rows[: len(pivots)]]
    return basis


@lru_cache(maxsize=None)
def centralizer(A: Mat2) -> np.ndarray:
    """The codes `int(B)` of C(A) = {B in GL(2,p) : AB = BA}, ascending, in a read-only array.

    The matrices commuting with A are the null space of the linear map
    B -> AB - BA on the 2x2 matrices over F_p.  Its span is listed from a
    basis, and the singular matrices are dropped.
    """
    if A.det() == 0:
        raise ValueError(f"{A} is singular; centralizers are taken in GL(2,p)")
    p, (a, b, c, d) = A.p, A.entries
    # row i holds entry i of AB - BA as a linear form in B's entries
    basis = _null_space([[0, -c, b, 0], [-b, a - d, 0, b], [c, 0, d - a, -c], [0, c, -b, 0]], p)
    x = np.indices((p,) * len(basis)).reshape(len(basis), -1).T @ basis % p
    x = x[(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]) % p != 0]
    codes = np.sort(_matrix_code(x[:, 0], x[:, 1], x[:, 2], x[:, 3], p))
    codes.setflags(write=False)
    return codes


@lru_cache(maxsize=None)
def _members(p: int, codes: bytes) -> Subgroup:
    """The matrices over F_p of the int64 codes in `codes`, as a `Subgroup` in their order.

    Keyed on the codes, so a centralizer shared by many matrices is built,
    and checked to commute unless it is all of GL(2,p) (a scalar's), once.
    """
    rows = _matrix_entries(np.frombuffer(codes, dtype=np.int64), p).tolist()
    members = Subgroup(Mat2(*row, p) for row in rows)
    if len(members) < len(_gl2_entries(p)):
        _assert_commutative(members)
    return members


@lru_cache(maxsize=None)
def conjugacy_partition(p: int) -> np.ndarray:
    """The class of every element of GL(2, p), as a position in `conj_class_reps(p)`.

    One entry per entry row of `_gl2_entries(p)`, in a read-only array.  The
    class of a representative R is the set of matrices sharing R's
    `_class_key`, which holds the class; orbit-stabilizer, |Cl(R)| = |GL| /
    |C(R)|, proves it no larger.  Raises if that count fails or the
    representatives fail to be a transversal (two of them conjugate, or some
    matrix uncovered), so downstream code may rely on the partition rather
    than assume it.
    """
    p = Prime(p)
    keys = _class_key(_gl2_entries(p), p)
    classes = np.full(len(keys), -1, dtype=np.int32)
    for i, R in enumerate(conj_class_reps(p)):
        cls = keys == _class_key(np.array(R.entries), p)
        size, stabilizer = int(cls.sum()), len(centralizer(R))
        if size * stabilizer != len(keys):
            raise ValueError(
                f"orbit-stabilizer fails for {R}: {size} share its key, {stabilizer} commute,"
                f" |GL| = {len(keys)}"
            )
        if (classes[cls] >= 0).any():
            raise ValueError(f"representative {R} is conjugate to an earlier one")
        classes[cls] = i
    if (classes < 0).any():
        raise ValueError("conjugacy classes of the representatives do not cover GL(2,p)")
    classes.setflags(write=False)
    return classes


def commutes(A: Automorphism, B: Automorphism) -> bool:
    """Whether two automorphisms of the same group commute."""
    if isinstance(A, Unit) and isinstance(B, Unit):
        if A.modulus != B.modulus:
            raise ValueError("units of different cyclic groups")
        return True
    if isinstance(A, Mat2) and isinstance(B, Mat2):
        return _product(A, B) == _product(B, A)
    raise TypeError("cannot mix a unit with a matrix")


def _acts_on(G: GroupSpec, f) -> bool:
    """Whether f is a map of G's family over G itself: a `Unit` of its modulus, or a `Mat2` over its field."""
    return isinstance(f, Unit) and f.modulus == G.order if isinstance(G, Cyclic) else isinstance(f, Mat2) and f.p == G.p


def check_pair(G: GroupSpec, phi: Automorphism, psi: Automorphism) -> None:
    """Raise ValueError unless phi and psi are invertible, commuting automorphisms of G itself."""
    cyclic = isinstance(G, Cyclic)
    for f in (phi, psi):
        if not _acts_on(G, f):
            raise ValueError(f"{f} does not act on {G}")
    if not (phi.value % G.p and psi.value % G.p if cyclic else phi.det() and psi.det()):
        raise ValueError(f"phi = {phi} and psi = {psi} must both be invertible")
    if not cyclic and not commutes(phi, psi):  # units of one modulus commute
        raise ValueError("phi and psi do not commute")


def check_pairs(G: GroupSpec, phi: Automorphism, psis: Subgroup) -> None:
    """`check_pair(G, phi, psi)` for every psi of `psis`, in one numpy pass over their codes.

    Raises what `check_pair` raises for the first pair, in list order, that fails it.
    """
    if isinstance(G, Cyclic):
        fails = psis.codes % G.p == 0  # a unit's code is its residue
    else:
        p, a = G.p, np.array(phi.entries)
        x = _matrix_entries(psis.codes, p)
        fails = (x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]) % p == 0
        fails |= (_mul(a, x, p) != _mul(x, a, p)).any(axis=-1)
    fails |= ~_acting(G, psis)
    if len(psis):
        check_pair(G, phi, psis[0])  # phi itself, in the first pair
    if fails.any():
        first = psis[int(fails.argmax())]
        check_pair(G, phi, first)  # raises that pair's ValueError
        raise AssertionError(f"check_pair passes {first}, which check_pairs fails")


@lru_cache(maxsize=None)
def _acting(G: GroupSpec, autos: Subgroup) -> np.ndarray:
    """`_acts_on(G, f)` for each member, in a read-only array; a list that many blocks share is walked once."""
    acting = np.array([_acts_on(G, f) for f in autos], dtype=bool)
    acting.setflags(write=False)
    return acting


@lru_cache(maxsize=None, typed=True)  # typed: units(3, True) must reach the check, not hit units(3, 1)
def units(p: int, k: int = 1) -> Subgroup:
    """Aut(Z_{p^k}): all residues coprime to p, ascending; count p^k - p^(k-1)."""
    G = Cyclic(p, k)  # checks p and k
    p, n = G.p, G.order
    return Subgroup(Unit(u, n) for u in range(1, n) if u % p != 0)
