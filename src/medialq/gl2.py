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
The enumeration and the oracle carry each automorphism as its code (a
residue, or a `groups._matrix_code`), and `_commute` is the one test of
AB = BA; `Unit` and `Mat2` are for library callers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Union

import numpy as np

from .fp import Prime, _Frozen, as_integer, fp_inv, is_irreducible_quadratic, prime_power
from .groups import Cyclic, GroupSpec, _matrix_code, _matrix_entries

SCALAR = "scalar"
DISTINCT = "distinct"
JORDAN = "jordan"
IRREDUCIBLE = "irreducible"


class Mat2(_Frozen):
    """2x2 matrix over F_p, row-major entries reduced mod p.

    Singular matrices are deliberately representable (difference matrices of
    commuting automorphism pairs usually are singular); invertibility is
    enforced only where an automorphism is required.  Each construction checks
    p through `Prime` and every entry through `fp.as_integer`.
    """

    _fields = ("m00", "m01", "m10", "m11", "p")

    def __init__(self, m00: int, m01: int, m10: int, m11: int, p: int):
        _set = object.__setattr__
        p = Prime(p)
        _set(self, "m00", as_integer(m00) % p)
        _set(self, "m01", as_integer(m01) % p)
        _set(self, "m10", as_integer(m10) % p)
        _set(self, "m11", as_integer(m11) % p)
        _set(self, "p", p)

    @property
    def entries(self) -> tuple:
        return (self.m00, self.m01, self.m10, self.m11)

    def __int__(self) -> int:
        return _matrix_code(self.m00, self.m01, self.m10, self.m11, self.p)

    def __str__(self) -> str:
        return f"[[{self.m00},{self.m01}],[{self.m10},{self.m11}]] mod {self.p}"


class Unit(_Frozen):
    """Automorphism of Z_{p^k}: multiplication by a residue coprime to p."""

    _fields = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        _set = object.__setattr__
        modulus = as_integer(modulus)
        prime_power(modulus)  # raises unless the modulus is p^k
        value = as_integer(value) % modulus
        if math.gcd(value, modulus) != 1:
            raise ValueError(f"{value} is not a unit mod {modulus}")
        _set(self, "value", value)
        _set(self, "modulus", modulus)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


Automorphism = Union[Unit, Mat2]


def _mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Matrix products of entry arrays x, y of shape (..., 4), broadcast, reduced mod p."""
    a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    e, f, g, h = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return np.stack((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h), axis=-1) % p


def _commute(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Whether the matrices over F_p with entry arrays x and y, shape (..., 4) broadcast, commute: AB = BA."""
    return (_mul(x, y, p) == _mul(y, x, p)).all(axis=-1)


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


def _assert_commutative(x: np.ndarray, p: int) -> bool:
    """Raise unless every pair of the matrices over F_p with entry rows x, shape (n, 4), commutes.

    AB - BA is bilinear in (A, B), so every pair commutes iff every member
    commutes with each matrix of a basis of the members' span over F_p.
    Only when one does not is every pair multiplied, to name the first
    failing pair, whose two `Mat2` are the only ones built.
    """
    basis = x[_span_basis(x, p)]
    if _commute(x[:, None], basis, p).all():
        return True
    i, j = np.argwhere(~_commute(x[:, None], x, p))[0]  # the first failing pair in row-major order, so i < j
    raise ValueError(f"centralizer is not commutative: {Mat2(*x[i].tolist(), p)} vs {Mat2(*x[j].tolist(), p)}")


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


def _gl2_entries(p: int) -> np.ndarray:
    """Entry rows of every invertible 2x2 matrix over F_p, lexicographic by entries.

    Not cached: its callers, `gl2_elements` and `conjugacy_partition`, cache their own results.
    """
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
def centralizer(p: int, A: int) -> np.ndarray:
    """The codes of C(A) = {B in GL(2,p) : AB = BA}, for the matrix code A over F_p, ascending, in a read-only array.

    The matrices commuting with A are the null space of the linear map
    B -> AB - BA on the 2x2 matrices over F_p.  Its span is listed from a
    basis, and the singular matrices are dropped.  Unless A is scalar, C(A)
    is checked to be commutative, which `reps_y` and `stabilizer` rely on.
    For a scalar A, C(A) is all of GL(2,p): every scalar gets the identity's
    array, so the p - 1 scalars of a prime hold one copy of GL(2,p).
    """
    p = Prime(p)
    if not 0 <= A < p ** 4:
        raise ValueError(f"{A} is not the code of a 2x2 matrix over F_{p}")
    a, b, c, d = _matrix_entries([A], p)[0].tolist()
    if (a * d - b * c) % p == 0:
        raise ValueError(f"{Mat2(a, b, c, d, p)} is singular; centralizers are taken in GL(2,p)")
    if b == c == 0 and a == d != 1:
        return centralizer(p, p ** 3 + 1)  # the identity's code, digits (1, 0, 0, 1)
    # row i holds entry i of AB - BA as a linear form in B's entries
    basis = _null_space([[0, -c, b, 0], [-b, a - d, 0, b], [c, 0, d - a, -c], [0, c, -b, 0]], p)
    x = np.indices((p,) * len(basis)).reshape(len(basis), -1).T @ basis % p
    x = x[(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]) % p != 0]
    codes = _matrix_code(x[:, 0], x[:, 1], x[:, 2], x[:, 3], p)
    order = np.argsort(codes)
    if len(basis) < 4:  # else A is scalar and C(A) all of GL(2,p)
        _assert_commutative(x[order], p)
    codes = codes[order]
    codes.setflags(write=False)
    return codes


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
        size, stabilizer = int(cls.sum()), len(centralizer(p, int(R)))
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
        if A.p != B.p:
            raise ValueError("matrices over different fields")
        return bool(_commute(np.array(A.entries), np.array(B.entries), A.p))
    raise TypeError("cannot mix a unit with a matrix")


def _codes(G: GroupSpec, maps) -> list:
    """The codes of the maps; ValueError names the first that is not a `Unit` of G's modulus or a `Mat2` over its field."""
    cyclic = isinstance(G, Cyclic)
    for f in maps:
        if not (isinstance(f, Unit) and f.modulus == G.order if cyclic else isinstance(f, Mat2) and f.p == G.p):
            raise ValueError(f"{f} does not act on {G}")
    return [int(f) for f in maps]


def _automorphisms(G: GroupSpec, codes) -> list:
    """The `Unit` of G's modulus or the `Mat2` over G's field of each automorphism code, in order: `_codes` undone."""
    if isinstance(G, Cyclic):
        return [Unit(code, G.order) for code in codes]
    return [Mat2(*entries, G.p) for entries in _matrix_entries(codes, G.p).tolist()]


def check_pair(G: GroupSpec, phi: Automorphism, psi: Automorphism) -> None:
    """Raise ValueError unless phi and psi are invertible, commuting automorphisms of G itself.

    Each must be a `Unit` of G's modulus or a `Mat2` over G's field, and
    `check_pairs` checks their codes.
    """
    phi, psi = _codes(G, (phi, psi))
    check_pairs(G, phi, (psi,))


def _shown(G: GroupSpec, code: int) -> str:
    """The automorphism of a code as its `Unit` or `Mat2` prints."""
    if isinstance(G, Cyclic):
        return f"{code} mod {G.order}"
    return str(Mat2(*_matrix_entries([code], G.p)[0].tolist(), G.p))


def check_pairs(G: GroupSpec, phi, codes) -> None:
    """Raise ValueError unless each (phi, psi), psi in `codes`, codes a pair of invertible, commuting automorphisms of G.

    phi is one code, or one code per psi: a residue for Z_{p^k}, a
    `groups._matrix_code` for Z_p x Z_p.  One numpy pass checks every pair;
    the message names the first failing pair, in list order, by the first
    clause it fails: a code out of range (phi's first), a map that is not
    invertible, a pair that does not commute.
    """
    psis = np.asarray(codes, dtype=np.int64)
    x = np.empty((len(psis), 2), dtype=np.int64)  # row i: (phi, psi) of pair i
    x[:, 0], x[:, 1] = phi, psis
    cyclic, p = isinstance(G, Cyclic), G.p
    outside = (x < 0) | (x >= (G.order if cyclic else p ** 4))
    if cyclic:  # units of one modulus commute
        singular, clash = x % p == 0, np.zeros(len(x), dtype=bool)
    else:
        e = _matrix_entries(x.ravel(), p).reshape(-1, 2, 4)
        singular = (e[..., 0] * e[..., 3] - e[..., 1] * e[..., 2]) % p == 0
        clash = ~_commute(e[:, 0], e[:, 1], p)
    if not ((outside | singular).any() or clash.any()):
        return
    i = int(((outside | singular).any(axis=1) | clash).argmax())
    for code, out in zip(x[i].tolist(), outside[i]):
        if out:
            raise ValueError(f"{code} is not the code of an automorphism of {G}")
    if singular[i].any():
        raise ValueError(f"phi = {_shown(G, int(x[i, 0]))} and psi = {_shown(G, int(x[i, 1]))} must both be invertible")
    raise ValueError("phi and psi do not commute")


@lru_cache(maxsize=None, typed=True)  # typed: units(3, True) must reach the check, not hit units(3, 1)
def units(p: int, k: int = 1) -> np.ndarray:
    """Aut(Z_{p^k}) as the residues coprime to p, ascending, in a read-only int64 array; count p^k - p^(k-1)."""
    G = Cyclic(p, k)  # checks p and k
    residues = np.arange(1, G.order, dtype=np.int64)
    residues = residues[residues % G.p != 0]
    residues.setflags(write=False)
    return residues
