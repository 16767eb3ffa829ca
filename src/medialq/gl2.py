"""Automorphism groups: units of Z_{p^k} and GL(2, p), the invertible r x r matrices over Z_q.

`_aut_codes` lists both, as codes (see `groups`); `_mul`, `_commute` and
`_det` are the one product, commutation test and determinant of either size.

The four kinds of conjugacy-class representatives of GL(2, p) -- scalar
matrices, diagonal matrices with distinct eigenvalues, Jordan blocks, and
companion matrices of irreducible quadratics -- are generated here together
with their centralizer subgroups.

A centralizer is the null space of B -> AB - BA over F_p, its span listed
and its singular members dropped; the conjugacy partition follows from
trace, determinant and orbit-stabilizer, conjugating nothing.  Both run on
integer arrays of matrix entries (one row per matrix, columns m00, m01,
m10, m11) or of matrix codes, and build no `Mat2` per element of GL(2, p).
The enumeration and the oracle carry each automorphism as its code; `Unit`
and `Mat2` are for library callers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType
from typing import Union

import numpy as np

from .fp import Prime, _Frozen, as_integer, fp_inv, is_irreducible_quadratic, prime_power
from .groups import Cyclic, ElemAbelianRank2, GroupSpec

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
        return int(ElemAbelianRank2(self.p)._code(self.entries))

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


def _mul(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """Matrix products of the r x r matrices with entry arrays x, y of shape (..., r*r), broadcast, reduced mod q."""
    r = math.isqrt(x.shape[-1])
    out = [sum(x[..., i + j] * y[..., j * r + k] for j in range(r)) for i in range(0, r * r, r) for k in range(r)]
    return np.stack(out, axis=-1) % q


def _commute(x: np.ndarray, y: np.ndarray, q: int) -> np.ndarray:
    """Whether the r x r matrices over Z_q with entry arrays x and y, shape (..., r*r) broadcast, commute: AB = BA."""
    if x.shape[-1] == 1:  # 1 x 1 matrices commute
        return np.ones(np.broadcast_shapes(x.shape, y.shape)[:-1], dtype=bool)
    return (_mul(x, y, q) == _mul(y, x, q)).all(axis=-1)


def _det(x: np.ndarray) -> np.ndarray:
    """Determinants of the 1 x 1 or 2 x 2 matrices with entry arrays x of shape (..., r*r); a unit mod p iff invertible."""
    if x.shape[-1] == 1:
        return x[..., 0]
    return x[..., 0] * x[..., 3] - x[..., 1] * x[..., 2]


_MAX_AUT_CODES = 1 << 20  # matrix codes listed for Aut(G): some 50 MB of arrays at most


@lru_cache(maxsize=None)
def _aut_codes(G: GroupSpec) -> np.ndarray:
    """The codes of Aut(G), the invertible r x r matrices over Z_q, ascending, in a read-only int64 array.

    All q^(r*r) matrix codes are listed: over `_MAX_AUT_CODES`, ValueError is raised first.
    """
    count = G.q ** (G.r * G.r)
    if count > _MAX_AUT_CODES:
        raise ValueError(f"Aut({G}) is listed from {count} matrix codes, over the bound {_MAX_AUT_CODES}")
    codes = np.arange(count, dtype=np.int64)
    codes = codes[_det(G._entries(codes)) % G.p != 0]
    codes.setflags(write=False)
    return codes


def _class_key(x: np.ndarray, p: int) -> np.ndarray:
    """Trace, determinant and scalarness of entry arrays (..., 4) as one int; conjugates share it."""
    a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    scalar = (b == 0) & (c == 0) & (a == d)
    return (((a + d) % p) * p + _det(x) % p) * 2 + scalar


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


@lru_cache(maxsize=None)
def gl2_elements(p: int) -> tuple:
    """All invertible 2x2 matrices over F_p, lexicographic by entries: `_aut_codes` of (Z_p)^2 as `Mat2`."""
    V = ElemAbelianRank2(p)
    return tuple(Mat2(*row, V.p) for row in V._entries(_aut_codes(V)).tolist())


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
    A scalar A is central, so C(A) is all of GL(2,p): every scalar gets the
    `_aut_codes` array, so the p - 1 scalars of a prime hold no copy of their own.
    """
    V = ElemAbelianRank2(p)
    p = V.p
    if not 0 <= A < p ** 4:
        raise ValueError(f"{A} is not the code of a 2x2 matrix over F_{p}")
    e = V._entries([A])
    if _det(e)[0] % p == 0:
        raise ValueError(f"{Mat2(*e[0].tolist(), p)} is singular; centralizers are taken in GL(2,p)")
    if A % V._identity == 0:
        return _aut_codes(V)
    a, b, c, d = e[0].tolist()
    # row i holds entry i of AB - BA as a linear form in B's entries
    basis = _null_space([[0, -c, b, 0], [-b, a - d, 0, b], [c, 0, d - a, -c], [0, c, -b, 0]], p)
    x = np.indices((p,) * len(basis)).reshape(len(basis), -1).T @ basis % p
    x = x[_det(x) % p != 0]
    codes = V._code(x)
    order = np.argsort(codes)
    _assert_commutative(x[order], p)
    codes = codes[order]
    codes.setflags(write=False)
    return codes


@lru_cache(maxsize=None)
def conjugacy_partition(p: int) -> np.ndarray:
    """The class of every element of GL(2, p), as a position in `conj_class_reps(p)`.

    One entry per code of `_aut_codes` of (Z_p)^2, in its order, in a read-only array.  The
    class of a representative R is the set of matrices sharing R's
    `_class_key`, which holds the class; orbit-stabilizer, |Cl(R)| = |GL| /
    |C(R)|, proves it no larger.  Raises if that count fails or the
    representatives fail to be a transversal (two of them conjugate, or some
    matrix uncovered), so downstream code may rely on the partition rather
    than assume it.
    """
    V = ElemAbelianRank2(p)
    p = V.p
    keys = _class_key(V._entries(_aut_codes(V)), p)
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
    return [Mat2(*entries, G.p) for entries in G._entries(codes).tolist()]


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
    return str(Mat2(*G._entries([code])[0].tolist(), G.p))


def check_pairs(G: GroupSpec, phi, codes) -> None:
    """Raise ValueError unless each (phi, psi), psi in `codes`, codes a pair of invertible, commuting automorphisms of G.

    phi is one code, or one code per psi, of an r x r matrix over Z_q: a
    residue for Z_{p^k}, the base-p digits of the entries for Z_p x Z_p.
    One numpy pass checks every pair; the message names the first failing
    pair, in list order, by the first clause it fails: a code out of range
    (phi's first), a map that is not invertible, a pair that does not commute.
    """
    psis = np.asarray(codes, dtype=np.int64)
    x = np.empty((len(psis), 2), dtype=np.int64)  # row i: (phi, psi) of pair i
    x[:, 0], x[:, 1] = phi, psis
    outside = (x < 0) | (x >= G.q ** (G.r * G.r))
    e = G._entries(x.ravel()).reshape(len(x), 2, G.r * G.r)
    singular = _det(e) % G.p == 0
    clash = ~_commute(e[:, 0], e[:, 1], G.q)
    if not ((outside | singular).any() or clash.any()):
        return
    i = int(((outside | singular).any(axis=1) | clash).argmax())
    for code, out in zip(x[i].tolist(), outside[i]):
        if out:
            raise ValueError(f"{code} is not the code of an automorphism of {G}")
    if singular[i].any():
        raise ValueError(f"phi = {_shown(G, int(x[i, 0]))} and psi = {_shown(G, int(x[i, 1]))} must both be invertible")
    raise ValueError("phi and psi do not commute")


def units(p: int, k: int = 1) -> np.ndarray:
    """Aut(Z_{p^k}) as the residues coprime to p, ascending, in a read-only int64 array; count p^k - p^(k-1): `_aut_codes`."""
    return _aut_codes(Cyclic(p, k))  # checks p and k
