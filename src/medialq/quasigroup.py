"""Affine quasigroups x*y = phi(x) + psi(y) + c and their Cayley tables.

Group elements are mapped to table indices through the group's deterministic
element order, so the table built from a given form is canonical and can be
diffed across runs.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from itertools import islice
from typing import Optional

import numpy as np

from .fp import _Frozen
from .gl2 import Automorphism, Mat2, Unit, check_pairs
from .groups import Cyclic, GroupSpec, _add_table


class AffineForm(_Frozen):
    """A quintuple (G, +, phi, psi, c) with commuting automorphisms phi, psi.

    phi and psi must each be a `Unit` of G's modulus or a `Mat2` over G's
    field, and `check_pairs` checks their codes; c must be an element of G.
    """

    _fields = ("group", "phi", "psi", "c")

    def __init__(self, group: GroupSpec, phi: Automorphism, psi: Automorphism, c):
        cyclic = isinstance(group, Cyclic)
        for f in (phi, psi):
            if not (isinstance(f, Unit) and f.modulus == group.order if cyclic else isinstance(f, Mat2) and f.p == group.p):
                raise ValueError(f"{f} does not act on {group}")
        check_pairs(group, int(phi), (int(psi),))
        group.check(c)
        _set = object.__setattr__
        _set(self, "group", group)
        _set(self, "phi", phi)
        _set(self, "psi", psi)
        _set(self, "c", c)


class CayleyTable(_Frozen):
    """An n x n operation table over the symbols 0 .. n-1.

    `cells` is a read-only (n, n) array of the smallest unsigned dtype that
    holds n - 1; it may be given as any nested sequence of ints or integer
    array.  Construction validates shape and symbol range only; whether the
    table is a Latin square (i.e. a quasigroup) is a separate question
    answered by `is_latin`.  `rows` is the same table as a tuple of row
    tuples, derived on first use, for pure-Python indexing.
    """

    _fields = ("n", "cells")

    def __init__(self, n: int, cells):
        if n < 1 or len(cells) != n:
            raise ValueError("table shape does not match its order")
        try:
            a = np.asarray(cells)
        except ValueError:  # ragged rows
            a = None
        if (
            a is None
            or a.shape != (n, n)
            or a.dtype.kind not in "biu"
            or a.min() < 0
            or a.max() >= n
        ):
            raise ValueError("table entries must be indices in [0, n)")
        cells = a.astype(np.min_scalar_type(n - 1))
        cells.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cells", cells)

    @cached_property
    def rows(self) -> tuple:
        return tuple(map(tuple, self.cells.tolist()))

    def __eq__(self, other):
        if not isinstance(other, CayleyTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash((self.n, self.cells.tobytes()))


def _affine_cells(G: GroupSpec, codes: list, cs) -> np.ndarray:
    """Cells of x*y = phi(x) + psi(y) + c for each code pair (phi, psi) of `codes` and each c of its row of `cs`.

    `cs` holds element indices, one row per pair.  The tables come pair by
    pair, in an (len(codes) * len(cs[0]), n, n) array of one-byte cells for
    n <= 256.
    """
    n = G.order
    add = _add_table(G).ravel()  # the index of a + b at a * n + b
    images = G.index_action([code for pair in codes for code in pair], np.arange(n)).reshape(-1, 2, n)
    sums = add[images[:, 0, :, None] * n + images[:, 1, None, :]]
    cells = add.astype(np.min_scalar_type(n - 1))[sums[:, None] * n + np.asarray(cs)[:, :, None, None]]
    return cells.reshape(-1, n, n)


def build_table(form: AffineForm) -> CayleyTable:
    """Cayley table of x*y = phi(x) + psi(y) + c in the group's element order."""
    G = form.group
    return CayleyTable(G.order, _affine_cells(G, [(int(form.phi), int(form.psi))], [[G.index(form.c)]])[0])


def is_latin(t: CayleyTable) -> bool:
    """True iff every row and every column is a permutation of 0 .. n-1."""
    a = t.cells
    want = np.arange(t.n, dtype=a.dtype)
    return bool(
        (np.sort(a, axis=1) == want).all() and (np.sort(a, axis=0) == want[:, None]).all()
    )


def _inverse(f: np.ndarray) -> Optional[np.ndarray]:
    """The inverse of the map i -> f[i] of 0 .. len(f) - 1, as an index array; None when f is no permutation."""
    inverse = np.full(len(f), -1, dtype=np.intp)
    inverse[f] = np.arange(len(f))
    return None if (inverse < 0).any() else inverse


def _certificate_failure(t: CayleyTable) -> Optional[str]:
    """The first clause of the affine certificate that `t` fails, or None when it passes every clause.

    The certificate writes x*y = phi(x) + psi(y) + c over the principal loop
    isotope x + y = R_0^-1(x) * L_0^-1(y), where R_0 is column 0 and L_0 is
    row 0; its identity is e = 0*0.  Then c = e*e, phi(x) = x*e - c and
    psi(y) = e*y - c.  The clauses, in the order they are checked:

    isotope      R_0, L_0 and z -> z + c are permutations, so + and - c exist
    affine       x*y = phi(x) + psi(y) + c for every cell
    commutative  x + y = y + x
    associative  (x + y) + z = x + (y + z), checked one x at a time
    additive     phi(x + y) = phi(x) + phi(y), and the same for psi
    commuting    phi(psi(x)) = psi(phi(x))

    A table that passes them all is medial, with no theorem assumed:
    (x*y)*(u*v) expands to phi phi x + phi psi y + psi phi u + psi psi v +
    phi c + psi c + c, which the clauses make symmetric in y and u.  The
    affine clause also follows from the isotope, commutative and
    associative clauses, since x*y = R_0(x) + L_0(y) by the definition of
    +; it comes first because it costs O(n^2) and rejects most edited
    tables before the O(n^3) associativity clause.  The memory is O(n^2).
    Toyoda and Bruck's theorem says every medial quasigroup passes; other
    tables, medial or not, may fail any clause.
    """
    T, n = t.cells, t.n
    r0, l0 = _inverse(T[:, 0]), _inverse(T[0])
    if r0 is None or l0 is None:
        return "isotope"
    S = T[r0[:, None], l0]  # S[x, y] = x + y
    e = T[0, 0]
    c = T[e, e]
    minus_c = _inverse(S[:, c])  # minus_c[z] + c = z
    if minus_c is None:
        return "isotope"
    phi, psi = minus_c[T[:, e]], minus_c[T[e]]
    if not (S[S[phi[:, None], psi], c] == T).all():
        return "affine"
    if not (S == S.T).all():
        return "commutative"
    if not all(np.array_equal(S[S[x]], S[x][S]) for x in range(n)):
        return "associative"
    if not all((f[S] == S[f[:, None], f]).all() for f in (phi, psi)):
        return "additive"
    if not (phi[psi] == psi[phi]).all():
        return "commuting"
    return None


def _medial_scan(t: CayleyTable) -> bool:
    """Exhaustive check of (x*y)*(u*v) == (x*u)*(y*v) over all n^4 quadruples.

    Vectorized one x at a time so that memory grows as n^3: A[y,u,v] =
    (x*y)*(u*v) reads the rows x*y at the columns u*v, and (x*u)*(y*v) is A
    with the first two axes swapped.  The first x with a violating
    quadruple ends the check.
    """
    src = t.cells
    for row in src:
        A = np.take(src[row], src, axis=1)
        if not (A == A.transpose(1, 0, 2)).all():
            return False
    return True


def is_medial(t: CayleyTable) -> bool:
    """Whether (x*y)*(u*v) == (x*u)*(y*v) for all n^4 quadruples; nothing about the table is assumed.

    "Yes" comes from the affine certificate of `_certificate_failure` when it
    passes every clause, in O(n^3) time, or else from `_medial_scan` after
    all n^4 quadruples hold.  "No" comes only from `_medial_scan`, at the
    first x that has a violating quadruple.  So the certificate changes the
    time of a verdict, never the verdict.
    """
    return _certificate_failure(t) is None or _medial_scan(t)


def count_idempotents(t: CayleyTable) -> int:
    """Number of symbols i with i*i = i (an isomorphism invariant)."""
    return int(np.count_nonzero(t.cells.diagonal() == np.arange(t.n)))


@lru_cache(maxsize=None)
def _labels(n: int, sep: str, end: str) -> tuple:
    """Text of each symbol 0 .. n-1 followed by `sep`, and by `end`."""
    spaced = np.array([f"{i}{sep}" for i in range(n)], dtype=object)
    ended = np.array([f"{i}{end}" for i in range(n)], dtype=object)
    return spaced, ended


def _render(t: CayleyTable, sep: str, end: str) -> str:
    """The cells row by row, each followed by `sep`, or by `end` at a row's end."""
    spaced, ended = _labels(t.n, sep, end)
    words = spaced[t.cells]
    words[:, -1] = ended[t.cells[:, -1]]
    return "".join(words.ravel().tolist())


def to_text(t: CayleyTable) -> str:
    """Bit-exact text form: 'n' line, then n rows of space-separated indices."""
    return f"{t.n}\n" + _render(t, " ", "\n")


def to_json(t: CayleyTable) -> str:
    """`json.dumps(t.cells.tolist())`: the rows as JSON arrays of indices."""
    return "[[" + _render(t, ", ", "], [")[: -len(", [")] + "]"


_SPACE = re.compile(r"\s")  # the characters str.split() splits on


def _tokens(text: str, chunk: int = 1 << 16):
    """text.split(), lazily: one chunk at a time, each cut after a whitespace."""
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, min(start + chunk, len(text)))
        end = cut.end() if cut else len(text)
        yield from text[start:end].split()
        start = end


def _iter_tables(text: str, max_order: Optional[int] = None):
    """Parse one or more concatenated text-format tables, yielding each as it is parsed.

    A table whose order is below 1 or exceeds `max_order` is rejected as
    soon as its order is read, before any of its cells.
    """
    tokens = _tokens(text)
    for token in tokens:
        try:
            n = int(token)
        except ValueError:
            raise ValueError(f"expected a table order, got {token!r}")
        if n < 1:
            raise ValueError(f"tables of order {n} are below the bound n >= 1")
        if max_order is not None and n > max_order:
            raise ValueError(f"tables of order {n} exceed the bound n <= {max_order}")
        # each cell takes at least one character, so no larger n can fit
        fits = n * n <= len(text)
        words = list(islice(tokens, n * n)) if fits else []
        if not fits or len(words) < n * n:
            raise ValueError(f"truncated table of order {n}")
        try:
            cells = np.fromiter(map(int, words), dtype=np.int64, count=n * n)
        except OverflowError:
            raise ValueError("table entries must be indices in [0, n)")
        yield CayleyTable(n, cells.reshape(n, n))
