"""Affine quasigroups x*y = phi(x) + psi(y) + c and their Cayley tables.

Group elements are mapped to table indices through the group's deterministic
element order, so the table built from a given form is canonical and can be
diffed across runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from typing import Optional

import numpy as np

from .gl2 import Automorphism, check_pair
from .groups import GroupSpec, _add_table


@dataclass(frozen=True)
class AffineForm:
    """A quintuple (G, +, phi, psi, c) with commuting automorphisms phi, psi."""

    group: GroupSpec
    phi: Automorphism
    psi: Automorphism
    c: object

    def __post_init__(self):
        check_pair(self.group, self.phi, self.psi)
        self.group.check(self.c)


@dataclass(frozen=True, eq=False)
class CayleyTable:
    """An n x n operation table over the symbols 0 .. n-1.

    `cells` is a read-only (n, n) array of the smallest unsigned dtype that
    holds n - 1; it may be given as any nested sequence of ints or integer
    array.  Construction validates shape and symbol range only; whether the
    table is a Latin square (i.e. a quasigroup) is a separate question
    answered by `is_latin`.  `rows` is the same table as a tuple of row
    tuples, derived on first use, for pure-Python indexing.
    """

    n: int
    cells: np.ndarray

    def __post_init__(self):
        n = self.n
        if n < 1 or len(self.cells) != n:
            raise ValueError("table shape does not match its order")
        try:
            a = np.asarray(self.cells)
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


def build_table(form: AffineForm) -> CayleyTable:
    """Cayley table of x*y = phi(x) + psi(y) + c in the group's element order."""
    G = form.group
    add = _add_table(G)
    pv, qv = G.index_action((int(form.phi), int(form.psi)), np.arange(G.order))
    return CayleyTable(G.order, add[add[pv[:, None], qv[None, :]], G.index(form.c)])


def is_latin(t: CayleyTable) -> bool:
    """True iff every row and every column is a permutation of 0 .. n-1."""
    a = t.cells
    want = np.arange(t.n, dtype=a.dtype)
    return bool(
        (np.sort(a, axis=1) == want).all() and (np.sort(a, axis=0) == want[:, None]).all()
    )


def is_medial(t: CayleyTable) -> bool:
    """Exhaustive check of (x*y)*(u*v) == (x*u)*(y*v) over all n^4 quadruples.

    The check is the naive one, vectorized one x at a time so that memory
    grows as n^3: A[y,u,v] = (x*y)*(u*v) reads the rows x*y at the columns
    u*v, and (x*u)*(y*v) is A with the first two axes swapped.  Nothing
    about the table is assumed; the first failing x ends the check.
    """
    src = t.cells
    for row in src:
        A = np.take(src[row], src, axis=1)
        if not (A == A.transpose(1, 0, 2)).all():
            return False
    return True


def count_idempotents(t: CayleyTable) -> int:
    """Number of symbols i with i*i = i (an isomorphism invariant)."""
    return int(np.count_nonzero(t.cells.diagonal() == np.arange(t.n)))


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple:
    """Text of each symbol 0 .. n-1 followed by a space, and by a newline."""
    spaced = np.array([f"{i} " for i in range(n)], dtype=object)
    ended = np.array([f"{i}\n" for i in range(n)], dtype=object)
    return spaced, ended


def to_text(t: CayleyTable) -> str:
    """Bit-exact text form: 'n' line, then n rows of space-separated indices."""
    spaced, ended = _labels(t.n)
    words = spaced[t.cells]
    words[:, -1] = ended[t.cells[:, -1]]
    return f"{t.n}\n" + "".join(words.ravel().tolist())


_SPACE = re.compile(r"\s")  # the characters str.split() splits on


def _tokens(text: str, chunk: int = 1 << 16):
    """text.split(), lazily: one chunk at a time, each cut after a whitespace."""
    start = 0
    while start < len(text):
        cut = _SPACE.search(text, min(start + chunk, len(text)))
        end = cut.end() if cut else len(text)
        yield from text[start:end].split()
        start = end


def tables_from_text(text: str, max_order: Optional[int] = None) -> list:
    """Parse one or more concatenated text-format tables.

    A table whose order is below 1 or exceeds `max_order` is rejected as
    soon as its order is read, before any of its cells.
    """
    tokens = _tokens(text)
    tables = []
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
        tables.append(CayleyTable(n, cells.reshape(n, n)))
    return tables
