"""Affine quasigroups x*y = phi(x) + psi(y) + c and their Cayley tables.

Group elements are mapped to table indices through the group's deterministic
element order, so the table built from a given form is canonical and can be
diffed across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gl2 import Automorphism, Mat2, Unit, _raw, commutes
from .groups import Cyclic, GroupSpec, _add_table


@dataclass(frozen=True)
class AffineForm:
    """A quintuple (G, +, phi, psi, c) with commuting automorphisms phi, psi."""

    group: GroupSpec
    phi: Automorphism
    psi: Automorphism
    c: object

    def __post_init__(self):
        G = self.group
        for f in (self.phi, self.psi):
            if isinstance(G, Cyclic):
                if not isinstance(f, Unit) or f.modulus != G.order:
                    raise ValueError(f"{f} does not act on {G}")
            else:
                if not isinstance(f, Mat2) or f.p != G.p:
                    raise ValueError(f"{f} does not act on {G}")
                if f.det() == 0:
                    raise ValueError(f"{f} is not an automorphism of {G}")
        if not commutes(self.phi, self.psi):
            raise ValueError("phi and psi do not commute")
        G.check(self.c)


@dataclass(frozen=True)
class CayleyTable:
    """An n x n operation table over the symbols 0 .. n-1.

    Construction validates shape and symbol range only; whether the table is
    a Latin square (i.e. a quasigroup) is a separate question answered by
    `is_latin`.
    """

    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.rows) != self.n:
            raise ValueError("table shape does not match its order")
        for row in self.rows:
            if len(row) != self.n or not all(
                isinstance(v, int) and 0 <= v < self.n for v in row
            ):
                raise ValueError("table entries must be indices in [0, n)")


def build_table(form: AffineForm) -> CayleyTable:
    """Cayley table of x*y = phi(x) + psi(y) + c in the group's element order."""
    G = form.group
    add = _add_table(G)
    pv, qv = G.index_action((_raw(form.phi), _raw(form.psi)), np.arange(G.order))
    rows = add[add[pv[:, None], qv[None, :]], G.index(form.c)]
    return CayleyTable(G.order, tuple(map(tuple, rows.tolist())))


def is_latin(t: CayleyTable) -> bool:
    """True iff every row and every column is a permutation of 0 .. n-1."""
    a = np.asarray(t.rows, dtype=np.int16)
    want = np.arange(t.n, dtype=np.int16)
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
    src = np.asarray(t.rows, dtype=np.int16)
    for row in src:
        A = src[row][:, src]
        if not (A == A.transpose(1, 0, 2)).all():
            return False
    return True


def count_idempotents(t: CayleyTable) -> int:
    """Number of symbols i with i*i = i (an isomorphism invariant)."""
    return sum(1 for i in range(t.n) if t.rows[i][i] == i)


def to_text(t: CayleyTable) -> str:
    """Bit-exact text form: 'n' line, then n rows of space-separated indices."""
    lines = [str(t.n)]
    lines.extend(" ".join(str(v) for v in row) for row in t.rows)
    return "\n".join(lines) + "\n"


def tables_from_text(text: str) -> list:
    """Parse one or more concatenated text-format tables."""
    tokens = text.split()
    tables = []
    pos = 0
    while pos < len(tokens):
        try:
            n = int(tokens[pos])
        except ValueError:
            raise ValueError(f"expected a table order, got {tokens[pos]!r}")
        pos += 1
        if n < 1 or pos + n * n > len(tokens):
            raise ValueError(f"truncated table of order {n}")
        flat = [int(v) for v in tokens[pos : pos + n * n]]
        pos += n * n
        rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        tables.append(CayleyTable(n, rows))
    return tables
