"""Seeded input for the `verify` half of the tables-io workload.

The input file mixes three kinds of Cayley tables, each with a verdict the
benchmark knows without asking medialq:

* exported tables relabelled by a random symbol permutation.  They are
  isomorphic to affine tables, so they are Latin and medial;
* affine tables x*y = a*x + b*y + c over Z_n made here, with a and b units
  mod n.  They are Latin and medial by the Toyoda-Bruck construction;
* copies of tables of the first two kinds with one cell changed.  The new
  value already occurs elsewhere in that row, so the copy is not Latin; it is
  reported non-medial only once a violating quadruple has been found.

Idempotent counts are read off each table's diagonal.  Everything here is
plain Python and depends only on the seed and the source tables.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

RELABELLED = 16
AFFINE = 2
AFFINE_ORDER = 81
EDITED = 4


@dataclass(frozen=True)
class Case:
    kind: str  # "relabelled", "affine" or "edited"
    rows: tuple
    latin: bool
    medial: bool

    @property
    def idempotents(self) -> int:
        return sum(1 for i, row in enumerate(self.rows) if row[i] == i)


def parse_table(text: str) -> tuple:
    """One table in the export format: the order, then n rows of n indices."""
    tokens = text.split()
    n = int(tokens[0])
    flat = [int(v) for v in tokens[1:]]
    if len(flat) != n * n:
        raise ValueError(f"table of order {n} has {len(flat)} entries")
    return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))


def table_text(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, row)) for row in rows]) + "\n"


def relabel(rows, perm) -> tuple:
    """The table with every symbol s renamed perm[s]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        target = out[perm[i]]
        for j, v in enumerate(row):
            target[perm[j]] = perm[v]
    return tuple(tuple(r) for r in out)


def cyclic_affine(n: int, a: int, b: int, c: int) -> tuple:
    return tuple(tuple((a * x + b * y + c) % n for y in range(n)) for x in range(n))


def is_latin_plain(rows) -> bool:
    n = len(rows)
    full = set(range(n))
    return all(set(row) == full for row in rows) and all(
        {row[j] for row in rows} == full for j in range(n)
    )


def is_medial_plain(rows) -> bool:
    """(x*y)*(u*v) == (x*u)*(y*v) for all n^4 quadruples, in plain Python."""
    n = len(rows)
    r = range(n)
    return all(
        rows[rows[x][y]][rows[u][v]] == rows[rows[x][u]][rows[y][v]]
        for x in r
        for y in r
        for u in r
        for v in r
    )


def _violated_near(rows, i: int, j: int) -> bool:
    """Search the quadruples that read cell (i, j) as an inner product."""
    r = range(len(rows))

    def holds(x, y, u, v):
        return rows[rows[x][y]][rows[u][v]] == rows[rows[x][u]][rows[y][v]]

    # (x, y) = (i, j) reads it on the left, (x, u) = (i, j) on the right.
    return any(not holds(i, j, u, v) or not holds(i, u, j, v) for u in r for v in r)


def edit_one_cell(rows, rng: random.Random) -> tuple:
    """Copy of a Latin table with one cell set to another symbol of its row."""
    n = len(rows)
    i, j = rng.randrange(n), rng.randrange(n)
    new = rng.choice([v for v in range(n) if v != rows[i][j]])
    edited = [list(row) for row in rows]
    edited[i][j] = new
    edited = tuple(tuple(row) for row in edited)
    medial = not _violated_near(edited, i, j) and is_medial_plain(edited)
    return edited, medial


def make_cases(sources, seed: int, *, relabelled=RELABELLED, affine=AFFINE,
               affine_order=AFFINE_ORDER, edited=EDITED) -> list:
    """The verify input for a seed, in file order.

    `sources` are Latin, medial tables (the exported ones); `relabelled` of
    them are drawn and relabelled, `affine` tables of order `affine_order`
    are generated, and `edited` of all those get one cell changed.
    """
    rng = random.Random(seed)
    cases = []
    for k in rng.sample(range(len(sources)), relabelled):
        rows = sources[k]
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        cases.append(Case("relabelled", relabel(rows, perm), True, True))
    units = [u for u in range(1, affine_order) if math.gcd(u, affine_order) == 1]
    for _ in range(affine):
        a, b = rng.choice(units), rng.choice(units)
        table = cyclic_affine(affine_order, a, b, rng.randrange(affine_order))
        cases.append(Case("affine", table, True, True))
    for base in rng.sample(cases, edited):
        rows, medial = edit_one_cell(base.rows, rng)
        cases.append(Case("edited", rows, False, medial))
    rng.shuffle(cases)
    return cases


def expected_lines(cases) -> list:
    """The lines `medialq verify` must print for these cases."""
    yes = {True: "yes", False: "no"}
    return [
        f"table {i}: order {len(c.rows)} latin={yes[c.latin]} "
        f"medial={yes[c.medial]} idempotents={c.idempotents}"
        for i, c in enumerate(cases)
    ]


class _ExportedTables(Sequence):
    """The tables of an export directory, parsed only when drawn."""

    def __init__(self, export_dir: Path):
        self._files = sorted(export_dir.iterdir())

    def __len__(self) -> int:
        return len(self._files)

    def __getitem__(self, i):
        return parse_table(self._files[i].read_text())


def write_verify_input(export_dir: Path, seed: int, path: Path) -> list:
    """Build the verify file from exported tables; return the expected lines."""
    cases = make_cases(_ExportedTables(export_dir), seed)
    path.write_text("".join(table_text(c.rows) for c in cases))
    return expected_lines(cases)
