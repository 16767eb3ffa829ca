"""Isomorphism-class enumeration of quasigroups affine over an abelian group.

One triple (phi, psi, c) is listed per isomorphism class:

  * phi ranges over conjugacy-class representatives of Aut(G);
  * psi ranges over conjugacy-class representatives of the centralizer
    C(phi), conjugation taken inside C(phi) itself;
  * c ranges over orbit representatives of the action of C(phi) & C(psi)
    on the quotient G / Im(1 - phi - psi).

For the rank-2 group Z_p x Z_p the representative list is tagged with a
closed vocabulary of 15 case labels (four kinds of phi, sub-split by the
kind of psi where phi is scalar, and by the computed rank of the difference
matrix 1 - phi - psi).  Rank conditions are always computed from the matrix
itself, never from per-case algebraic shortcuts.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .fp import Prime
from .gl2 import (
    SCALAR,
    Automorphism,
    Mat2,
    Subgroup,
    centralizer,
    check_pair,
    conj_class_reps,
    conjugacy_partition,
    units,
)
from .groups import CosetList, Cyclic, GroupSpec, quotient_cosets

CASE_TAG_CYCLIC = "cyclic"

CASE_TAGS_RANK2 = (
    "case1.scalar-scalar.regular",
    "case1.scalar-scalar.singular",
    "case1.scalar-distinct.regular",
    "case1.scalar-distinct.singular",
    "case1.scalar-jordan.regular",
    "case1.scalar-jordan.singular",
    "case1.scalar-irreducible.regular",
    "case2.distinct-diag.regular",
    "case2.distinct-diag.rank1",
    "case2.distinct-diag.rank0",
    "case3.jordan.regular",
    "case3.jordan.rank1",
    "case3.jordan.rank0",
    "case4.irreducible.regular",
    "case4.irreducible.singular",
)


@dataclass(frozen=True)
class RepresentativeTriple:
    phi: Automorphism
    psi: Automorphism
    c: object
    case_tag: str


@dataclass(frozen=True, eq=False)
class EnumerationReport:
    group: GroupSpec
    triples: tuple
    tallies: dict

    def __post_init__(self):
        if self.total != sum(self.tallies.values()):
            raise ValueError("report total disagrees with triples/tallies")

    @property
    def total(self) -> int:
        return len(self.triples)


def _one_minus(G: GroupSpec, phi: Automorphism, psi: Automorphism):
    """The endomorphism 1 - phi - psi, as a residue or a (possibly singular) matrix."""
    if isinstance(G, Cyclic):
        return (1 - phi.value - psi.value) % G.order
    return Mat2.identity(G.p) - phi - psi


@lru_cache(maxsize=None)
def _kinds(p: int) -> dict:
    """Kind of each conjugacy-class representative of GL(2, p), keyed on its matrix."""
    return {rep.matrix(): rep.kind for rep in conj_class_reps(p)}


def reps_x(G: GroupSpec) -> tuple:
    """Conjugacy-class representatives of Aut(G).

    Aut of a cyclic group is abelian, so every unit is its own class; for
    Z_p x Z_p the representatives are the four matrix kinds, checked (once
    per prime, via the brute-force partition) to be a transversal of GL(2, p).
    """
    if isinstance(G, Cyclic):
        return units(G.p, G.k)
    conjugacy_partition(G.p)  # raises unless the list is a transversal of GL(2,p)
    return tuple(_kinds(G.p))


def reps_y(G: GroupSpec, phi: Automorphism) -> tuple:
    """Conjugacy-class representatives of C(phi), conjugating inside C(phi).

    For a unit or a scalar phi the centralizer is all of Aut(G), so the
    `reps_x` transversal is reused.  For the other kinds `centralizer` has
    verified C(phi) to be commutative, so it is its own transversal.
    """
    reps = reps_x(G)
    if phi not in reps:
        raise ValueError(f"{phi} is not a designated representative")
    if isinstance(G, Cyclic) or phi.is_scalar():
        return reps
    return centralizer(phi)


def stabilizer(G: GroupSpec, phi: Automorphism, psi: Automorphism) -> Subgroup:
    """C(phi) & C(psi): every automorphism commuting with both."""
    check_pair(G, phi, psi)
    if isinstance(G, Cyclic):
        return units(G.p, G.k)
    # A scalar phi is central, so this is C(psi).  Otherwise psi lies in C(phi),
    # which `centralizer` checks to be commutative, so this is C(phi).
    return centralizer(psi if phi.is_scalar() else phi)


_ACTION_CHUNK = 1 << 14  # action-array entries held at a time by _orbit_reps


@lru_cache(maxsize=None)
def _orbit_reps(G: GroupSpec, maps: Subgroup, cosets: CosetList) -> tuple:
    """Orbit representatives of a stabilizer acting on the given coset list.

    The stored hash of the stabilizer `Subgroup` keys the cache; only its codes are read.

    The action is taken in blocks of stabilizer elements, so memory is
    bounded by the block size: row s of a block holds, for every coset
    representative r, the coset of h_s(r).  The orbit of r under a group is
    its set of images, so the first pass labels each coset with its least
    image (or itself).  The second pass raises unless every map keeps every
    label, which holds for a group.  That check makes the result exact for
    any list of maps: each edge then stays inside one label class, and each
    label lies in its own coset's component, so the label classes are the
    connected components of the action graph.  Each orbit is represented by
    its least coset representative in element order (coset positions follow
    element order), and the zero coset's orbit comes first.
    """
    n = len(cosets)
    step = max(1, _ACTION_CHUNK // n)
    blocks = range(0, len(maps), step)

    def images(s):
        return cosets.coset_of[G.index_action(maps.codes[s : s + step], cosets.rep_index)]

    least = np.arange(n)
    for s in blocks:
        least = np.minimum(least, images(s).min(axis=0))
    for s in blocks:
        if (least[images(s)] != least).any():
            raise ValueError("the maps do not act as a group: one moves a least image")
    roots = np.flatnonzero(least == np.arange(n)).tolist()
    return tuple(cosets.representatives[i] for i in roots)


def orbit_reps_c(G: GroupSpec, phi: Automorphism, psi: Automorphism) -> tuple:
    """Orbit representatives of C(phi) & C(psi) on G / Im(1 - phi - psi)."""
    check_pair(G, phi, psi)
    cosets = quotient_cosets(G, _one_minus(G, phi, psi))
    if len(cosets) == 1:
        return (G.zero,)
    return _orbit_reps(G, stabilizer(G, phi, psi), cosets)


def _case_tag(G: GroupSpec, phi: Automorphism, psi: Automorphism) -> str:
    """The constant cyclic tag, or the rank-2 case from the kinds and the rank of 1 - phi - psi."""
    if isinstance(G, Cyclic):
        return CASE_TAG_CYCLIC
    kinds = _kinds(G.p)
    rank = _one_minus(G, phi, psi).rank()
    if kinds[phi] == SCALAR:
        state = "regular" if rank == 2 else "singular"
        return f"case1.scalar-{kinds[psi]}.{state}"
    if kinds[phi] == "distinct":
        return "case2.distinct-diag." + {2: "regular", 1: "rank1", 0: "rank0"}[rank]
    if kinds[phi] == "jordan":
        return "case3.jordan." + {2: "regular", 1: "rank1", 0: "rank0"}[rank]
    return "case4.irreducible." + ("regular" if rank == 2 else "singular")


def _triples(G: GroupSpec, phi: Automorphism) -> list:
    out = []
    for psi in reps_y(G, phi):
        tag = _case_tag(G, phi, psi)
        out.extend(RepresentativeTriple(phi, psi, c, tag) for c in orbit_reps_c(G, phi, psi))
    return out


def enumerate_forms(G: GroupSpec, jobs: int = 1) -> EnumerationReport:
    """Full representative-triple list for G, with per-case tallies.

    Work may be partitioned across the phi representatives (`jobs` worker
    processes at most, see `pool_size`); the output is identical at any job
    count.
    """
    keys = reps_x(G)
    tags = (CASE_TAG_CYCLIC,) if isinstance(G, Cyclic) else CASE_TAGS_RANK2
    tallies = dict.fromkeys(tags, 0)
    chunks = parallel_map(partial(_triples, G), keys, jobs)
    triples = tuple(t for chunk in chunks for t in chunk)
    for t in triples:
        tallies[t.case_tag] += 1
    return EnumerationReport(G, triples, tallies)


def pool_size(jobs: int, items: int) -> int:
    """Worker processes to start: min(jobs, CPU count, work items); jobs must be >= 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, items))


def parallel_map(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in order, on `pool_size(jobs, len(items))` processes."""
    items = list(items)
    workers = pool_size(jobs, len(items))
    if workers == 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def closed_form_cyclic(p: int, k: int) -> int:
    """Number of medial quasigroups affine over Z_{p^k}, up to isomorphism."""
    G = Cyclic(p, k)  # checks p and k
    p, k = G.p, G.k
    return (
        p ** (2 * k)
        + p ** (2 * k - 2)
        - p ** (k - 1)
        - sum(p ** i for i in range(k - 1, 2 * k))
    )


def closed_form_zp2(p: int) -> int:
    """Number of medial quasigroups affine over Z_p x Z_p, up to isomorphism."""
    p = Prime(p)
    return p ** 4 - p ** 2 - p - 1


def closed_form_order_p2(p: int) -> int:
    """Number of medial quasigroups of order p^2, up to isomorphism."""
    p = Prime(p)
    return 2 * p ** 4 - p ** 3 - p ** 2 - 3 * p - 1


# count_composite factors by trial division, up to sqrt(n) steps: about a
# million at this cap, a fraction of a second.
MAX_COMPOSITE_ORDER = 10 ** 12


def factorize(n: int) -> list:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            factors.append((d, k))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return factors


def count_composite(n: int) -> int:
    """Number of medial quasigroups of order n, by multiplicativity.

    Supported for n whose prime factorization has exponents <= 2 only;
    higher prime powers are an open counting problem.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if n > MAX_COMPOSITE_ORDER:
        raise ValueError(f"order {n} exceeds the supported cap {MAX_COMPOSITE_ORDER}")
    result = 1
    for p, k in factorize(n):
        if k == 1:
            result *= closed_form_cyclic(p, 1)
        elif k == 2:
            result *= closed_form_order_p2(p)
        else:
            raise ValueError(f"unknown prime-power count for {p}^{k}")
    return result


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with exact rational coefficients, ascending powers."""

    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0 and self.degree > 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{mag} {x}"
            if not terms:
                terms.append(body if sign == "+" else f"-{body}")
            else:
                terms.append(f"{sign} {body}")
        return " ".join(terms) if terms else "0"


def _poly_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def interpolate_count_polynomial(points) -> Polynomial:
    """Unique Lagrange interpolant through the points, in exact rationals."""
    points = list(points)
    if not points:
        raise ValueError("at least one point is required")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    acc = [Fraction(0)] * len(points)
    for xi, yi in points:
        num = [Fraction(1)]
        den = Fraction(1)
        for xj in xs:
            if xj == xi:
                continue
            num = _poly_mul(num, [Fraction(-xj), Fraction(1)])
            den *= xi - xj
        scale = Fraction(yi) / den
        for i, v in enumerate(num):
            acc[i] += scale * v
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return Polynomial(tuple(acc))


def group_label(G: GroupSpec) -> str:
    """Stable textual group identifier used in reports and exports."""
    if isinstance(G, Cyclic):
        return f"cyclic:p={int(G.p)},k={G.k}"
    return f"zp2:p={int(G.p)}"


def jsonl_record(G: GroupSpec, triple: RepresentativeTriple, table=None) -> dict:
    """One export record; matrices flatten row-major, elements to component lists."""
    if isinstance(G, Cyclic):
        phi, psi = triple.phi.value, triple.psi.value
        c = [triple.c]
    else:
        phi, psi = list(triple.phi.entries), list(triple.psi.entries)
        c = list(triple.c)
    record = {
        "group": group_label(G),
        "phi": phi,
        "psi": psi,
        "c": c,
        "case_tag": triple.case_tag,
    }
    if table is not None:
        record["table"] = table.cells.tolist()
    return record
