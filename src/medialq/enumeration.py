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
matrix 1 - phi - psi).  Rank conditions are always read from the exhaustive
image of that matrix, never from per-case algebraic shortcuts.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fp import Prime, _Frozen, _least_factor
from .gl2 import (
    DISTINCT,
    JORDAN,
    SCALAR,
    Automorphism,
    _aut_codes,
    _automorphisms,
    centralizer,
    check_pairs,
    conj_class_reps,
    conjugacy_partition,
    units,
)
from .groups import CosetList, Cyclic, GroupSpec, quotient_cosets, quotients

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


class RepresentativeTriple(_Frozen):
    _fields = ("phi", "psi", "c", "case_tag")

    def __init__(self, phi: Automorphism, psi: Automorphism, c, case_tag: str):
        _set = object.__setattr__
        _set(self, "phi", phi)
        _set(self, "psi", psi)
        _set(self, "c", c)
        _set(self, "case_tag", case_tag)


class EnumerationReport(_Frozen):
    """The triples of G, with their tallies per case tag in the family's tag order.  Reports compare by identity."""

    _fields = ("group", "triples", "tallies")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, group: GroupSpec, triples: tuple):
        tags = (CASE_TAG_CYCLIC,) if isinstance(group, Cyclic) else CASE_TAGS_RANK2
        tallies = dict.fromkeys(tags, 0)
        for t in triples:
            tallies[t.case_tag] += 1  # a KeyError for a tag outside the vocabulary
        _set = object.__setattr__
        _set(self, "group", group)
        _set(self, "triples", triples)
        _set(self, "tallies", tallies)

    @property
    def total(self) -> int:
        return len(self.triples)


def _one_minus(G: GroupSpec, phi: int, psis) -> np.ndarray:
    """The codes of the endomorphisms 1 - phi - psi, one per psi code of `psis`: residues, or (possibly singular) matrix codes."""
    one, f = G._entries([G._identity, phi])
    return G._code(one - f - G._entries(psis))


@lru_cache(maxsize=None)
def reps_x(G: GroupSpec) -> np.ndarray:
    """The codes of the conjugacy-class representatives of Aut(G), in a read-only array, made once per group.

    Aut of a cyclic group is abelian, so every unit is its own class.  For
    Z_p x Z_p they are the keys of `conj_class_reps(p)`, in its order,
    checked (once per prime, by `conjugacy_partition`) to be a transversal.
    Every block reads this array, to check its phi and to find its kind.
    """
    if isinstance(G, Cyclic):  # Aut(G) is abelian
        return units(G.p, G.k)
    conjugacy_partition(G.p)  # raises unless the list is a transversal of GL(2,p)
    codes = np.array([int(R) for R in conj_class_reps(G.p)], dtype=np.int64)
    codes.setflags(write=False)
    return codes


def reps_y(G: GroupSpec, phi: int) -> np.ndarray:
    """The codes of the conjugacy-class representatives of C(phi), conjugating inside C(phi).

    For a scalar phi (every unit is one) the centralizer is all of Aut(G),
    so the `reps_x` transversal is reused.  For the other kinds `gl2.centralizer`
    has verified C(phi) to be commutative, so it is its own transversal.
    phi must be the code of a representative in `reps_x(G)`.
    """
    reps = reps_x(G)  # checks the transversal
    if not (isinstance(phi, (int, np.integer)) and (reps == phi).any()):
        raise ValueError(f"{phi!r} is not the code of a designated representative of {G}")
    return reps if phi % G._identity == 0 else centralizer(G.p, phi)


def stabilizer(G: GroupSpec, phi: int, psi: int) -> np.ndarray:
    """The codes of C(phi) & C(psi), every automorphism commuting with both, in a read-only array.

    The scalars are the multiples of the identity's code, every unit among
    them.  A scalar phi is central, so this is C(psi), all of Aut(G) for a
    scalar psi.  Otherwise psi lies in C(phi), which `centralizer` checks to
    be commutative, so this is C(phi).
    """
    check_pairs(G, phi, (psi,))
    fixed = psi if phi % G._identity == 0 else phi
    return _aut_codes(G) if fixed % G._identity == 0 else centralizer(G.p, fixed)


_ACTION_CHUNK = 1 << 14  # action-array entries held at a time by _orbit_reps


@lru_cache(maxsize=None)
def _orbit_reps(G: GroupSpec, maps: bytes, cosets: CosetList) -> tuple:
    """Orbit representatives of a stabilizer acting on the given coset list.

    `maps` holds the stabilizer's codes as int64 bytes, which key the cache.

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
    codes = np.frombuffer(maps, dtype=np.int64)
    n = len(cosets)
    step = max(1, _ACTION_CHUNK // n)
    blocks = range(0, len(codes), step)

    def images(s):
        return cosets.coset_of[G.index_action(codes[s : s + step], cosets.rep_index)]

    least = np.arange(n)
    for s in blocks:
        least = np.minimum(least, images(s).min(axis=0))
    for s in blocks:
        if (least[images(s)] != least).any():
            raise ValueError("the maps do not act as a group: one moves a least image")
    roots = np.flatnonzero(least == np.arange(n)).tolist()
    return tuple(cosets.representatives[i] for i in roots)


def orbit_reps_c(G: GroupSpec, phi: int, psi: int) -> tuple:
    """Orbit representatives of C(phi) & C(psi) on G / Im(1 - phi - psi), for automorphism codes phi and psi."""
    check_pairs(G, phi, (psi,))
    cosets = quotient_cosets(G, _one_minus(G, phi, (psi,))[0])
    if len(cosets) == 1:
        return (G.zero,)
    return _orbit_reps(G, stabilizer(G, phi, psi).tobytes(), cosets)


_RANK_SUFFIX = {2: "regular", 1: "rank1", 0: "rank0"}  # the rank-split tags of cases 2 and 3


def _tag(p: int, phi_kind: str, psi_kind: str, cosets: CosetList) -> str:
    """The rank-2 case tag from the kinds, and the rank of 1 - phi - psi read from its image's order."""
    rank = {1: 0, p: 1, p * p: 2}[cosets.subgroup_order]
    if phi_kind == SCALAR:
        return f"case1.scalar-{psi_kind}." + ("regular" if rank == 2 else "singular")
    if phi_kind == DISTINCT:
        return "case2.distinct-diag." + _RANK_SUFFIX[rank]
    if phi_kind == JORDAN:
        return "case3.jordan." + _RANK_SUFFIX[rank]
    return "case4.irreducible." + ("regular" if rank == 2 else "singular")


def _block(G: GroupSpec, phi: int, table: list) -> tuple:
    """The block of the phi code: (phi, psis, tags, cs), one case tag and one tuple of c representatives per psi.

    psis holds the psi codes, `reps_y(G, phi)`.  The pair check, 1 - phi -
    psi and its image are computed for all psi at once, from their codes.
    Aut(Z_{p^k}) is abelian, so every stabilizer is all of it, and the c
    representatives depend on the code m = 1 - phi - psi alone: `table`,
    shared by one enumeration's blocks, holds them by m.  The images of a
    block's new m are taken at once, and `orbit_reps_c` finds the orbits of
    a pair reaching m where the quotient is not trivial.  Rank-2 blocks do not read it.
    """
    psis = reps_y(G, phi)
    check_pairs(G, phi, psis)
    ms = _one_minus(G, phi, psis)
    if isinstance(G, Cyclic):  # Aut(G) is abelian
        ms = ms.tolist()
        cs = tuple(map(table.__getitem__, ms))
        if None in cs:
            new = {m: psi for m, psi, c in zip(ms, psis.tolist(), cs) if c is None}
            for (m, psi), quotient in zip(new.items(), quotients(G, list(new))):
                table[m] = (G.zero,) if len(quotient) == 1 else orbit_reps_c(G, phi, psi)
            cs = tuple(map(table.__getitem__, ms))
        return phi, psis, (CASE_TAG_CYCLIC,) * len(psis), cs
    p, kinds = G.p, tuple(conj_class_reps(G.p).values())
    kind = kinds[reps_x(G).tolist().index(phi)]
    cosets = quotients(G, ms)

    # C(phi) & C(psi) is C(fixed): C(psi) for a scalar phi, else C(phi), as in `stabilizer`
    def tail(psi_kind, quotient, fixed):
        cs = (G.zero,) if len(quotient) == 1 else _orbit_reps(G, centralizer(p, fixed).tobytes(), quotient)
        return _tag(p, kind, psi_kind, quotient), cs

    if kind == SCALAR:  # psis are `reps_x(G)`, in the order of their kinds
        tails = [tail(k, q, psi) for psi, k, q in zip(psis.tolist(), kinds, cosets)]
    else:  # one stabilizer, C(phi), for every psi
        by_quotient = {q: tail(None, q, phi) for q in set(cosets)}
        tails = [by_quotient[q] for q in cosets]
    return phi, psis, tuple(tag for tag, _ in tails), tuple(cs for _, cs in tails)


def enumerate_blocks(G: GroupSpec):
    """Yield the block of every phi representative, in phi order, as each is made.

    A block is `(phi, psis, tags, cs)`: the phi code, the psi codes of
    `reps_y(G, phi)` in one read-only int64 array, and per psi its case tag
    and the tuple of its c representatives.
    """
    table = [None] * G.order
    return (_block(G, phi, table) for phi in reps_x(G).tolist())


def enumerate_forms(G: GroupSpec) -> EnumerationReport:
    """Full representative-triple list for G, with per-case tallies: a `Unit` or `Mat2` built once per phi and per psi."""
    triples = []
    for phi, psis, tags, cs in enumerate_blocks(G):
        autos = _automorphisms(G, [phi, *psis.tolist()])
        triples += [
            RepresentativeTriple(autos[0], psi, c, tag) for psi, tag, c_reps in zip(autos[1:], tags, cs) for c in c_reps
        ]
    return EnumerationReport(G, tuple(triples))


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
    """The pairs (p, k) of n's factorization, ascending in p; empty for n < 2."""
    factors = []
    while n > 1:
        p, k = _least_factor(n), 0
        while n % p == 0:
            n, k = n // p, k + 1
        factors.append((p, k))
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


class Polynomial(_Frozen):
    """Polynomial with exact rational coefficients, ascending powers."""

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __call__(self, x):
        """The value at x, a `fractions.Fraction`."""
        from fractions import Fraction

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


def interpolate_count_polynomial(points) -> Polynomial:
    """Unique Lagrange interpolant through the points, in exact rationals."""
    from fractions import Fraction  # only the interpolation needs rationals: not loaded at start-up

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
            num = [hi - xj * lo for lo, hi in zip(num + [0], [0] + num)]  # times x - xj
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
