"""Test-only references: definitions the package no longer calls, and plain forms of its results.

`_case_tag` is the per-pair case tag that the enumeration computed before
its blocks were made from code arrays; `filter_centralizer` is the
brute-force centralizer filter over all of GL(2, p) that the null-space
`gl2.centralizer` replaced.  `ref_reps_x`, `ref_reps_y` and
`ref_stabilizer` list, as `Unit` and `Mat2` objects found by brute force,
what `enumeration.reps_x`, `reps_y` and `stabilizer` return as codes, in
their order.  `automorphism`, `as_matrices` and `partition_classes` turn
the package's codes back into `Unit` and `Mat2` objects, so the tests can
compare them with object-level references.  The rest moved here from the package
as they were, since only the tests call them: `count_irreducible_quadratics`
(from `fp`), `gl2_order` and `parametrized_centralizer` (from `gl2`),
`jsonl_record` (from `enumeration`, the byte reference of the CLI's output
templates), `relabel`, `all_latin_squares`, `_cycle_lengths` and
`_signatures` (from `oracle`), `identity_matrix` and `zero_matrix` (the
classmethods `Mat2.identity` and `Mat2.zero`), `mul`, `sub`, `rank` and `inv`
(the `Mat2` methods `mul`, `__sub__`, `rank` and `inv`), `det` and
`is_scalar` (the `Mat2` methods of those names), and `add` and
`apply` (the methods of `Cyclic` and `ElemAbelianRank2`).  `mul` (row
times column) and `products` (numpy's `matmul` on entry arrays of r x r
matrices, 1 x 1 ones included) multiply matrices by rules of their own, so
no reference shares the package's product `gl2._mul`.  `gl2_entries` lists
GL(2, p) from every row of F_p^4 by its own determinant, and `matrix_codes`
writes the base-p digits of entry rows, so neither shares the package's
`gl2._aut_codes` or its code conversion; `gl2_elements` is that list as
`Mat2` objects.  The package listed it so as `gl2.gl2_elements`, and
`are_isomorphic` is the package's former `oracle.are_isomorphic`, one
`_iso_search` on the symbol codes of one `_invariants` call: neither had a
caller in the package.  `walk_fingerprint` and
`tuple_classify` are the oracle's fingerprint and `classify` as they were
before its invariants came from one array pass: per-table walks and
signature tuples, in one process.  `medial_scan` is `quasigroup.is_medial`
as it was before the affine certificate: every quadruple, one x at a time.
"""

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from medialq.enumeration import _RANK_SUFFIX, CASE_TAG_CYCLIC, RepresentativeTriple, _one_minus, group_label
from medialq.fp import fp_inv, is_irreducible_quadratic
from medialq.gl2 import (
    DISTINCT,
    JORDAN,
    SCALAR,
    Mat2,
    Unit,
    conj_class_reps,
    conjugacy_partition,
)
from medialq.groups import Cyclic, GroupSpec, quotient_cosets
from medialq.oracle import Fingerprint, IsoClass, _invariants, _iso_search
from medialq.quasigroup import CayleyTable

LATIN_SCAN_CAP = 4


def _case_tag(G: GroupSpec, phi: Mat2, psi: Mat2) -> str:
    """The constant cyclic tag, or the rank-2 case from the kinds and the rank of 1 - phi - psi.

    The rank is read from the order of the image, 1, p or p^2: the same cached
    image that `orbit_reps_c` takes its cosets from.
    """
    if isinstance(G, Cyclic):
        return CASE_TAG_CYCLIC
    kinds = conj_class_reps(G.p)
    image_order = quotient_cosets(G, _one_minus(G, int(phi), (int(psi),))[0]).subgroup_order
    rank = {1: 0, G.p: 1, G.order: 2}[image_order]
    if kinds[phi] == SCALAR:
        state = "regular" if rank == 2 else "singular"
        return f"case1.scalar-{kinds[psi]}.{state}"
    if kinds[phi] == DISTINCT:
        return "case2.distinct-diag." + _RANK_SUFFIX[rank]
    if kinds[phi] == JORDAN:
        return "case3.jordan." + _RANK_SUFFIX[rank]
    return "case4.irreducible." + ("regular" if rank == 2 else "singular")


def products(x, y, q: int) -> np.ndarray:
    """The entry rows of the r x r matrix products over Z_q of entry arrays x and y, shape (..., r*r) broadcast, by numpy's matmul."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    r = math.isqrt(x.shape[-1])
    xy = x.reshape(x.shape[:-1] + (r, r)) @ y.reshape(y.shape[:-1] + (r, r))
    return xy.reshape(xy.shape[:-2] + (r * r,)) % q


def gl2_entries(p: int) -> np.ndarray:
    """Entry rows (m00, m01, m10, m11) of every invertible 2x2 matrix over F_p, lexicographic: every row of F_p^4 with ad - bc != 0."""
    x = np.indices((p,) * 4).reshape(4, -1).T
    return x[(x[:, 0] * x[:, 3] - x[:, 1] * x[:, 2]) % p != 0]


@lru_cache(maxsize=None)
def gl2_elements(p: int) -> tuple:
    """Every invertible 2x2 matrix over F_p as a `Mat2`, lexicographic by entries: one per row of `gl2_entries`."""
    return tuple(Mat2(*row, p) for row in gl2_entries(p).tolist())


def matrix_codes(x, p: int) -> np.ndarray:
    """The codes of entry rows x, shape (..., 4): the entries, each reduced mod p, as base-p digits, m00 first."""
    x = np.asarray(x) % p
    return ((x[..., 0] * p + x[..., 1]) * p + x[..., 2]) * p + x[..., 3]


def filter_centralizer(A: Mat2) -> list:
    """The codes of {B in GL(2,p) : AB = BA}, ascending: every entry row of GL(2,p) multiplied both ways."""
    p, x = A.p, gl2_entries(A.p)
    x = x[(products(A.entries, x, p) == products(x, A.entries, p)).all(axis=-1)]
    return matrix_codes(x, p).tolist()


def as_matrices(codes, p: int) -> tuple:
    """The `Mat2` of each matrix code, in order; `Mat2` reduces each base-p digit mod p."""
    return tuple(Mat2(c // p ** 3, c // (p * p), c // p, c, p) for c in np.asarray(codes).tolist())


def automorphism(G: GroupSpec, code: int):
    """The `Unit` or `Mat2` of an automorphism code of G."""
    return Unit(code, G.order) if isinstance(G, Cyclic) else as_matrices([code], G.p)[0]


def ref_reps_x(G: GroupSpec) -> list:
    """Aut(G) listed by brute force for Z_{p^k}, every coprime residue; the `conj_class_reps` keys for Z_p x Z_p."""
    if isinstance(G, Cyclic):
        return [Unit(u, G.order) for u in range(1, G.order) if u % G.p]
    return list(conj_class_reps(G.p))


def ref_stabilizer(G: GroupSpec, phi, psi) -> list:
    """Every automorphism of G commuting with phi and psi, in element order: all units, or GL(2, p) filtered by `products`."""
    if isinstance(G, Cyclic):
        return ref_reps_x(G)
    p, x = G.p, gl2_entries(G.p)
    keep = np.ones(len(x), dtype=bool)
    for f in (phi, psi):
        keep &= (products(x, f.entries, p) == products(f.entries, x, p)).all(axis=-1)
    return [Mat2(*row, p) for row in x[keep].tolist()]


def ref_reps_y(G: GroupSpec, phi) -> list:
    """The psi representatives of phi: `ref_reps_x` for a unit or a scalar phi, else all of C(phi)."""
    if isinstance(G, Cyclic) or conj_class_reps(G.p)[phi] == SCALAR:
        return ref_reps_x(G)
    return ref_stabilizer(G, phi, phi)


def partition_classes(p: int) -> tuple:
    """`conjugacy_partition(p)` as one frozenset of `gl2_elements(p)` per class representative."""
    gl, classes = gl2_elements(p), conjugacy_partition(p).tolist()
    members = [set() for _ in range(max(classes) + 1)]
    for element, i in zip(gl, classes):
        members[i].add(element)
    return tuple(map(frozenset, members))


def medial_scan(t: CayleyTable) -> bool:
    """Exhaustive check of (x*y)*(u*v) == (x*u)*(y*v) over all n^4 quadruples, one x at a time."""
    src = t.cells
    for row in src:
        A = np.take(src[row], src, axis=1)
        if not (A == A.transpose(1, 0, 2)).all():
            return False
    return True


def relabel(t: CayleyTable, perm) -> CayleyTable:
    """The isomorphic table with symbols renamed by the permutation."""
    n = t.n
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation of the symbols")
    sigma = np.asarray(perm)
    cells = np.empty_like(t.cells)
    cells[sigma[:, None], sigma[None, :]] = sigma[t.cells]
    return CayleyTable(n, cells)


def all_latin_squares(n: int) -> list:
    """Every Latin square of order n (exhaustive; capped at order 4)."""
    if not 1 <= n <= LATIN_SCAN_CAP:
        raise ValueError(f"Latin-square scan supports orders 1..{LATIN_SCAN_CAP}")
    perms = list(permutations(range(n)))
    squares = []
    rows: list = []
    col_used = [set() for _ in range(n)]

    def place(r):
        if r == n:
            squares.append(CayleyTable(n, tuple(rows)))
            return
        for perm in perms:
            if all(perm[j] not in col_used[j] for j in range(n)):
                rows.append(perm)
                for j in range(n):
                    col_used[j].add(perm[j])
                place(r + 1)
                rows.pop()
                for j in range(n):
                    col_used[j].discard(perm[j])

    place(0)
    return squares


def count_irreducible_quadratics(p: int) -> int:
    """Exhaustive count of pairs (a, b) with x^2 - b*x - a irreducible.

    Equals (p^2 - p) / 2 for every prime p; the closed form is asserted
    against this count in the test suite rather than trusted.
    """
    return sum(
        is_irreducible_quadratic(a, b, p) for a in range(p) for b in range(p)
    )


def parametrized_centralizer(R: Mat2, kind: str) -> tuple:
    """Closed-form description of the centralizer of a representative R of each kind.

    Used as the cross-check target for the brute-force `centralizer` filter;
    the two must agree element for element.
    """
    p = R.p
    if kind == SCALAR:
        return gl2_elements(p)
    if kind == DISTINCT:
        return tuple(
            Mat2(u, 0, 0, v, p) for u in range(1, p) for v in range(1, p)
        )
    if kind == JORDAN:
        return tuple(
            Mat2(u, v, 0, u, p) for u in range(1, p) for v in range(p)
        )
    a, b = R.m10, R.m11  # R = [[0,1],[a,b]]
    return tuple(
        Mat2(u, v, a * v, u + b * v, p)
        for u in range(p)
        for v in range(p)
        if (u, v) != (0, 0)
    )


def gl2_order(p: int) -> int:
    return (p * p - 1) * (p * p - p)


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


def identity_matrix(p: int) -> Mat2:
    """The identity over F_p; formerly the classmethod `Mat2.identity`."""
    return Mat2(1, 0, 0, 1, p)


def zero_matrix(p: int) -> Mat2:
    """The zero matrix over F_p; formerly the classmethod `Mat2.zero`."""
    return Mat2(0, 0, 0, 0, p)


def mul(A: Mat2, B: Mat2) -> Mat2:
    """AB, each entry a row of A times a column of B; formerly `Mat2.mul`."""
    if A.p != B.p:
        raise ValueError("matrices over different fields")
    rows, columns = (A.entries[:2], A.entries[2:]), (B.entries[0::2], B.entries[1::2])
    return Mat2(*(sum(a * b for a, b in zip(row, column)) for row in rows for column in columns), A.p)


def sub(A: Mat2, B: Mat2) -> Mat2:
    """A - B; formerly `Mat2.__sub__`."""
    if A.p != B.p:
        raise ValueError("matrices over different fields")
    p = A.p
    return Mat2(
        A.m00 - B.m00,
        A.m01 - B.m01,
        A.m10 - B.m10,
        A.m11 - B.m11,
        p,
    )


def det(A: Mat2) -> int:
    """The determinant of A over F_p; formerly `Mat2.det`."""
    return (A.m00 * A.m11 - A.m01 * A.m10) % A.p


def is_scalar(A: Mat2) -> bool:
    """Whether A is a*I; formerly `Mat2.is_scalar`."""
    return A.m01 == 0 and A.m10 == 0 and A.m00 == A.m11


def rank(A: Mat2) -> int:
    """The rank of A over F_p; formerly `Mat2.rank`."""
    if det(A) != 0:
        return 2
    return 0 if A.entries == (0, 0, 0, 0) else 1


def inv(A: Mat2) -> Mat2:
    """The inverse of A, raising for a singular A; formerly `Mat2.inv`."""
    d = det(A)
    if d == 0:
        raise ValueError(f"{A} is singular")
    di = fp_inv(d, A.p)
    return Mat2(
        di * A.m11, -di * A.m01, -di * A.m10, di * A.m00, A.p
    )


def add(G: GroupSpec, a, b):
    """a + b in G, both checked to be elements of G; formerly `G.add`."""
    G.check(a)
    G.check(b)
    if isinstance(G, Cyclic):
        return (a + b) % G.order
    p = G.p
    return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)


def apply(G: GroupSpec, m, a):
    """The image of a under an endomorphism of G, formerly `G.apply`.

    For Z_{p^k}, m is a multiplier (not necessarily a unit) and this is m*a;
    for Z_p x Z_p, m is a 2x2 matrix (not necessarily invertible) applied to
    the column vector a.
    """
    if isinstance(G, Cyclic):
        return (m * a) % G.order
    p = G.p
    x, y = a
    return ((m.m00 * x + m.m01 * y) % p, (m.m10 * x + m.m11 * y) % p)


def _cycle_lengths(f) -> tuple:
    """Sorted lengths of the cycles in the functional graph of f.

    For a permutation this is its cycle type; for a general map only the
    eventual cycles count, which is still a relabeling invariant.  One walk
    per unreached start records the step at which each point is reached; a
    walk that stops on a point reached during that same walk closes a cycle.
    """
    reached = [-1] * len(f)
    lengths = []
    step = 0
    for start in range(len(f)):
        if reached[start] >= 0:
            continue
        begin = step
        x = start
        while reached[x] < 0:
            reached[x] = step
            step += 1
            x = f[x]
        if reached[x] >= begin:
            lengths.append(step - reached[x])
    return tuple(sorted(lengths))


def _signatures(rows) -> list:
    """Per-symbol invariants: (row cycle type, column cycle type, idempotent?)."""
    return [
        (_cycle_lengths(row), _cycle_lengths(col), row[i] == i)
        for i, (row, col) in enumerate(zip(rows, zip(*rows)))
    ]


def are_isomorphic(s: CayleyTable, t: CayleyTable) -> bool:
    """Whether a bijection sigma exists with sigma(s[i][j]) = t[sigma(i)][sigma(j)]: `_iso_search` on codes of one `_invariants` call."""
    if s.n != t.n:
        return False
    _, codes = _invariants(np.stack([s.cells, t.cells]))
    return _iso_search(s.rows, codes[0].tolist(), t.rows, codes[1].tolist())


def walk_fingerprint(t: CayleyTable) -> Fingerprint:
    rows = t.rows
    return Fingerprint(t.n, _cycle_lengths([rows[i][i] for i in range(t.n)]))


def tuple_classify(tables) -> list:
    """`oracle.classify` on one process, from `walk_fingerprint` buckets and `_signatures` tuples."""
    tables = list(tables)
    prints = [walk_fingerprint(t) for t in tables]
    buckets: dict = {}
    for idx, fp in enumerate(prints):
        buckets.setdefault(fp, []).append(idx)
    merged = []
    for bucket in buckets.values():
        classes: dict = {}  # sorted signatures -> [[first_index, rows, signatures, count], ...]
        for idx in bucket:
            rows = tables[idx].rows
            sig = _signatures(rows)
            same = classes.setdefault(tuple(sorted(sig)), [])
            for cls in same:
                if _iso_search(rows, sig, cls[1], cls[2]):
                    cls[3] += 1
                    break
            else:
                same.append([idx, rows, sig, 1])
        merged += [(first, count) for same in classes.values() for first, _, _, count in same]
    return [IsoClass(tables[first], count, prints[first]) for first, count in sorted(merged)]
