"""Brute-force ground truth for "up to isomorphism".

Isomorphism of Cayley tables is decided in one place, `_iso_search`, by
backtracking over partial symbol bijections with per-symbol invariant
pruning, plus forced propagation: once sigma is fixed on i and j it is
forced on i*j.  The invariants -- each symbol's row and column cycle types
and whether it is idempotent, and each table's diagonal cycle type -- come
from one array pass per call over all the tables it compares, ranked into
integer codes.  `classify` and `assign_to_classes` index classes on (diagonal
key, sorted codes) and search a table only against the classes of its own
entry.  Nothing in this module consults the affine theory -- it works on raw
tables -- so agreement with the enumerator is genuine cross-validation, not a
tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gl2 import commutes, gl2_elements, units
from .groups import Cyclic, GroupSpec
from .quasigroup import AffineForm, CayleyTable, affine_tables

ISO_ORDER_CAP = 16
CLASSIFY_ORDER_CAP = ISO_ORDER_CAP
_INVARIANT_CHUNK = 256  # tables per step of `_invariants`


@dataclass(frozen=True)
class Fingerprint:
    """Cheap relabeling-invariant data of a table, kept on each `IsoClass`: its order and its diagonal's cycle type."""

    order: int
    diagonal_cycle_type: tuple


@dataclass(frozen=True)
class IsoClass:
    canonical_member: CayleyTable
    members: int
    fingerprint: Fingerprint


def _cycle_points(maps: np.ndarray) -> np.ndarray:
    """The length of the cycle through each point of each map of `maps`, shape (..., n); 0 for a point on no cycle.

    Point x lies on a cycle of length k iff k is the least k >= 1 with
    f^k(x) = x, so the powers f, f^2, ..., f^n are composed in turn.  Sorted,
    a map's lengths give its cycle type: a cycle of length L has L points of
    length L.  For a general map only the eventual cycles count, which is
    still a relabeling invariant.
    """
    n = maps.shape[-1]
    cells = maps.ravel()
    starts = np.arange(0, cells.size, n).reshape(-1, 1)  # each map's first cell in `cells`
    points = np.arange(n, dtype=maps.dtype)
    lengths = np.zeros((len(starts), n), dtype=np.min_scalar_type(n))
    power = maps.reshape(-1, n)
    for k in range(1, n + 1):
        lengths[(power == points) & (lengths == 0)] = k
        if k < n:
            power = cells[power + starts]
    return lengths.reshape(maps.shape)


def _cycle_type(lengths: np.ndarray) -> tuple:
    """The sorted cycle lengths of one map, from its points' `_cycle_points`."""
    counts = np.bincount(lengths).tolist()
    return tuple(L for L in range(1, len(counts)) for _ in range(counts[L] // L))


def fingerprint(t: CayleyTable) -> Fingerprint:
    return Fingerprint(t.n, _cycle_type(_cycle_points(t.cells.diagonal())))


def _rank(keys: np.ndarray) -> np.ndarray:
    """One integer per row of a 2-D key array, equal exactly for equal rows: the row's place among the distinct rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


def _invariants(stack: np.ndarray) -> tuple:
    """Diagonal keys and symbol codes of a stack of tables of one order, shape (N, n, n).

    A table's key ranks its diagonal's cycle type, so two keys are equal iff
    the tables' fingerprints are.  Symbol i's code ranks (row i's cycle
    type, column i's cycle type, whether i*i = i), the invariants
    `_iso_search` prunes with.  Ranks are taken over this stack alone: keys
    and codes compare only within one call.  The maps are walked
    `_INVARIANT_CHUNK` tables at a time, which bounds the index temporaries.
    """
    N, n = stack.shape[:2]
    if n > ISO_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the exhaustive cap {ISO_ORDER_CAP}")
    keys = np.empty((N, n, 2 * n + 1), dtype=np.min_scalar_type(n))
    diagonals = np.empty((N, n), dtype=keys.dtype)
    for lo in range(0, N, _INVARIANT_CHUNK):
        hi = lo + _INVARIANT_CHUNK
        T = stack[lo:hi]
        diagonal = T.diagonal(axis1=1, axis2=2)
        maps = np.concatenate([T, T.transpose(0, 2, 1), diagonal[:, None]], axis=1)
        lengths = np.sort(_cycle_points(maps), axis=-1)
        keys[lo:hi, :, :n] = lengths[:, :n]
        keys[lo:hi, :, n : 2 * n] = lengths[:, n : 2 * n]
        keys[lo:hi, :, 2 * n] = diagonal == np.arange(n)
        diagonals[lo:hi] = lengths[:, 2 * n]
    return _rank(diagonals), _rank(keys.reshape(N * n, 2 * n + 1)).reshape(N, n)


def _iso_search(s, sig_s, t, sig_t) -> bool:
    """Whether row tuples s and t are isomorphic, given their symbol codes from one `_invariants` call.

    Every isomorphism decision in this module is made here.
    """
    n = len(s)
    if n > ISO_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the exhaustive cap {ISO_ORDER_CAP}")
    if s == t:
        return True
    if sorted(sig_s) != sorted(sig_t):
        return False
    cand = [[v for v in range(n) if sig_t[v] == sig_s[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cand[i]))

    m = [-1] * n
    used = [False] * n
    mapped: list = []

    def assign(i, v) -> bool:
        # Forced closure: whenever both factors of a product are mapped, the
        # product's image is determined and must stay injective.
        m[i] = v
        used[v] = True
        mapped.append(i)
        queue = [i]
        while queue:
            k = queue.pop()
            for j in list(mapped):
                for x, y in ((k, j), (j, k)):
                    ps = s[x][y]
                    pt = t[m[x]][m[y]]
                    pm = m[ps]
                    if pm == -1:
                        if used[pt] or sig_t[pt] != sig_s[ps]:
                            return False
                        m[ps] = pt
                        used[pt] = True
                        mapped.append(ps)
                        queue.append(ps)
                    elif pm != pt:
                        return False
        return True

    def unwind(checkpoint):
        while len(mapped) > checkpoint:
            j = mapped.pop()
            used[m[j]] = False
            m[j] = -1

    def extend() -> bool:
        i = next((i for i in order if m[i] == -1), -1)
        if i == -1:
            return True
        for v in cand[i]:
            if used[v]:
                continue
            checkpoint = len(mapped)
            if assign(i, v) and extend():
                return True
            unwind(checkpoint)
        return False

    return extend()


def are_isomorphic(s: CayleyTable, t: CayleyTable) -> bool:
    """Whether a bijection sigma exists with sigma(s[i][j]) = t[sigma(i)][sigma(j)]."""
    if s.n != t.n:
        return False
    _, codes = _invariants(np.stack([s.cells, t.cells]))
    return _iso_search(s.rows, codes[0].tolist(), t.rows, codes[1].tolist())


def _affine_pairs(G: GroupSpec) -> list:
    """Every ordered pair (phi, psi) of commuting automorphisms of G."""
    if G.order > CLASSIFY_ORDER_CAP:
        raise ValueError(f"group of order {G.order} exceeds the cap {CLASSIFY_ORDER_CAP}")
    auts = units(G.p, G.k) if isinstance(G, Cyclic) else gl2_elements(G.p)
    return [(phi, psi) for phi in auts for psi in auts if commutes(phi, psi)]


def all_affine_forms(G: GroupSpec) -> list:
    """Every affine form (phi, psi, c) with commuting automorphisms, unquotiented."""
    els = G.elements()
    return [AffineForm(G, phi, psi, c) for phi, psi in _affine_pairs(G) for c in els]


def all_affine_tables(G: GroupSpec) -> np.ndarray:
    """The cells of every table of `all_affine_forms(G)`, in its order, as one (N, n, n) array."""
    pairs = _affine_pairs(G)
    return affine_tables(G, pairs, np.broadcast_to(np.arange(G.order), (len(pairs), G.order)))


def _index_key(key: int, sig: list) -> tuple:
    # A table's index entry: `_iso_search` rejects any pair whose sorted codes differ.
    return key, tuple(sorted(sig))


def _first_match(same, rows, sig):
    """The first class of index entry `same`, [member rows, member codes, ...] lists, that `_iso_search` accepts for (rows, sig), or None."""
    return next((cls for cls in same if _iso_search(rows, sig, cls[0], cls[1])), None)


def _as_stack(tables) -> tuple:
    """(cells of every table as one (N, n, n) array, the tables as a list or None) of a list of tables or such an array."""
    if isinstance(tables, np.ndarray):
        n = tables.shape[-1] if tables.ndim == 3 else 0
        if n < 1 or tables.shape[1] != n or tables.dtype.kind not in "biu":
            raise ValueError("a table stack must be an integer array of shape (N, n, n), n >= 1")
        if tables.size and (tables.min() < 0 or tables.max() >= n):
            raise ValueError("table entries must be indices in [0, n)")
        return tables, None
    tables = list(tables)
    n = tables[0].n if tables else 1
    if any(t.n != n for t in tables):
        raise ValueError("classify requires tables of a single order")
    return np.array([t.cells for t in tables]) if tables else np.empty((0, n, n), dtype=np.uint8), tables


def classify(tables) -> list:
    """Partition tables into isomorphism classes, deterministically.

    `tables` is a list of `CayleyTable`, or their cells as one (N, n, n)
    array (then each class's member is built from its cells).  One pass in
    input order searches each table only against the classes of its index
    entry and opens a new class when none matches.  Class order is by first
    occurrence in the input.
    """
    stack, members = _as_stack(tables)
    n = stack.shape[1]
    if n > CLASSIFY_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the classification cap {CLASSIFY_ORDER_CAP}")
    keys, codes = _invariants(stack)
    index: dict = {}  # index key -> [[rows, codes, first index, count], ...]
    found = []  # the same class lists, in order of first occurrence
    for idx, (table, key, sig) in enumerate(zip(stack, keys.tolist(), codes.tolist())):
        # Row tuples are built per table, and kept only for each class's first table.
        rows = tuple(map(tuple, table.tolist()))
        same = index.setdefault(_index_key(key, sig), [])
        cls = _first_match(same, rows, sig)
        if cls is None:
            cls = [rows, sig, idx, 0]
            same.append(cls)
            found.append(cls)
        cls[3] += 1
    classes = []
    for _, _, first, count in found:
        member = members[first] if members is not None else CayleyTable(n, stack[first])
        classes.append(IsoClass(member, count, fingerprint(member)))
    return classes


def assign_to_classes(classes, tables) -> list:
    """Index of the class each table belongs to, the first that matches; raises if one matches nothing.

    `tables` is a list of `CayleyTable` or their cells as one (N, n, n)
    array.  The class members and the tables of each shared order are ranked
    in one invariant pass, and a table is searched only against the members
    of its index entry.
    """
    members = [cls.canonical_member for cls in classes]
    tables = [CayleyTable(len(cells), cells) for cells in tables] if isinstance(tables, np.ndarray) else list(tables)
    result = [None] * len(tables)
    for n in {t.n for t in tables} & {m.n for m in members}:
        at_m = [i for i, m in enumerate(members) if m.n == n]
        at_t = [i for i, t in enumerate(tables) if t.n == n]
        ranked = _invariants(np.stack([members[i].cells for i in at_m] + [tables[i].cells for i in at_t]))
        keys, codes = (a.tolist() for a in ranked)
        index: dict = {}  # index key -> [(member rows, member codes, class index), ...]
        for ci, key, sig in zip(at_m, keys, codes):
            index.setdefault(_index_key(key, sig), []).append((members[ci].rows, sig, ci))
        for ti, key, sig in zip(at_t, keys[len(at_m):], codes[len(at_m):]):
            cls = _first_match(index.get(_index_key(key, sig), ()), tables[ti].rows, sig)
            result[ti] = cls[2] if cls else None
    if None in result:
        raise ValueError("table is not isomorphic to any class member")
    return result
