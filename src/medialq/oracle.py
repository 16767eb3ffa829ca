"""Brute-force ground truth for "up to isomorphism".

Tables are compared through per-symbol invariants -- each symbol's row and
column cycle types and whether it is idempotent, and each table's diagonal
cycle type -- from one array pass per call over all the tables it compares,
ranked into integer codes.  `classify` and `assign_to_classes` index tables
on (diagonal key, sorted codes), and `_matches` tests every unplaced table of
an entry against one class representative at once: the images of the
representative's generators fix an isomorphism through the words that reach
every other symbol, so each code-respecting choice of images is extended and
checked on every cell.  A representative of more than `_GENERATOR_CAP`
generators, and `are_isomorphic`, go to `_iso_search`: backtracking over
partial symbol bijections with invariant pruning and forced propagation.  A
table joins a class only through a checked isomorphism.  Nothing in this
module consults the affine theory -- it works on raw tables -- so agreement
with the enumerator is genuine cross-validation, not a tautology.
"""

from __future__ import annotations

import numpy as np

from .fp import _Frozen
from .gl2 import _automorphisms, _commute, _gl2_entries, check_pairs, units
from .groups import Cyclic, GroupSpec, _matrix_code
from .quasigroup import AffineForm, CayleyTable, _affine_cells

ISO_ORDER_CAP = 16
CLASSIFY_ORDER_CAP = ISO_ORDER_CAP
_INVARIANT_CHUNK = 256  # tables per step of `_invariants`
_GENERATOR_CAP = 3  # a class representative of more generators is searched table by table
_ROW_CHUNK = 1 << 14  # candidate rows per step of `_matches`


class Fingerprint(_Frozen):
    """Cheap relabeling-invariant data of a table, kept on each `IsoClass`: its order and its diagonal's cycle type."""

    _fields = ("order", "diagonal_cycle_type")

    def __init__(self, order: int, diagonal_cycle_type: tuple):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "diagonal_cycle_type", diagonal_cycle_type)


class IsoClass(_Frozen):
    _fields = ("canonical_member", "members", "fingerprint")

    def __init__(self, canonical_member: CayleyTable, members: int, fingerprint: Fingerprint):
        _set = object.__setattr__
        _set(self, "canonical_member", canonical_member)
        _set(self, "members", members)
        _set(self, "fingerprint", fingerprint)


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
    """Whether row tuples s and t are isomorphic, given their symbol codes from one `_invariants` call."""
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
    """Every ordered pair (phi, psi) of codes of commuting automorphisms of G, phi-major, each in code order.

    Units of one modulus all commute; the pairs of GL(2, p) are kept by
    `gl2._commute`, all tested in one array pass.
    """
    if G.order > CLASSIFY_ORDER_CAP:
        raise ValueError(f"group of order {G.order} exceeds the cap {CLASSIFY_ORDER_CAP}")
    if isinstance(G, Cyclic):
        auts = units(G.p, G.k)
        keep = np.ones((len(auts), len(auts)), dtype=bool)
    else:
        x = _gl2_entries(G.p)
        auts, keep = _matrix_code(*x.T, G.p), _commute(x[:, None], x, G.p)
    phi, psi = np.nonzero(keep)
    return list(zip(auts[phi].tolist(), auts[psi].tolist()))


def all_affine_forms(G: GroupSpec) -> list:
    """Every affine form (phi, psi, c) with commuting automorphisms, unquotiented."""
    pairs, els = _affine_pairs(G), G.elements()
    maps = _automorphisms(G, [f for pair in pairs for f in pair])
    return [AffineForm(G, phi, psi, c) for phi, psi in zip(maps[0::2], maps[1::2]) for c in els]


def all_affine_tables(G: GroupSpec) -> np.ndarray:
    """The cells of every table of `all_affine_forms(G)`, in its order, as one (N, n, n) array; `check_pairs` checks every pair."""
    pairs = _affine_pairs(G)
    check_pairs(G, [phi for phi, _ in pairs], [psi for _, psi in pairs])
    return _affine_cells(G, pairs, np.broadcast_to(np.arange(G.order), (len(pairs), G.order)))


def _as_stack(tables) -> tuple:
    """(cells of every table as one (N, n, n) array, the tables as a list or None) of a list of tables or such an array."""
    if isinstance(tables, np.ndarray):
        n = tables.shape[-1] if tables.ndim == 3 else 0
        if n < 1 or tables.shape[1] != n or tables.dtype.kind not in "biu":
            raise ValueError("a table stack must be an integer array of shape (N, n, n), n >= 1")
        if tables.size and (tables.min() < 0 or tables.max() >= n):
            raise ValueError("table entries must be indices in [0, n)")
        return tables.astype(np.min_scalar_type(n - 1), copy=False), None
    tables = list(tables)
    n = tables[0].n if tables else 1
    if any(t.n != n for t in tables):
        raise ValueError("classify requires tables of a single order")
    return np.array([t.cells for t in tables]) if tables else np.empty((0, n, n), dtype=np.uint8), tables


def _words(t: list) -> tuple:
    """(generators, words) of the table with rows t: every other symbol z is one (z, x, y) of `words`, z = t[x][y].

    Each generator is the least symbol not yet reached; the reached set is then
    closed under the product, breadth first.  x and y are reached before z.
    """
    n = len(t)
    reached = [False] * n
    order: list = []  # the symbols in the order reached
    gens, words, head = [], [], 0
    for g in range(n):
        if reached[g]:
            continue
        gens.append(g)
        reached[g] = True
        order.append(g)
        while head < len(order):
            k = order[head]
            head += 1
            for j in order[:head]:
                for x, y in ((k, j), (j, k)):
                    z = t[x][y]
                    if not reached[z]:
                        reached[z] = True
                        order.append(z)
                        words.append((z, x, y))
    return gens, words


def _matches(t, sig_t, stack, codes) -> np.ndarray:
    """Which tables s of `stack` (M, n, n) are isomorphic to table t (n, n), as M booleans; codes from one `_invariants` call.

    An isomorphism sigma, s[sigma(x)][sigma(y)] = sigma(t[x][y]), maps each
    generator of t to a symbol of equal code and is fixed by the words.  So
    each such choice of images is a candidate row, the words extend it (a row
    goes at its first image of another code), and s matches iff some row is
    a bijection that maps every cell.  Rows are made at most `_ROW_CHUNK` at
    a time.
    """
    gens, words = _words(t.tolist())
    M, n = codes.shape
    if len(gens) > _GENERATOR_CAP:
        rows_t, sig = tuple(map(tuple, t.tolist())), sig_t.tolist()
        return np.array([_iso_search(tuple(map(tuple, s.tolist())), c.tolist(), rows_t, sig)
                         for s, c in zip(stack, codes)], dtype=bool)
    found = np.zeros(M, dtype=bool)
    fits = codes[:, None, :] == sig_t[gens][:, None]  # (M, generator, image)
    step = max(1, _ROW_CHUNK // n ** len(gens))
    for lo in range(0, M, step):
        rows = fits[lo : lo + step, 0]
        for i in range(1, len(gens)):
            rows = rows[..., None] & fits[lo : lo + step, i].reshape((-1,) + (1,) * i + (n,))
        table, *images = np.nonzero(rows)
        table += lo
        sigma = np.empty((len(table), n), dtype=stack.dtype)
        sigma[:, gens] = np.stack(images, axis=1)
        for z, x, y in words:
            sigma[:, z] = image = stack[table, sigma[:, x], sigma[:, y]]
            keep = codes[table, image] == sig_t[z]
            table, sigma = table[keep], sigma[keep]
        keep = (np.sort(sigma, axis=1) == np.arange(n)).all(axis=1)
        table, sigma = table[keep], sigma[keep]
        keep = (stack[table[:, None, None], sigma[:, :, None], sigma[:, None, :]] == sigma[:, t]).all(axis=(1, 2))
        found[table[keep]] = True
    return found


def _entries(keys, codes) -> list:
    """The indices of each index entry, in order: tables of one diagonal key and one multiset of codes, the only ones that can be isomorphic."""
    entries: dict = {}
    for i, entry in enumerate(zip(keys.tolist(), map(tuple, np.sort(codes, axis=1).tolist()))):
        entries.setdefault(entry, []).append(i)
    return list(entries.values())


def classify(tables) -> list:
    """Partition tables into isomorphism classes, deterministically.

    `tables` is a list of `CayleyTable`, or their cells as one (N, n, n)
    array (then each class's member is built from its cells).  In each index
    entry the first table not yet placed opens a class, and one `_matches`
    call places every later table of the entry isomorphic to it.  Class
    order is by first occurrence in the input.
    """
    stack, members = _as_stack(tables)
    n = stack.shape[1]
    if n > CLASSIFY_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the classification cap {CLASSIFY_ORDER_CAP}")
    _, codes = ranked = _invariants(stack)
    found = []  # (first index, members) of each class
    for entry in _entries(*ranked):
        left = np.array(entry)
        while len(left):
            first, left = left[0], left[1:]
            same = _matches(stack[first], codes[first], stack[left], codes[left])
            found.append((first, 1 + int(same.sum())))
            left = left[~same]
    classes = []
    for first, count in sorted(found):
        member = members[first] if members is not None else CayleyTable(n, stack[first])
        classes.append(IsoClass(member, count, fingerprint(member)))
    return classes


def assign_to_classes(classes, tables) -> list:
    """Index of the class each table belongs to, the first that matches; raises if one matches nothing.

    `tables` is a list of `CayleyTable` or their cells as one (N, n, n)
    array.  The class members and the tables of each shared order are ranked
    in one invariant pass; each member, in class order, takes the tables of
    its index entry not yet placed in one `_matches` call.
    """
    members = [cls.canonical_member for cls in classes]
    tables = [CayleyTable(len(cells), cells) for cells in tables] if isinstance(tables, np.ndarray) else list(tables)
    result = [None] * len(tables)
    for n in {t.n for t in tables} & {m.n for m in members}:
        at_m = [i for i, m in enumerate(members) if m.n == n]
        at_t = [i for i, t in enumerate(tables) if t.n == n]
        stack = np.stack([members[i].cells for i in at_m] + [tables[i].cells for i in at_t])
        _, codes = ranked = _invariants(stack)
        m = len(at_m)
        for entry in _entries(*ranked):
            reps = [i for i in entry if i < m]  # the members come first, in class order
            left = np.array(entry[len(reps):], dtype=np.intp)
            for i in reps:
                if not len(left):
                    break
                same = _matches(stack[i], codes[i], stack[left], codes[left])
                for j in left[same].tolist():
                    result[at_t[j - m]] = at_m[i]
                left = left[~same]
    if None in result:
        raise ValueError("table is not isomorphic to any class member")
    return result
