"""The ambient abelian groups: Z_{p^k} and Z_p x Z_p, both (Z_q)^r for q = p^k.

Group elements are plain values -- residues (int) for the cyclic family and
coordinate pairs (x, y) for the rank-2 elementary abelian family.  Every
group fixes a deterministic element order (ascending residue, respectively
lexicographic by components); all index-based artifacts downstream inherit
that order, which makes enumeration output reproducible run to run.  Both
are (Z_q)^r under the r x r matrices over Z_q, on one base class: Z_{p^k}
with q = p^k and r = 1, and Z_p x Z_p with q = p and r = 2.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Union

import numpy as np

from .fp import Prime, _Frozen, as_integer

Element = Union[int, tuple]

_MAX_ORDER_BITS = 1 << 12  # p^k has at most k * bit_length(p) bits: at this bound, microseconds to compute


class _Homocyclic(_Frozen):
    """(Z_q)^r for q = p^k under the r x r matrices over Z_q, set up by `_shape` once a subclass stores p and its zero.

    An element's index is the base-q number of its coordinates, and an
    endomorphism's code that of its entries, row-major, most significant first.
    """

    def _shape(self, k: int, r: int, zero) -> None:
        _set, q = object.__setattr__, self.p ** k
        places = np.array([q ** i for i in range(r * r - 1, -1, -1)], dtype=np.int64)  # of the entries' digits
        _set(self, "q", q)
        _set(self, "r", r)
        _set(self, "order", q ** r)
        _set(self, "zero", zero)
        _set(self, "_places", places)
        _set(self, "_identity", int(places[:: r + 1].sum()))  # 1 for r = 1, q^3 + 1 for r = 2
        # Stored once: every cache keyed on the group hashes it on each lookup.
        _set(self, "_hash", hash(self._values()))

    def __hash__(self) -> int:
        return self._hash

    def _entries(self, codes) -> np.ndarray:
        """Entry rows of endomorphism codes, shape (len(codes), r*r): each code's base-q digits, row-major."""
        return np.asarray(codes, dtype=np.int64)[:, None] // self._places % self.q

    def _code(self, x) -> np.ndarray:
        """The codes of entry arrays x of shape (..., r*r), each entry reduced mod q: `_entries` undone."""
        return (np.asarray(x, dtype=np.int64) % self.q) @ self._places

    def index_add(self, a, b) -> np.ndarray:
        """Index of a + b for element-index arrays a and b (broadcast): coordinates add mod q."""
        q, a, b = self.q, np.asarray(a), np.asarray(b)
        return sum((a // w + b // w) % q * w for w in self._places[-self.r :].tolist())

    def index_action(self, ms, idx) -> np.ndarray:
        """Indices of m(g) for every endomorphism code m in ms (rows) and element index g in idx (columns).

        Coordinate i of m(g) is row i of m's entries times g's coordinates,
        mod q.  int32 holds every intermediate while r q^2 < 2^31.
        """
        q, r = self.q, self.r
        dtype = np.int32 if r * q * q < 2 ** 31 else np.int64
        e = self._entries(ms).astype(dtype)
        idx = np.asarray(idx, dtype=dtype)
        g = [idx // w % q for w in self._places[-r:].tolist()]
        out = None
        for i in range(r):
            row = e[:, i * r, None] * g[0]
            for j in range(1, r):
                row += e[:, i * r + j, None] * g[j]
            row %= q
            if out is None:
                out = row
            else:
                out *= q
                out += row
        return out


class Cyclic(_Homocyclic):
    """Z_{p^k}: residues 0 .. p^k - 1 under addition mod p^k; (Z_q)^1 for q = p^k."""

    _fields = ("p", "k")

    def __init__(self, p: Prime, k: int = 1):
        _set = object.__setattr__
        _set(self, "p", Prime(p))
        try:
            if isinstance(k, bool):
                raise ValueError
            _set(self, "k", as_integer(k))
        except ValueError:
            raise ValueError(f"exponent k must be an int, not {k!r}") from None
        if self.k < 1:
            raise ValueError("exponent k must be >= 1")
        if self.k * self.p.bit_length() > _MAX_ORDER_BITS:  # checked before p^k is computed
            raise ValueError(f"Z_{self.p}^{self.k} is over the bound k * bit_length(p) <= {_MAX_ORDER_BITS}")
        self._shape(self.k, 1, 0)

    def elements(self) -> list:
        return list(range(self.order))

    def check(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    def index(self, a) -> int:
        return self.check(a)

    def __str__(self) -> str:
        return f"Z_{self.p}^{self.k}" if self.k > 1 else f"Z_{self.p}"


class ElemAbelianRank2(_Homocyclic):
    """Z_p x Z_p: pairs (x, y) under componentwise addition mod p; (Z_p)^2."""

    _fields = ("p",)

    def __init__(self, p: Prime):
        object.__setattr__(self, "p", Prime(p))
        self._shape(1, 2, (0, 0))

    def elements(self) -> list:
        return [(x, y) for x in range(self.p) for y in range(self.p)]

    def check(self, a) -> tuple:
        if (
            not isinstance(a, tuple)
            or len(a) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.p for c in a)
        ):
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    def index(self, a) -> int:
        self.check(a)
        return a[0] * self.p + a[1]

    def __str__(self) -> str:
        return f"(Z_{self.p})^2"


GroupSpec = Union[Cyclic, ElemAbelianRank2]


class CosetList(_Frozen):
    """Cosets of an image subgroup Im(M) inside G.

    `representatives` holds one element per coset, chosen greedily in the
    deterministic element order (so the zero coset always comes first).
    `rep_index` holds the element index of each representative, and
    `coset_of` the coset position of each element index.  Lists compare by
    identity: `_cosets` makes one per image subgroup.
    """

    _fields = ("representatives", "subgroup_order", "rep_index", "coset_of")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, representatives: tuple, subgroup_order: int, rep_index: np.ndarray, coset_of: np.ndarray):
        _set = object.__setattr__
        _set(self, "representatives", representatives)
        _set(self, "subgroup_order", subgroup_order)
        _set(self, "rep_index", rep_index)
        _set(self, "coset_of", coset_of)

    def __len__(self) -> int:
        return len(self.representatives)


@lru_cache(maxsize=None)
def _add_table(G: GroupSpec) -> np.ndarray:
    """Index-level addition table of G: row a, column b holds the index of a + b."""
    idx = np.arange(G.order, dtype=np.int32)
    table = G.index_add(idx[:, None], idx[None, :])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _cosets(G: GroupSpec, image: bytes) -> CosetList | None:
    """Greedy coset list of the element set `image` (a byte mask) in G.

    None when `image` is not a subgroup: then its greedy translates do not
    partition G.  The check runs once per image, as the result is cached.
    """
    els = G.elements()
    members = np.flatnonzero(np.frombuffer(image, dtype=bool))
    add = _add_table(G)
    reps = []
    coset_of = np.full(G.order, -1, dtype=np.int32)
    for g in range(G.order):
        if coset_of[g] < 0:
            coset_of[add[g, members]] = len(reps)
            reps.append(g)
    # A subgroup's translates cover G, each element once.
    if len(reps) * len(members) != G.order or (coset_of < 0).any():
        return None
    rep_index = np.array(reps, dtype=np.int32)
    for a in (rep_index, coset_of):
        a.setflags(write=False)
    return CosetList(tuple(els[g] for g in reps), len(members), rep_index, coset_of)


def quotient_cosets(G: GroupSpec, M) -> CosetList:
    """Cosets of Im(M) in G, where M is the integer code of any endomorphism of G (numpy ints included).

    The image subgroup is computed by exhaustive application of M; structural
    shortcuts (gcd for cyclic groups, column spaces for matrices) are used
    only as cross-check properties in the tests.  This is `quotients` of the
    one code: nothing is memoised per code, but coset lists are, per image
    subgroup, so the list returned for one subgroup is the same object every
    time.
    """
    return quotients(G, [operator.index(M)])[0]


def quotients(G: GroupSpec, codes) -> list:
    """The coset list of Im(m) in G for every endomorphism code m of a sequence, in its order.

    Every code must lie in [0, q^(r*r)), or ValueError names the first that
    does not.  Every m is applied to every element in one `index_action`
    call, and one `_cosets` is looked up per distinct image; nothing is
    memoised per code.
    """
    n, codes = G.order, np.asarray(codes)
    outside = (codes < 0) | (codes >= G.q ** (G.r * G.r))
    if outside.any():
        raise ValueError(f"{codes[outside.argmax()]} is not the code of an endomorphism of {G}")
    masks = np.zeros((len(codes), n), dtype=bool)
    np.put_along_axis(masks, G.index_action(codes, np.arange(n)), True, axis=1)
    images = [mask.tobytes() for mask in masks]
    lists = {image: _cosets(G, image) for image in set(images)}
    if None in lists.values():
        first = next(i for i, image in enumerate(images) if lists[image] is None)
        raise ValueError(f"{codes[first]} is not an endomorphism of {G}")
    return [lists[image] for image in images]
