"""The ambient abelian groups: Z_{p^k} and Z_p x Z_p.

Group elements are plain values -- residues (int) for the cyclic family and
coordinate pairs (x, y) for the rank-2 elementary abelian family.  Every
group fixes a deterministic element order (ascending residue, respectively
lexicographic by components); all index-based artifacts downstream inherit
that order, which makes enumeration output reproducible run to run.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .fp import Prime, as_integer

Element = Union[int, tuple]


@dataclass(frozen=True)
class Cyclic:
    """Z_{p^k}: residues 0 .. p^k - 1 under addition mod p^k."""

    p: Prime
    k: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", Prime(self.p))
        try:
            if isinstance(self.k, bool):
                raise ValueError
            object.__setattr__(self, "k", as_integer(self.k))
        except ValueError:
            raise ValueError(f"exponent k must be an int, not {self.k!r}") from None
        if self.k < 1:
            raise ValueError("exponent k must be >= 1")
        # Stored once: every cache keyed on the group hashes it on each lookup.
        object.__setattr__(self, "_hash", hash((self.p, self.k)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property  # read on every pair check and every 1 - phi - psi
    def order(self) -> int:
        return self.p ** self.k

    @property
    def zero(self) -> int:
        return 0

    def elements(self) -> list:
        return list(range(self.order))

    def check(self, a) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of {self}")
        return a

    def index(self, a) -> int:
        return self.check(a)

    def index_add(self, a, b) -> np.ndarray:
        """Index of a + b for element-index arrays a and b (broadcast)."""
        return (np.asarray(a) + np.asarray(b)) % self.order

    def index_action(self, ms, idx) -> np.ndarray:
        """Indices of m*g for every multiplier m in ms (rows) and element index g in idx (columns)."""
        n = self.order
        m = np.array([x % n for x in ms], dtype=np.int64)
        return m[:, None] * np.asarray(idx, dtype=np.int64)[None, :] % n

    def __str__(self) -> str:
        return f"Z_{self.p}^{self.k}" if self.k > 1 else f"Z_{self.p}"


@dataclass(frozen=True)
class ElemAbelianRank2:
    """Z_p x Z_p: pairs (x, y) under componentwise addition mod p."""

    p: Prime

    def __post_init__(self):
        object.__setattr__(self, "p", Prime(self.p))
        object.__setattr__(self, "_hash", hash((self.p,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def order(self) -> int:
        return self.p * self.p

    @property
    def zero(self) -> tuple:
        return (0, 0)

    def elements(self) -> list:
        p = self.p
        return [(x, y) for x in range(p) for y in range(p)]

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

    def index_add(self, a, b) -> np.ndarray:
        """Index of a + b for element-index arrays a and b (broadcast)."""
        p = self.p
        a, b = np.asarray(a), np.asarray(b)
        return (a // p + b // p) % p * p + (a + b) % p

    def index_action(self, ms, idx) -> np.ndarray:
        """Indices of m(g) for every matrix code m (`_matrix_code`) in ms (rows) and element index g in idx (columns).

        int32 suffices: every intermediate is below 2p^2 <= 2^31 for p up to MAX_PRIME.
        """
        p = self.p
        e = _matrix_entries(ms, p).astype(np.int32)
        idx = np.asarray(idx, dtype=np.int32)
        x, y = idx // p, idx % p
        out = e[:, 0, None] * x
        out += e[:, 1, None] * y
        out %= p
        out *= p
        low = e[:, 2, None] * x
        low += e[:, 3, None] * y
        low %= p
        out += low
        return out

    def __str__(self) -> str:
        return f"(Z_{self.p})^2"


GroupSpec = Union[Cyclic, ElemAbelianRank2]


def _matrix_code(m00: int, m01: int, m10: int, m11: int, p: int) -> int:
    """The code of the 2x2 matrix over F_p with these entries: each reduced mod p, read as base-p digits, m00 first.

    Entries may be numpy arrays of equal shape: then so is the code.
    """
    return ((m00 % p * p + m01 % p) * p + m10 % p) * p + m11 % p


def _matrix_entries(codes, p: int) -> np.ndarray:
    """Entry rows (m00, m01, m10, m11) of matrix codes, shape (len(codes), 4): `_matrix_code` undone."""
    return np.asarray(codes, dtype=np.int64)[:, None] // np.array([p ** 3, p * p, p, 1]) % p


@dataclass(frozen=True, eq=False)
class CosetList:
    """Cosets of an image subgroup Im(M) inside G.

    `representatives` holds one element per coset, chosen greedily in the
    deterministic element order (so the zero coset always comes first).
    `rep_index` holds the element index of each representative, and
    `coset_of` the coset position of each element index.
    """

    representatives: tuple
    subgroup_order: int
    rep_index: np.ndarray
    coset_of: np.ndarray

    def __len__(self) -> int:
        return len(self.representatives)


@lru_cache(maxsize=None)
def _add_table(G: GroupSpec) -> np.ndarray:
    """Index-level addition table of G: row a, column b holds the index of a + b."""
    idx = np.arange(G.order, dtype=np.int32)
    table = G.index_add(idx[:, None], idx[None, :])
    table.setflags(write=False)
    return table


def _images(G: GroupSpec, codes) -> np.ndarray:
    """Im(M) for every endomorphism code M of `codes`: one row per code, a bool mask over element indices.

    Every M is applied to every element, in one `index_action` call.
    """
    masks = np.zeros((len(codes), G.order), dtype=bool)
    np.put_along_axis(masks, G.index_action(codes, np.arange(G.order)), True, axis=1)
    return masks


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
    """Cosets of Im(M) in G, where M is any endomorphism of G.

    M is an integer code (anything `operator.index` takes, numpy ints
    included), taken as given, or an object whose `int(M)` is one: a
    multiplier with the `modulus` of a cyclic G, or a matrix with the field
    `p` of Z_p x Z_p.  An object of another group raises ValueError.

    The image subgroup is computed by exhaustive application of M; structural
    shortcuts (gcd for cyclic groups, column spaces for matrices) are used
    only as cross-check properties in the tests.  Nothing is memoised per
    code: coset lists are, per image subgroup, so the list returned for one
    subgroup is the same object every time.
    """
    try:
        code = operator.index(M)
    except TypeError:
        if isinstance(G, Cyclic):
            foreign = getattr(M, "modulus", None) != G.order
        else:
            foreign = getattr(M, "p", None) != G.p
        if foreign:
            raise ValueError(f"{M} does not act on {G}") from None
        code = int(M)
    cosets = _cosets(G, _images(G, (code,)).tobytes())
    if cosets is None:
        raise ValueError(f"{M!r} is not an endomorphism of {G}")
    return cosets


def quotients(G: GroupSpec, codes: np.ndarray) -> list:
    """`quotient_cosets(G, m)` for every endomorphism code m of an array, in its order.

    All codes are imaged in one `index_action` call, and one `_cosets` is
    looked up per distinct image; nothing is memoised per code.
    """
    masks, n = _images(G, codes).tobytes(), G.order
    images = [masks[i : i + n] for i in range(0, len(masks), n)]
    lists = {image: _cosets(G, image) for image in set(images)}
    if None in lists.values():
        first = next(i for i, image in enumerate(images) if lists[image] is None)
        raise ValueError(f"{int(codes[first])} is not an endomorphism of {G}")
    return [lists[image] for image in images]
