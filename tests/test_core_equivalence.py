"""The integer-coded core against the plain-object algorithms it replaced.

The reference functions below are the earlier implementations, kept here as
test-only oracles: greedy cosets from exhaustive `G.apply`/`G.add`, orbit
representatives by union-find over every (map, coset) pair, centralizers by
`Mat2.mul` filtering and the conjugacy partition by conjugating `Mat2`
objects.  The core must agree with them exactly, ordering included.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import enumeration, gl2, groups
from medialq.enumeration import (
    _one_minus,
    _orbit_reps,
    enumerate_forms,
    orbit_reps_c,
    reps_x,
    reps_y,
    stabilizer,
)
from medialq.fp import Prime
from medialq.gl2 import (
    Mat2,
    Subgroup,
    Unit,
    _assert_commutative,
    centralizer,
    conj_class_reps,
    conjugacy_partition,
    gl2_elements,
    units,
)
from medialq.groups import Cyclic, ElemAbelianRank2, quotient_cosets

EQUIVALENCE_GROUPS = [
    Cyclic(Prime(2), 3),
    Cyclic(Prime(3), 2),
    Cyclic(Prime(5), 2),
    Cyclic(Prime(3), 3),
    ElemAbelianRank2(Prime(2)),
    ElemAbelianRank2(Prime(3)),
    ElemAbelianRank2(Prime(5)),
]


# ---------------------------------------------------------------- references


def plain(f):
    """What `G.apply` takes: the multiplier of a unit, or the matrix itself."""
    return f.value if isinstance(f, Unit) else f


def ref_quotient_cosets(G, M):
    els = G.elements()
    image_set = {G.apply(M, g) for g in els}
    image = [g for g in els if g in image_set]
    reps = []
    coset_index = {}
    for g in els:
        if g in coset_index:
            continue
        idx = len(reps)
        reps.append(g)
        for im in image:
            coset_index[G.add(g, im)] = idx
    return tuple(reps), len(image), coset_index


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def ref_orbit_reps(G, maps, M):
    representatives, _, coset_index = ref_quotient_cosets(G, M)
    uf = UnionFind(len(representatives))
    for m in maps:
        for i, r in enumerate(representatives):
            uf.union(i, coset_index[G.apply(m, r)])
    roots = {}
    for i, r in enumerate(representatives):
        root = uf.find(i)
        if root not in roots or G.index(r) < G.index(roots[root]):
            roots[root] = r
    return tuple(sorted(roots.values(), key=G.index))


@lru_cache(maxsize=None)
def ref_centralizer(A):
    return tuple(B for B in gl2_elements(A.p) if A.mul(B) == B.mul(A))


def ref_partition(p):
    pairs = [(h, h.inv()) for h in gl2_elements(p)]
    return tuple(
        frozenset(h.mul(rep.matrix()).mul(hi) for h, hi in pairs)
        for rep in conj_class_reps(p)
    )


def ref_stabilizer(G, phi, psi):
    if isinstance(G, Cyclic):
        return units(G.p, G.k)
    return tuple(
        B
        for B in gl2_elements(G.p)
        if B.mul(phi) == phi.mul(B) and B.mul(psi) == psi.mul(B)
    )


def enumeration_pairs(G):
    return [(phi, psi) for phi in reps_x(G) for psi in reps_y(G, phi)]


# ---------------------------------------------------------------- equivalence


@pytest.mark.parametrize("G", EQUIVALENCE_GROUPS, ids=str)
def test_every_pair_matches_the_reference_algorithms(G):
    for phi, psi in enumeration_pairs(G):
        M = _one_minus(G, phi, psi)
        reps, order, coset_index = ref_quotient_cosets(G, M)
        cosets = quotient_cosets(G, M)
        assert cosets.representatives == reps
        assert cosets.subgroup_order == order
        assert [coset_index[g] for g in G.elements()] == cosets.coset_of.tolist()
        stab = ref_stabilizer(G, phi, psi)
        assert stabilizer(G, phi, psi) == stab
        expected = (G.zero,) if len(reps) == 1 else ref_orbit_reps(
            G, [plain(h) for h in stab], M
        )
        assert orbit_reps_c(G, phi, psi) == expected
        if isinstance(G, ElemAbelianRank2):
            assert centralizer(phi) == ref_centralizer(phi)
            assert centralizer(psi) == ref_centralizer(psi)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_conjugacy_partition_matches_object_conjugation(p):
    assert conjugacy_partition(p) == ref_partition(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_centralizer_matches_the_mul_filter(p):
    for A in gl2_elements(p):
        assert centralizer(A) == ref_centralizer(A)


def test_partition_raises_on_a_non_transversal(monkeypatch):
    reps = conj_class_reps(3)
    partition = conjugacy_partition.__wrapped__  # bypass the cache
    monkeypatch.setattr(gl2, "conj_class_reps", lambda p: reps + (reps[-1],))
    with pytest.raises(ValueError, match="conjugate to an earlier one"):
        partition(3)
    monkeypatch.setattr(gl2, "conj_class_reps", lambda p: reps[:-1])
    with pytest.raises(ValueError, match="do not cover"):
        partition(3)


def coarse_key(drop):
    """`gl2._class_key` without one of trace, determinant and scalarness."""

    def key(x, p):
        a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        parts = {"trace": (a + d) % p, "det": (a * d - b * c) % p, "scalar": (b == 0) & (c == 0) & (a == d)}
        del parts[drop]
        first, second = parts.values()
        return first * 2 * p + second

    return key


@pytest.mark.parametrize("drop", ["scalar", "trace"])
def test_partition_raises_on_a_key_coarser_than_the_class(monkeypatch, drop):
    # without scalarness a*I shares its key with the Jordan block [[a,1],[0,a]]
    monkeypatch.setattr(gl2, "_class_key", coarse_key(drop))
    with pytest.raises(ValueError, match="orbit-stabilizer fails"):
        conjugacy_partition.__wrapped__(5)


def test_partition_raises_on_a_centralizer_one_member_short(monkeypatch):
    real = gl2.centralizer
    monkeypatch.setattr(gl2, "centralizer", lambda A: real(A)[1:])
    with pytest.raises(ValueError, match="orbit-stabilizer fails"):
        conjugacy_partition.__wrapped__(5)


def test_commutativity_check_names_the_first_failing_pair():
    I = Mat2.identity(3)
    A, B, C = Mat2(1, 1, 0, 1, 3), Mat2(1, 0, 1, 1, 3), Mat2(2, 0, 0, 1, 3)
    members = (I, A, C, B)
    first = next(
        (X, Y)
        for i, X in enumerate(members)
        for Y in members[i + 1 :]
        if X.mul(Y) != Y.mul(X)
    )
    with pytest.raises(ValueError) as err:
        _assert_commutative(members)
    assert str(err.value) == f"centralizer is not commutative: {first[0]} vs {first[1]}"
    assert _assert_commutative((I, A, Mat2(2, 2, 0, 2, 3))) is True



@st.composite
def commuting_matrix_pairs(draw):
    # phi is any 2x2 matrix over F_p, singular and scalar ones included, and
    # psi any matrix commuting with it; neither need be a representative
    p = draw(st.sampled_from([2, 3, 5]))
    scalar = st.integers(0, p - 1).map(lambda a: Mat2(a, 0, 0, a, p))
    anything = st.lists(st.integers(0, p - 1), min_size=4, max_size=4).map(
        lambda e: Mat2(*e, p)
    )
    phi = draw(st.one_of(scalar, anything))
    commutant = [
        B
        for e in np.ndindex((p,) * 4)
        for B in [Mat2(*e, p)]
        if B.mul(phi) == phi.mul(B)
    ]
    return ElemAbelianRank2(Prime(p)), phi, draw(st.sampled_from(commutant))


@settings(max_examples=300, deadline=None)
@given(commuting_matrix_pairs())
def test_stabilizer_is_the_brute_force_intersection_for_any_commuting_pair(case):
    G, phi, psi = case
    if phi.det() == 0 or psi.det() == 0:
        with pytest.raises(ValueError, match="must both be invertible"):
            stabilizer(G, phi, psi)
    else:
        assert stabilizer(G, phi, psi) == ref_stabilizer(G, phi, psi)


@pytest.mark.parametrize("rep", conj_class_reps(3), ids=lambda r: f"{r.kind}-{r.a}-{r.b}")
def test_stabilizer_rejects_a_singular_matrix_of_every_kind(rep):
    # every singular matrix commuting with the representative, on either side
    G, R = ElemAbelianRank2(Prime(3)), rep.matrix()
    singular = [
        S
        for e in np.ndindex((3,) * 4)
        for S in [Mat2(*e, 3)]
        if S.det() == 0 and S.mul(R) == R.mul(S)
    ]
    assert Mat2.zero(3) in singular
    for S in singular:
        for phi, psi in ((R, S), (S, R), (S, S)):
            with pytest.raises(ValueError, match="must both be invertible"):
                stabilizer(G, phi, psi)


def test_commutativity_is_checked_once_per_non_scalar_matrix(monkeypatch):
    G = ElemAbelianRank2(Prime(5))
    real, checked = gl2._assert_commutative, []

    def counting(members):
        checked.append(members)
        return real(members)

    monkeypatch.setattr(gl2, "_assert_commutative", counting)
    centralizer.cache_clear()
    gl2._members.cache_clear()
    enumerate_forms(G)
    non_scalar = {A for pair in enumeration_pairs(G) for A in pair if not A.is_scalar()}
    # once per distinct centralizer: matrices that share one share its check
    distinct = {centralizer(A) for A in non_scalar}
    assert len(distinct) < len(non_scalar)
    assert len(set(checked)) == len(checked)
    assert 0 < len(checked) <= len(distinct)
    before = len(checked)
    enumerate_forms(G)  # every centralizer is cached now, so nothing is checked again
    assert len(checked) == before


# ---------------------------------------------------------------- properties

SMALL_GROUPS = [
    Cyclic(Prime(2), 1),
    Cyclic(Prime(2), 4),
    Cyclic(Prime(3), 2),
    Cyclic(Prime(5), 2),
    Cyclic(Prime(7), 1),
    ElemAbelianRank2(Prime(2)),
    ElemAbelianRank2(Prime(3)),
    ElemAbelianRank2(Prime(7)),
]


@st.composite
def endomorphisms(draw):
    G = draw(st.sampled_from(SMALL_GROUPS))
    if isinstance(G, Cyclic):
        return G, draw(st.integers(-3 * G.order, 3 * G.order))
    entries = draw(st.lists(st.integers(0, G.p - 1), min_size=4, max_size=4))
    return G, Mat2(*entries, G.p)


@settings(max_examples=300, deadline=None)
@given(endomorphisms())
def test_quotient_cosets_matches_plain_python(case):
    G, M = case
    reps, order, coset_index = ref_quotient_cosets(G, M)
    cosets = quotient_cosets(G, M)
    assert cosets.representatives == reps
    assert cosets.subgroup_order == order
    assert [G.index(r) for r in reps] == cosets.rep_index.tolist()
    assert [coset_index[g] for g in G.elements()] == cosets.coset_of.tolist()


@settings(max_examples=200, deadline=None)
@given(endomorphisms(), st.data())
def test_orbits_of_arbitrary_map_lists_match_union_find(case, data):
    # the maps need not form a group, nor even be invertible
    G, M = case
    cosets = quotient_cosets(G, M)
    if isinstance(G, Cyclic):
        map_strategy = st.integers(0, G.order - 1)
    else:
        map_strategy = st.builds(
            lambda e: Mat2(*e, G.p),
            st.lists(st.integers(0, G.p - 1), min_size=4, max_size=4),
        )
    maps = Subgroup(data.draw(st.lists(map_strategy, max_size=6)))
    expected = ref_orbit_reps(G, maps, M)
    try:  # exact components, or refused: the least images are checked, not trusted
        assert _orbit_reps(G, maps, cosets) == expected
    except ValueError as err:
        assert "moves a least image" in str(err)


@pytest.mark.parametrize("G", [Cyclic(Prime(3), 3), ElemAbelianRank2(Prime(3))], ids=str)
def test_orbits_do_not_depend_on_the_block_size(G, monkeypatch):
    # one stabilizer element per block: orbits are joined across many blocks
    monkeypatch.setattr(enumeration, "_ACTION_CHUNK", 1)
    enumeration._orbit_reps.cache_clear()
    try:
        for phi, psi in enumeration_pairs(G):
            M = _one_minus(G, phi, psi)
            cosets = quotient_cosets(G, M)
            stab = stabilizer(G, phi, psi)
            expected = ref_orbit_reps(G, [plain(h) for h in stab], M)
            assert _orbit_reps(G, stab, cosets) == expected
    finally:
        enumeration._orbit_reps.cache_clear()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbits_of_a_projection_join_its_tails(p):
    # (x, y) -> (x + y, 0) sends (0, 1) to (1, 0): the least element of that
    # component lies on a tail, which no least image reaches, so it is refused
    G = ElemAbelianRank2(Prime(p))
    cosets = quotient_cosets(G, Mat2.zero(p))
    maps = Subgroup((Mat2(1, 1, 0, 0, p),))
    assert len(ref_orbit_reps(G, maps, Mat2.zero(p))) == p
    with pytest.raises(ValueError, match="moves a least image"):
        _orbit_reps(G, maps, cosets)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbits_refuse_an_order_three_matrix_without_its_powers(p):
    # each orbit of <A> is a 3-cycle, and one map alone moves some least image
    G, zero = ElemAbelianRank2(Prime(p)), Mat2.zero(p)
    A = Mat2(0, 1, -1, -1, p)  # the companion matrix of x^2 + x + 1
    I, A2 = Mat2.identity(p), A.mul(A)
    assert A != I and A2.mul(A) == I
    cosets = quotient_cosets(G, zero)
    for alone in (A, A2):
        with pytest.raises(ValueError, match="moves a least image"):
            _orbit_reps(G, Subgroup((alone,)), cosets)
    assert _orbit_reps(G, Subgroup((I, A, A2)), cosets) == ref_orbit_reps(G, (I, A, A2), zero)


@lru_cache(maxsize=None)
def all_matrices(p):
    return tuple(Mat2(*e, p) for e in np.ndindex((p,) * 4))


@st.composite
def generated_subgroups(draw):
    """A subgroup of Aut(G) generated by one or two random elements, closed by BFS,
    and an endomorphism M commuting with the generators, so it acts on G / Im(M)."""
    G = draw(st.sampled_from([g for g in SMALL_GROUPS if g.p <= 5] + [ElemAbelianRank2(Prime(5))]))
    if isinstance(G, Cyclic):
        gens = draw(st.lists(st.sampled_from(units(G.p, G.k)), min_size=1, max_size=2))
        M = draw(st.integers(0, G.order - 1))
        mul = lambda a, b: Unit(a.value * b.value, G.order)
    else:
        gens = draw(st.lists(st.sampled_from(gl2_elements(G.p)), min_size=1, max_size=2))
        M = draw(st.sampled_from([E for E in all_matrices(G.p) if all(E.mul(g) == g.mul(E) for g in gens)]))
        mul = Mat2.mul
    members, frontier = dict.fromkeys(gens), list(gens)
    while frontier:
        frontier = [h for h in dict.fromkeys(mul(a, g) for a in frontier for g in gens) if h not in members]
        members.update(dict.fromkeys(frontier))
    return G, Subgroup(members), M


@settings(max_examples=300, deadline=None)
@given(generated_subgroups())
def test_orbits_of_a_generated_subgroup_match_union_find(case):
    G, maps, M = case
    expected = ref_orbit_reps(G, [plain(h) for h in maps], M)
    assert _orbit_reps(G, maps, quotient_cosets(G, M)) == expected


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=str)
def test_index_level_arithmetic_matches_element_level(G):
    els = G.elements()
    add = groups._add_table(G)
    for a in els:
        for b in els:
            assert add[G.index(a), G.index(b)] == G.index(G.add(a, b))
    # every multiplier and every unit, or 50 invertible and 50 singular matrices
    if isinstance(G, Cyclic):
        maps = list(range(G.order)) + list(units(G.p, G.k))
    else:
        singular = [M for e in np.ndindex((G.p,) * 4) for M in [Mat2(*e, G.p)] if M.det() == 0]
        maps = list(gl2_elements(G.p)[:50]) + singular[:50]
    action = G.index_action([int(m) for m in maps], np.arange(G.order))
    for row, m in zip(action.tolist(), maps):
        assert row == [G.index(G.apply(plain(m), g)) for g in els]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.lists(st.integers(0, p - 1), min_size=4, max_size=4).map(lambda e: Mat2(*e, p))
))
def test_a_matrix_code_acts_as_the_matrix(M):
    # any 2x2 matrix over F_p, singular ones included
    G = ElemAbelianRank2(Prime(M.p))
    row = G.index_action((int(M),), np.arange(G.order))[0]
    assert row.tolist() == [G.index(G.apply(M, g)) for g in G.elements()]
    assert int(M) == sum(e * M.p ** (3 - i) for i, e in enumerate(M.entries))  # base-p digits, m00 first


SUBGROUPS = {
    "units": lambda: units(5, 2),
    "centralizer-jordan": lambda: centralizer(Mat2(1, 1, 0, 1, 5)),
    "centralizer-scalar": lambda: centralizer(Mat2(2, 0, 0, 2, 5)),
    "stabilizer-rank2": lambda: stabilizer(
        ElemAbelianRank2(Prime(5)), Mat2(2, 0, 0, 2, 5), Mat2(1, 1, 0, 1, 5)
    ),
    "stabilizer-cyclic": lambda: stabilizer(Cyclic(Prime(5), 2), Unit(2, 25), Unit(3, 25)),
}


@pytest.mark.parametrize("make", SUBGROUPS.values(), ids=SUBGROUPS.keys())
def test_subgroups_are_plain_tuples_with_read_only_codes(make):
    S = make()
    members = tuple(S)
    assert type(S) is Subgroup
    assert S == members and hash(S) == hash(members)
    assert make() is S
    assert S.codes.tolist() == [int(f) for f in members]
    assert not S.codes.flags.writeable
    with pytest.raises(ValueError):
        S.codes[0] = 0


def test_a_cold_cyclic_enumeration_computes_each_unit_code_once(monkeypatch):
    real, coded = Unit.__int__, []
    monkeypatch.setattr(Unit, "__int__", lambda u: coded.append(u) or real(u))
    units.cache_clear()
    enumeration._orbit_reps.cache_clear()
    enumerate_forms(Cyclic(Prime(5), 2))
    assert sorted(coded, key=real) == list(units(5, 2))


class SquaringCyclic(Cyclic):
    """Z_{p^k} whose 'action' is x -> x^2: not an endomorphism."""

    def index_action(self, ms, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return np.tile(idx * idx % self.order, (len(ms), 1))


class AffineCyclic(Cyclic):
    """Z_{p^k} whose 'action' is x -> 2x + 1: its image misses 0."""

    def index_action(self, ms, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return np.tile((2 * idx + 1) % self.order, (len(ms), 1))


def test_every_quotient_call_rejects_a_non_endomorphism():
    squares = SquaringCyclic(Prime(3), 2)  # squares mod 9: {0, 1, 4, 7}, 4 does not divide 9
    # 2x + 1 mod 4 has image {1, 3}: 2 greedy translates of 2 elements, but 0 and 2 uncovered
    affine = AffineCyclic(Prime(2), 2)
    for G in (squares, affine):
        for _ in range(3):  # memoisation must not let a later call through
            with pytest.raises(ValueError, match="not an endomorphism"):
                quotient_cosets(G, 1)


# ---------------------------------------------------------------- caches


NEW_CACHES = (
    groups._add_table,
    groups._image,
    groups._cosets,
    enumeration._orbit_reps,
    gl2._gl2_entries,
)


def subgroup_count(G):
    # Z_{p^k} is cyclic with k + 1 subgroups; (Z_p)^2 has 0, the whole group and p + 1 lines
    return G.k + 1 if isinstance(G, Cyclic) else G.p + 3


@pytest.mark.parametrize(
    "G", [Cyclic(Prime(3), 3), Cyclic(Prime(5), 2), ElemAbelianRank2(Prime(5))], ids=str
)
def test_cache_sizes_are_bounded_by_what_they_are_keyed_on(G):
    for cache in NEW_CACHES:
        cache.cache_clear()
    enumerate_forms(G)
    pairs = enumeration_pairs(G)
    endomorphisms_seen = {_one_minus(G, phi, psi) for phi, psi in pairs}
    orbit_keys = set()
    for phi, psi in pairs:
        cosets = quotient_cosets(G, _one_minus(G, phi, psi))
        if len(cosets) > 1:
            orbit_keys.add((stabilizer(G, phi, psi), id(cosets)))
    assert groups._add_table.cache_info().currsize == 1
    assert groups._image.cache_info().currsize <= len(endomorphisms_seen)
    assert groups._cosets.cache_info().currsize <= subgroup_count(G)
    assert enumeration._orbit_reps.cache_info().currsize == len(orbit_keys)
    assert gl2._gl2_entries.cache_info().currsize <= 1
