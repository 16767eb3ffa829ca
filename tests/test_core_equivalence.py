"""The integer-coded core against the plain-object algorithms it replaced.

The reference functions below are the earlier implementations, kept here as
test-only oracles: greedy cosets from exhaustive `apply`/`add`, orbit
representatives by union-find over every (map, coset) pair, centralizers by
`mul` filtering and the conjugacy partition by conjugating `Mat2` objects.
The core must agree with them exactly, ordering included.
"""

from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import enumeration, gl2, groups, quasigroup
from medialq.cli import main
from medialq.enumeration import (
    _one_minus,
    _orbit_reps,
    closed_form_cyclic,
    enumerate_forms,
    orbit_reps_c,
    reps_x,
    reps_y,
    stabilizer,
)
from medialq.fp import Prime
from medialq.gl2 import (
    SCALAR,
    Mat2,
    Unit,
    _assert_commutative,
    _span_basis,
    centralizer,
    conj_class_reps,
    conjugacy_partition,
    gl2_elements,
    units,
)
from medialq.groups import Cyclic, ElemAbelianRank2, quotient_cosets
from reference import (
    _case_tag,
    add,
    apply,
    as_matrices,
    automorphism,
    det,
    identity_matrix,
    inv,
    is_scalar,
    mul,
    partition_classes,
    rank,
    ref_reps_x,
    ref_reps_y,
    ref_stabilizer,
    sub,
    zero_matrix,
)

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
    """What `apply` takes: the multiplier of a unit, or the matrix itself."""
    return f.value if isinstance(f, Unit) else f


def one_minus(G, phi, psi):
    """1 - phi - psi as `apply` takes it, checked against the code `_one_minus` returns."""
    M = (1 - phi.value - psi.value) % G.order if isinstance(G, Cyclic) else sub(sub(identity_matrix(G.p), phi), psi)
    assert _one_minus(G, int(phi), (int(psi),))[0] == int(M)
    return M


def ref_quotient_cosets(G, M):
    els = G.elements()
    image_set = {apply(G, M, g) for g in els}
    image = [g for g in els if g in image_set]
    reps = []
    coset_index = {}
    for g in els:
        if g in coset_index:
            continue
        idx = len(reps)
        reps.append(g)
        for im in image:
            coset_index[add(G, g, im)] = idx
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
            uf.union(i, coset_index[apply(G, m, r)])
    roots = {}
    for i, r in enumerate(representatives):
        root = uf.find(i)
        if root not in roots or G.index(r) < G.index(roots[root]):
            roots[root] = r
    return tuple(sorted(roots.values(), key=G.index))


@lru_cache(maxsize=None)
def ref_centralizer(A):
    return tuple(B for B in gl2_elements(A.p) if mul(A, B) == mul(B, A))


def ref_partition(p):
    pairs = [(h, inv(h)) for h in gl2_elements(p)]
    return tuple(
        frozenset(mul(mul(h, R), hi) for h, hi in pairs)
        for R in conj_class_reps(p)
    )


def enumeration_pairs(G):
    """Every (phi, psi) of the enumeration, as `Unit` or `Mat2` objects."""
    return [
        (automorphism(G, phi), automorphism(G, psi))
        for phi in reps_x(G).tolist()
        for psi in reps_y(G, phi).tolist()
    ]


def code_bytes(maps) -> bytes:
    """The int64 bytes of the maps' codes, as `_orbit_reps` takes them."""
    return np.array([int(m) for m in maps], dtype=np.int64).tobytes()


def as_maps(G, codes) -> list:
    """What `apply` takes for each code: the residue itself, or the matrix."""
    return codes.tolist() if isinstance(G, Cyclic) else list(as_matrices(codes, G.p))


# ---------------------------------------------------------------- equivalence


@pytest.mark.parametrize("G", EQUIVALENCE_GROUPS, ids=str)
def test_every_pair_matches_the_reference_algorithms(G):
    for phi, psi in enumeration_pairs(G):
        M = one_minus(G, phi, psi)
        reps, order, coset_index = ref_quotient_cosets(G, M)
        cosets = quotient_cosets(G, M)
        assert cosets.representatives == reps
        assert cosets.subgroup_order == order
        assert [coset_index[g] for g in G.elements()] == cosets.coset_of.tolist()
        stab = ref_stabilizer(G, phi, psi)
        assert stabilizer(G, int(phi), int(psi)).tolist() == [int(h) for h in stab]
        expected = (G.zero,) if len(reps) == 1 else ref_orbit_reps(
            G, [plain(h) for h in stab], M
        )
        assert orbit_reps_c(G, int(phi), int(psi)) == expected
        if isinstance(G, ElemAbelianRank2):
            assert centralizer(phi.p, int(phi)).tolist() == [int(B) for B in ref_centralizer(phi)]
            assert centralizer(psi.p, int(psi)).tolist() == [int(B) for B in ref_centralizer(psi)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_every_case_tag_names_the_rank_of_the_difference_matrix(p):
    # the tag reads the rank from the image's order; the reference from the matrix
    G = ElemAbelianRank2(Prime(p))
    for phi, psi in enumeration_pairs(G):
        r = rank(sub(sub(identity_matrix(p), phi), psi))
        state = _case_tag(G, phi, psi).rsplit(".", 1)[1]
        assert state == {2: "regular", 1: "rank1", 0: "rank0"}[r] or (
            state == "singular" and r < 2
        )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_conjugacy_partition_matches_object_conjugation(p):
    assert partition_classes(p) == ref_partition(p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_every_centralizer_matches_the_mul_filter(p):
    for A in gl2_elements(p):
        assert centralizer(A.p, int(A)).tolist() == [int(B) for B in ref_centralizer(A)]


def test_partition_raises_on_a_non_transversal(monkeypatch):
    reps = dict(conj_class_reps(3))
    partition = conjugacy_partition.__wrapped__  # bypass the cache
    # diag(2, 1) is conjugate to the representative diag(1, 2), but not equal to it
    assert Mat2(1, 0, 0, 2, 3) in reps and Mat2(2, 0, 0, 1, 3) not in reps
    monkeypatch.setattr(gl2, "conj_class_reps", lambda p: {**reps, Mat2(2, 0, 0, 1, 3): "distinct"})
    with pytest.raises(ValueError, match="conjugate to an earlier one"):
        partition(3)
    monkeypatch.setattr(gl2, "conj_class_reps", lambda p: dict(list(reps.items())[:-1]))
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
    monkeypatch.setattr(gl2, "centralizer", lambda p, A: real(p, A)[1:])
    with pytest.raises(ValueError, match="orbit-stabilizer fails"):
        conjugacy_partition.__wrapped__(5)


def as_entries(members) -> np.ndarray:
    """The entry rows of the matrices, as `_assert_commutative` takes them."""
    return np.array([M.entries for M in members], dtype=np.int64).reshape(-1, 4)


def first_clash(members):
    """The first pair (X, Y), X before Y, that does not commute, or None."""
    return next(
        ((X, Y) for i, X in enumerate(members) for Y in members[i + 1 :] if mul(X, Y) != mul(Y, X)),
        None,
    )


def test_commutativity_check_names_the_first_failing_pair():
    I = identity_matrix(3)
    A, B, C = Mat2(1, 1, 0, 1, 3), Mat2(1, 0, 1, 1, 3), Mat2(2, 0, 0, 1, 3)
    members = (I, A, C, B)
    first = first_clash(members)
    with pytest.raises(ValueError) as err:
        _assert_commutative(as_entries(members), 3)
    assert str(err.value) == f"centralizer is not commutative: {first[0]} vs {first[1]}"
    assert _assert_commutative(as_entries((I, A, Mat2(2, 2, 0, 2, 3))), 3) is True


def test_a_centralizer_with_a_stranger_raises_the_commutativity_message(monkeypatch):
    # one more basis vector, [[1,0],[1,1]], which does not commute with the
    # Jordan block, puts non-commuting members into its listed centralizer
    real, bases, p = gl2._null_space, [], 5

    def widened(rows, p):
        bases.append(np.vstack([real(rows, p), [1, 0, 1, 1]]))
        return bases[-1]

    monkeypatch.setattr(gl2, "_null_space", widened)
    centralizer.cache_clear()
    try:
        with pytest.raises(ValueError) as err:
            centralizer(p, int(Mat2(1, 1, 0, 1, p)))
    finally:
        centralizer.cache_clear()
    (basis,) = bases
    span = (Mat2(*(np.array(c) @ basis % p).tolist(), p) for c in np.ndindex((p,) * len(basis)))
    first = first_clash(as_matrices(sorted(int(M) for M in span if det(M)), p))
    assert str(err.value) == f"centralizer is not commutative: {first[0]} vs {first[1]}"


@st.composite
def entry_rows(draw):
    # up to 10 rows of 4 entries over F_p, not reduced mod p
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=4, max_size=4), max_size=10))
    return p, np.array(rows, dtype=np.int64).reshape(-1, 4)


@settings(max_examples=200, deadline=None)
@given(entry_rows())
def test_the_span_basis_is_independent_and_spans_every_row(case):
    p, x = case
    basis = x[_span_basis(x, p)]
    span = {tuple(np.array(c, dtype=np.int64) @ basis % p) for c in np.ndindex((p,) * len(basis))}
    assert len(span) == p ** len(basis) <= p ** 4
    assert {tuple(row % p) for row in x} <= span


@st.composite
def centralizers_with_a_stranger(draw):
    # the members of a non-scalar centralizer, maybe with one more invertible
    # matrix put in at some place
    p = draw(st.sampled_from([2, 3, 5, 7]))
    A = draw(st.sampled_from([A for A in gl2_elements(p) if not is_scalar(A)]))
    members = list(as_matrices(centralizer(A.p, int(A)), p))
    if draw(st.booleans()):
        members.insert(draw(st.integers(0, len(members))), draw(st.sampled_from(gl2_elements(p))))
    return tuple(members)


@settings(max_examples=150, deadline=None)
@given(centralizers_with_a_stranger())
def test_the_basis_check_decides_what_every_pair_decides(members):
    first = first_clash(members)
    if first is None:
        assert _assert_commutative(as_entries(members), members[0].p) is True
    else:
        with pytest.raises(ValueError) as err:
            _assert_commutative(as_entries(members), members[0].p)
        assert str(err.value) == f"centralizer is not commutative: {first[0]} vs {first[1]}"



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
        if mul(B, phi) == mul(phi, B)
    ]
    return ElemAbelianRank2(Prime(p)), phi, draw(st.sampled_from(commutant))


@settings(max_examples=300, deadline=None)
@given(commuting_matrix_pairs())
def test_stabilizer_is_the_brute_force_intersection_for_any_commuting_pair(case):
    G, phi, psi = case
    if det(phi) == 0 or det(psi) == 0:
        with pytest.raises(ValueError, match="must both be invertible"):
            stabilizer(G, int(phi), int(psi))
    else:
        assert stabilizer(G, int(phi), int(psi)).tolist() == [int(B) for B in ref_stabilizer(G, phi, psi)]


def rep_id(rep):
    """kind-a-b of a representative: a and b are the free entries of its normal form, None if it has one."""
    R, kind = rep
    a, b = (R.m10, R.m11) if kind == "irreducible" else (R.m00, R.m11 if kind == "distinct" else None)
    return f"{kind}-{a}-{b}"


@pytest.mark.parametrize("rep", conj_class_reps(3).items(), ids=rep_id)
def test_stabilizer_rejects_a_singular_matrix_of_every_kind(rep):
    # every singular matrix commuting with the representative, on either side
    G, (R, _) = ElemAbelianRank2(Prime(3)), rep
    singular = [
        S
        for e in np.ndindex((3,) * 4)
        for S in [Mat2(*e, 3)]
        if det(S) == 0 and mul(S, R) == mul(R, S)
    ]
    assert zero_matrix(3) in singular
    for S in singular:
        for phi, psi in ((R, S), (S, R), (S, S)):
            with pytest.raises(ValueError, match="must both be invertible"):
                stabilizer(G, int(phi), int(psi))


def test_commutativity_is_checked_once_per_non_scalar_matrix(monkeypatch):
    G = ElemAbelianRank2(Prime(5))
    real, checked = gl2._assert_commutative, []

    def counting(x, p):
        checked.append(groups._matrix_code(x[:, 0], x[:, 1], x[:, 2], x[:, 3], p).tolist())
        return real(x, p)

    monkeypatch.setattr(gl2, "_assert_commutative", counting)
    centralizer.cache_clear()
    enumerate_forms(G)
    # the enumeration takes the centralizers of the representatives alone, and
    # checks each non-scalar one once, on its members; a scalar's is GL(2,5)
    non_scalar = [int(R) for R, kind in conj_class_reps(5).items() if kind != SCALAR]
    assert sorted(checked) == sorted(centralizer(5, A).tolist() for A in non_scalar)
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
    maps = data.draw(st.lists(map_strategy, max_size=6))
    expected = ref_orbit_reps(G, maps, M)
    try:  # exact components, or refused: the least images are checked, not trusted
        assert _orbit_reps(G, code_bytes(maps), cosets) == expected
    except ValueError as err:
        assert "moves a least image" in str(err)


@pytest.mark.parametrize("G", [Cyclic(Prime(3), 3), ElemAbelianRank2(Prime(3))], ids=str)
def test_orbits_do_not_depend_on_the_block_size(G, monkeypatch):
    # one stabilizer element per block: orbits are joined across many blocks
    monkeypatch.setattr(enumeration, "_ACTION_CHUNK", 1)
    enumeration._orbit_reps.cache_clear()
    try:
        for phi, psi in enumeration_pairs(G):
            M = one_minus(G, phi, psi)
            cosets = quotient_cosets(G, M)
            stab = stabilizer(G, int(phi), int(psi))
            expected = ref_orbit_reps(G, as_maps(G, stab), M)
            assert _orbit_reps(G, stab.tobytes(), cosets) == expected
    finally:
        enumeration._orbit_reps.cache_clear()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbits_of_a_projection_join_its_tails(p):
    # (x, y) -> (x + y, 0) sends (0, 1) to (1, 0): the least element of that
    # component lies on a tail, which no least image reaches, so it is refused
    G = ElemAbelianRank2(Prime(p))
    cosets = quotient_cosets(G, zero_matrix(p))
    maps = (Mat2(1, 1, 0, 0, p),)
    assert len(ref_orbit_reps(G, maps, zero_matrix(p))) == p
    with pytest.raises(ValueError, match="moves a least image"):
        _orbit_reps(G, code_bytes(maps), cosets)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbits_refuse_an_order_three_matrix_without_its_powers(p):
    # each orbit of <A> is a 3-cycle, and one map alone moves some least image
    G, zero = ElemAbelianRank2(Prime(p)), zero_matrix(p)
    A = Mat2(0, 1, -1, -1, p)  # the companion matrix of x^2 + x + 1
    I, A2 = identity_matrix(p), mul(A, A)
    assert A != I and mul(A2, A) == I
    cosets = quotient_cosets(G, zero)
    for alone in (A, A2):
        with pytest.raises(ValueError, match="moves a least image"):
            _orbit_reps(G, code_bytes((alone,)), cosets)
    assert _orbit_reps(G, code_bytes((I, A, A2)), cosets) == ref_orbit_reps(G, (I, A, A2), zero)


@lru_cache(maxsize=None)
def all_matrices(p):
    return tuple(Mat2(*e, p) for e in np.ndindex((p,) * 4))


@st.composite
def generated_subgroups(draw):
    """A subgroup of Aut(G) generated by one or two random elements, closed by BFS,
    and an endomorphism M commuting with the generators, so it acts on G / Im(M)."""
    G = draw(st.sampled_from([g for g in SMALL_GROUPS if g.p <= 5] + [ElemAbelianRank2(Prime(5))]))
    if isinstance(G, Cyclic):
        gens = draw(st.lists(st.sampled_from(ref_reps_x(G)), min_size=1, max_size=2))
        M = draw(st.integers(0, G.order - 1))
        times = lambda a, b: Unit(a.value * b.value, G.order)
    else:
        gens = draw(st.lists(st.sampled_from(gl2_elements(G.p)), min_size=1, max_size=2))
        M = draw(st.sampled_from([E for E in all_matrices(G.p) if all(mul(E, g) == mul(g, E) for g in gens)]))
        times = mul
    members, frontier = dict.fromkeys(gens), list(gens)
    while frontier:
        frontier = [h for h in dict.fromkeys(times(a, g) for a in frontier for g in gens) if h not in members]
        members.update(dict.fromkeys(frontier))
    return G, tuple(members), M


@settings(max_examples=300, deadline=None)
@given(generated_subgroups())
def test_orbits_of_a_generated_subgroup_match_union_find(case):
    G, maps, M = case
    expected = ref_orbit_reps(G, [plain(h) for h in maps], M)
    assert _orbit_reps(G, code_bytes(maps), quotient_cosets(G, M)) == expected


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=str)
def test_index_level_arithmetic_matches_element_level(G):
    els = G.elements()
    table = groups._add_table(G)
    for a in els:
        for b in els:
            assert table[G.index(a), G.index(b)] == G.index(add(G, a, b))
    # every multiplier and every unit, or 50 invertible and 50 singular matrices
    if isinstance(G, Cyclic):
        maps = list(range(G.order)) + units(G.p, G.k).tolist()
    else:
        singular = [M for e in np.ndindex((G.p,) * 4) for M in [Mat2(*e, G.p)] if det(M) == 0]
        maps = list(gl2_elements(G.p)[:50]) + singular[:50]
    action = G.index_action([int(m) for m in maps], np.arange(G.order))
    for row, m in zip(action.tolist(), maps):
        assert row == [G.index(apply(G, plain(m), g)) for g in els]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.lists(st.integers(0, p - 1), min_size=4, max_size=4).map(lambda e: Mat2(*e, p))
))
def test_a_matrix_code_acts_as_the_matrix(M):
    # any 2x2 matrix over F_p, singular ones included
    G = ElemAbelianRank2(Prime(M.p))
    row = G.index_action((int(M),), np.arange(G.order))[0]
    assert row.tolist() == [G.index(apply(G, M, g)) for g in G.elements()]
    assert int(M) == sum(e * M.p ** (3 - i) for i, e in enumerate(M.entries))  # base-p digits, m00 first


V5, Z9, Z25 = ElemAbelianRank2(Prime(5)), Cyclic(Prime(3), 2), Cyclic(Prime(5), 2)
JORDAN5, SCALAR5 = int(Mat2(1, 1, 0, 1, 5)), int(Mat2(2, 0, 0, 2, 5))

CODE_ARRAYS = {
    "units": lambda: units(5, 2),
    "centralizer-jordan": lambda: reps_y(V5, JORDAN5),
    "centralizer-scalar": lambda: stabilizer(V5, SCALAR5, SCALAR5),
    "stabilizer-rank2": lambda: stabilizer(V5, SCALAR5, JORDAN5),
    "stabilizer-cyclic": lambda: stabilizer(Z25, 2, 3),
}


@pytest.mark.parametrize("make", CODE_ARRAYS.values(), ids=CODE_ARRAYS.keys())
def test_code_arrays_are_cached_and_read_only(make):
    S = make()
    assert type(S) is np.ndarray and S.dtype == np.int64 and S.ndim == 1
    assert make() is S
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0] = 0


# every (Z_p)^2 with p <= 7, and every Z_{p^k} of order at most 49
CODE_GROUPS = [ElemAbelianRank2(Prime(p)) for p in (2, 3, 5, 7)] + [
    Cyclic(Prime(p), k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) for k in range(1, 6) if p ** k <= 49
]


@st.composite
def representative_pairs(draw):
    # any pair (phi, psi) the enumeration lists, as reference objects
    G = draw(st.sampled_from(CODE_GROUPS))
    phi = draw(st.sampled_from(ref_reps_x(G)))
    return G, phi, draw(st.sampled_from(ref_reps_y(G, phi)))


@settings(max_examples=150, deadline=None)
@given(representative_pairs())
def test_code_arrays_are_the_codes_of_the_reference_lists(case):
    G, phi, psi = case
    listed = [
        (reps_x(G), ref_reps_x(G)),
        (reps_y(G, int(phi)), ref_reps_y(G, phi)),
        (stabilizer(G, int(phi), int(psi)), ref_stabilizer(G, phi, psi)),
    ]
    for codes, objects in listed:
        assert codes.dtype == np.int64 and not codes.flags.writeable
        assert codes.tolist() == [int(f) for f in objects]  # in order


def test_a_cold_cyclic_enumeration_computes_each_unit_code_once(monkeypatch):
    # the codes are the residues of one units(5, 2) array, made once; no Unit
    # is ever turned back into its code
    real, coded = Unit.__int__, []
    monkeypatch.setattr(Unit, "__int__", lambda u: coded.append(u) or real(u))
    units.cache_clear()
    enumeration._orbit_reps.cache_clear()
    enumerate_forms(Z25)
    assert units.cache_info().misses == 1
    assert coded == []


def test_a_cold_cyclic_enumeration_builds_no_unit(monkeypatch):
    real, built = Unit.__init__, []
    monkeypatch.setattr(Unit, "__init__", lambda u, *args: built.append(1) or real(u, *args))
    for cache in (units, enumeration._orbit_reps, groups._cosets):
        cache.cache_clear()
    blocks = list(enumeration.enumerate_blocks(Z25))
    assert built == []
    assert sum(len(c_reps) for _, _, _, cs in blocks for c_reps in cs) == closed_form_cyclic(5, 2)


def test_a_cold_rank2_enumeration_builds_no_gl2_list_of_mat2(monkeypatch):
    # Each of the 24 class representatives of GL(2,5) once, in conj_class_reps,
    # which conjugacy_partition, reps_x and the blocks' tags read.  Centralizer
    # members and psi stay codes, and no GL(2,5) list and no pair check builds one.
    real, built = Mat2.__init__, []
    monkeypatch.setattr(Mat2, "__init__", lambda M, *args: built.append(1) or real(M, *args))
    for cache in (gl2.gl2_elements, gl2.conj_class_reps, gl2.conjugacy_partition, gl2.centralizer):
        cache.cache_clear()
    blocks = list(enumeration.enumerate_blocks(V5))
    assert gl2.gl2_elements.cache_info().currsize == 0
    assert len(built) == 24
    assert sum(len(c_reps) for _, _, _, cs in blocks for c_reps in cs) == 594


def test_crosscheck_builds_no_triple_and_no_mat2_past_the_class_representatives(monkeypatch, capsys):
    # Both sides of (Z_3)^2's crosscheck stay codes: the 8 class representatives
    # of GL(2,3), in conj_class_reps, are its only objects of these classes.
    built = {cls: [] for cls in (Mat2, Unit, enumeration.RepresentativeTriple, quasigroup.AffineForm)}
    for cls, calls in built.items():
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda x, *args, real=real, calls=calls: calls.append(1) or real(x, *args))
    for cache in (gl2.gl2_elements, gl2.conj_class_reps, gl2.conjugacy_partition, gl2.centralizer, reps_x):
        cache.cache_clear()
    assert main(["crosscheck", "--group", "zp2", "--p", "3"]) == 0
    assert capsys.readouterr().out.endswith("68 = 68 OK\n")
    assert {cls.__name__: len(calls) for cls, calls in built.items()} == {
        "Mat2": 3 * 3 - 1, "Unit": 0, "RepresentativeTriple": 0, "AffineForm": 0,
    }


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
    groups._cosets,
    enumeration._orbit_reps,
    enumeration.reps_x,
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
    orbit_keys = set()
    for phi, psi in pairs:
        cosets = quotient_cosets(G, _one_minus(G, int(phi), (int(psi),))[0])
        if len(cosets) > 1:
            orbit_keys.add((stabilizer(G, int(phi), int(psi)).tobytes(), id(cosets)))
    assert groups._add_table.cache_info().currsize == 1
    assert groups._cosets.cache_info().currsize <= subgroup_count(G)
    assert enumeration._orbit_reps.cache_info().currsize == len(orbit_keys)
    assert enumeration.reps_x.cache_info().currsize == 1


# ---------------------------------------------------------------- blocks


@pytest.mark.parametrize("G", EQUIVALENCE_GROUPS + [ElemAbelianRank2(Prime(7))], ids=str)
def test_every_block_row_matches_the_per_pair_functions(G):
    # the blocks take codes, images and tags for all psi at once; the per-pair
    # functions, and the reference case tag, take one pair at a time
    for phi, psis, tags, cs in enumeration.enumerate_blocks(G):
        assert psis.tolist() == reps_y(G, phi).tolist()
        assert len(psis) == len(tags) == len(cs)
        for psi, tag, c_reps in zip(psis.tolist(), tags, cs):
            assert tag == _case_tag(G, automorphism(G, phi), automorphism(G, psi))
            assert c_reps == orbit_reps_c(G, phi, psi)


def non_unit(value, modulus):
    """A `Unit` that skips its own check, as a corrupted psi list could hold."""
    u = object.__new__(Unit)
    object.__setattr__(u, "value", value)
    object.__setattr__(u, "modulus", modulus)
    return u


INJECTED = {
    "not-commuting": (V5, JORDAN5, int(Mat2(1, 0, 1, 1, 5))),
    "singular": (V5, JORDAN5, int(Mat2(0, 1, 0, 0, 5))),  # commutes with phi
    "singular-to-a-scalar": (V5, SCALAR5, int(Mat2(1, 0, 0, 0, 5))),
    "other-field": (V5, JORDAN5, 5 ** 4),  # a code past every matrix over F_5
    "negative": (V5, JORDAN5, -1),
    "non-unit": (Z9, 2, 3),
    "other-modulus": (Z9, 2, 9),  # a residue past Z_9
    # codes whose digits or residue, reduced, name a good psi: only the range check refuses them
    "aliasing-matrix": (V5, JORDAN5, 5 ** 4 + JORDAN5),
    "aliasing-residue": (Z9, 2, 9 + 2),
}


@pytest.mark.parametrize("case", INJECTED.values(), ids=INJECTED.keys())
def test_a_bad_psi_injected_into_a_block_raises_check_pairs_message(case, monkeypatch):
    G, phi, bad = case
    with pytest.raises(ValueError) as expected:
        gl2.check_pairs(G, phi, (bad,))
    if 0 <= bad < (G.order if isinstance(G, Cyclic) else G.p ** 4):
        # the code of a map of G: its message is check_pair's for the objects
        objects = [non_unit(f, G.order) if isinstance(G, Cyclic) else as_matrices([f], G.p)[0] for f in (phi, bad)]
        with pytest.raises(ValueError) as by_objects:
            gl2.check_pair(G, *objects)
        assert str(by_objects.value) == str(expected.value)
    else:
        assert str(expected.value) == f"{bad} is not the code of an automorphism of {G}"
    real = enumeration.reps_y
    good = real(G, phi).tolist()
    for at in (0, 2, len(good)):
        psis = np.array(good[:at] + [bad] + good[at:], dtype=np.int64)
        monkeypatch.setattr(enumeration, "reps_y", lambda G, f: psis if f == phi else real(G, f))
        with pytest.raises(ValueError) as err:
            list(enumeration.enumerate_blocks(G))
        assert str(err.value) == str(expected.value)


def test_the_block_check_names_the_first_failing_pair_in_list_order():
    good = reps_y(V5, JORDAN5).tolist()
    bad = [INJECTED[name][2] for name in ("singular", "not-commuting", "other-field")]
    for first, second in permutations(bad, 2):
        with pytest.raises(ValueError) as expected:
            gl2.check_pairs(V5, JORDAN5, (first,))
        with pytest.raises(ValueError) as err:
            gl2.check_pairs(V5, JORDAN5, good[:3] + [first] + good[3:] + [second])
        assert str(err.value) == str(expected.value)
    gl2.check_pairs(V5, JORDAN5, good)  # the real list passes
    with pytest.raises(ValueError, match="must both be invertible"):
        gl2.check_pairs(V5, int(Mat2(1, 1, 1, 1, 5)), (int(identity_matrix(5)),))  # a singular phi
    with pytest.raises(ValueError, match="-1 is not the code of an automorphism"):
        gl2.check_pairs(V5, -1, good)  # a phi out of range
