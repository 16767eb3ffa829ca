import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import gl2
from medialq.fp import Prime
from medialq.fp import is_irreducible_quadratic
from medialq.gl2 import Mat2, Unit, centralizer, conj_class_reps, conjugacy_partition, units
from medialq.groups import ElemAbelianRank2
from reference import (
    as_matrices,
    det,
    filter_centralizer,
    gl2_elements,
    gl2_entries,
    gl2_order,
    identity_matrix,
    inv,
    is_scalar,
    matrix_codes,
    mul,
    parametrized_centralizer,
    partition_classes,
    products,
    rank,
    sub,
    zero_matrix,
)


def brute_conjugacy_classes(p):
    """Independent oracle: partition GL(2,p) by naive conjugation orbits."""
    gl = gl2_elements(p)
    remaining = set(gl)
    classes = []
    for g in gl:  # deterministic seed order
        if g not in remaining:
            continue
        cls = {mul(mul(h, g), inv(h)) for h in gl}
        remaining -= cls
        classes.append(frozenset(cls))
    return classes


def test_det_and_rank_examples():
    assert det(Mat2(2, 0, 0, 3, 5)) == 6 % 5
    assert rank(zero_matrix(3)) == 0
    assert det(Mat2(1, 1, 2, 2, 3)) == 0
    assert rank(Mat2(1, 1, 2, 2, 3)) == 1
    assert rank(Mat2(1, 1, 0, 1, 3)) == 2


def test_inverse_round_trip_over_gl2_3():
    I = identity_matrix(3)
    for A in gl2_elements(3):
        assert mul(A, inv(A)) == I
        assert mul(inv(A), A) == I


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        inv(Mat2(1, 1, 2, 2, 3))


def test_representative_matrices():
    assert conj_class_reps(3)[Mat2(2, 0, 0, 2, 3)] == "scalar"
    assert conj_class_reps(3)[Mat2(1, 1, 0, 1, 3)] == "jordan"
    assert conj_class_reps(2)[Mat2(0, 1, 1, 1, 2)] == "irreducible"
    assert conj_class_reps(3)[Mat2(1, 0, 0, 2, 3)] == "distinct"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_the_representatives_keep_their_normal_forms(p):
    reps = conj_class_reps(p)
    for R, kind in reps.items():
        m00, m01, m10, m11 = R.entries
        if kind == "scalar":
            assert (m01, m10) == (0, 0) and m00 == m11 != 0
        elif kind == "distinct":
            assert (m01, m10) == (0, 0) and 0 < m00 < m11
        elif kind == "jordan":
            assert (m01, m10) == (1, 0) and m00 == m11 != 0
        else:
            assert kind == "irreducible" and (m00, m01) == (0, 1) and is_irreducible_quadratic(m10, m11, p)
    kinds = list(reps.values())
    counts = {"scalar": p - 1, "distinct": (p - 1) * (p - 2) // 2, "jordan": p - 1, "irreducible": (p * p - p) // 2}
    assert kinds == [kind for kind, n in counts.items() for _ in range(n)]  # in this order, this many of each
    with pytest.raises(TypeError):
        reps[identity_matrix(p)] = "scalar"


@pytest.mark.parametrize("p,count", [(2, 3), (3, 8), (5, 24)])
def test_representative_count_matches_brute_force(p, count):
    reps = conj_class_reps(p)
    assert len(reps) == count == p * p - 1
    brute = brute_conjugacy_classes(p)
    assert len(brute) == count
    matrices = list(reps)
    for cls in brute:
        assert sum(m in cls for m in matrices) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_partition_consistent_with_library(p):
    brute = set(brute_conjugacy_classes(p))
    assert set(partition_classes(p)) == brute


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centralizers_match_parametrizations(p):
    for R, kind in conj_class_reps(p).items():
        assert set(as_matrices(centralizer(R.p, int(R)), p)) == set(parametrized_centralizer(R, kind))


def test_centralizer_sizes():
    assert len(centralizer(3, int(Mat2(2, 0, 0, 2, 3)))) == gl2_order(3)
    assert len(centralizer(3, int(Mat2(1, 1, 0, 1, 3)))) == 3 * 2
    assert len(centralizer(2, int(Mat2(0, 1, 1, 1, 2)))) == 2 * 2 - 1


def test_every_scalar_matrix_shares_one_centralizer_array():
    assert centralizer(5, int(Mat2(2, 0, 0, 2, 5))) is centralizer(5, int(Mat2(3, 0, 0, 3, 5)))
    centralizer.cache_clear()
    conjugacy_partition.cache_clear()
    conjugacy_partition(13)
    misses = centralizer.cache_info().misses
    scalars = [centralizer(13, int(R)) for R, kind in conj_class_reps(13).items() if kind == "scalar"]
    assert centralizer.cache_info().misses == misses  # each was made by the partition
    assert len(scalars) == 12 and all(C is scalars[0] for C in scalars)
    assert len(scalars[0]) == gl2_order(13) and not scalars[0].flags.writeable
    # one copy of GL(2,13)'s codes, 0.2 MB; one per scalar held 2.4 MB
    assert sum({id(C): C.nbytes for C in scalars}.values()) < 0.5 * 2 ** 20


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_null_space_centralizer_is_the_filter_for_every_element(p):
    for row in gl2_entries(p).tolist():
        A = Mat2(*row, p)
        C = centralizer(A.p, int(A))
        assert C.tolist() == filter_centralizer(A)  # as a set, and ascending
        assert not C.flags.writeable


@pytest.mark.parametrize("p", [11, 13])
def test_the_null_space_centralizer_is_the_filter_for_every_representative(p):
    for A in conj_class_reps(p):
        assert set(centralizer(A.p, int(A)).tolist()) == set(filter_centralizer(A))
        assert centralizer(A.p, int(A)).tolist() == sorted(centralizer(A.p, int(A)).tolist())


def test_conjugacy_partition_labels_each_element_with_its_class():
    classes = conjugacy_partition(5)
    assert classes.shape == (gl2_order(5),) and not classes.flags.writeable
    assert sorted(set(classes.tolist())) == list(range(len(conj_class_reps(5))))


def test_centralizer_of_singular_raises():
    with pytest.raises(ValueError, match=re.escape("[[1,1],[2,2]] mod 3 is singular")):
        centralizer(3, int(Mat2(1, 1, 2, 2, 3)))
    for code in (-1, 3 ** 4):  # no code of a 2x2 matrix over F_3
        with pytest.raises(ValueError, match="not the code of a 2x2 matrix over F_3"):
            centralizer(3, code)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_stabilizer(p):
    order = gl2_order(p)
    assert order == len(gl2_elements(p))
    for R, cls in zip(conj_class_reps(p), partition_classes(p)):
        assert len(cls) * len(centralizer(R.p, int(R))) == order


@pytest.mark.parametrize("p", [2, 3, 5])
def test_non_scalar_centralizers_are_commutative(p):
    for R, kind in conj_class_reps(p).items():
        if kind == "scalar":
            continue
        members = as_matrices(centralizer(R.p, int(R)), p)
        for i, A in enumerate(members):
            for B in members[i + 1 :]:
                assert mul(A, B) == mul(B, A)


def digits(codes, p: int) -> np.ndarray:
    """The entry rows (m00, m01, m10, m11) of matrix codes over F_p: their base-p digits, m00 first."""
    codes = np.asarray(codes)[:, None]
    return codes // p ** np.arange(3, -1, -1) % p


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centralizers_are_subgroups(p):
    # every product of two members, by numpy's matmul, is a member, and so is the identity
    identity = matrix_codes([1, 0, 0, 1], p)
    for R in conj_class_reps(p):
        codes = centralizer(R.p, int(R))
        x = digits(codes, p)
        assert matrix_codes(x, p).tolist() == codes.tolist()
        assert identity in codes
        product_codes = matrix_codes(products(x[:, None], x[None, :], p), p)
        assert np.isin(product_codes, codes).all()
        assert (product_codes == identity).any(axis=1).all()  # every member has its inverse among them


def test_commutes_examples():
    # `gl2._commute` on entry rows: 1 x 1 ones (units mod 9) and 2 x 2 ones over F_3
    assert gl2._commute(np.array([2]), np.array([5]), 9)
    assert gl2._commute(np.array(Mat2(2, 0, 0, 2, 3).entries), gl2_entries(3), 3).all()
    A = Mat2(1, 1, 0, 1, 3)
    B = Mat2(1, 0, 1, 1, 3)
    # independent check by multiplying both ways
    assert mul(A, B) != mul(B, A)
    assert not gl2._commute(np.array(A.entries), np.array(B.entries), 3)


matrix_pairs = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.lists(
        st.lists(st.integers(0, p - 1), min_size=4, max_size=4).map(lambda e: Mat2(*e, p)), min_size=2, max_size=2
    )
)


@settings(max_examples=300, deadline=None)
@given(matrix_pairs)
def test_commutes_is_equality_of_both_products(AB):
    # singular matrices included; `gl2._commute` must agree with mul both ways
    A, B = AB
    x, y, I = (np.array(M.entries) for M in (A, B, identity_matrix(A.p)))
    assert gl2._commute(x, y, A.p) == (mul(A, B) == mul(B, A))
    assert gl2._commute(x, x, A.p) and gl2._commute(x, I, A.p)


def test_units_listing():
    assert units(3, 2).tolist() == [1, 2, 4, 5, 7, 8]
    assert units(2, 2).tolist() == [1, 3]
    assert units(3, 2).dtype == np.int64 and not units(3, 2).flags.writeable
    assert len(units(5, 1)) == 4
    for p, k in [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1)]:
        assert len(units(p, k)) == p ** k - p ** (k - 1)


def test_unit_rejects_non_coprime():
    with pytest.raises(ValueError):
        Unit(3, 9)


def test_mat2_reduces_entries():
    assert Mat2(-1, 5, 3, 7, 3) == Mat2(2, 2, 0, 1, 3)


@pytest.mark.parametrize(
    "make, bad",
    [
        pytest.param(lambda: Mat2(1.5, 0, 0, 1, 3), 1.5, id="mat2-entry"),
        pytest.param(lambda: Mat2(1, 0, 0, 1, 3.0), 3.0, id="mat2-p"),
        pytest.param(lambda: Mat2(1, 0, "2", 1, 3), "2", id="mat2-str"),
        pytest.param(lambda: Unit(2.5, 9), 2.5, id="unit-value"),
        pytest.param(lambda: Unit(2, 9.0), 9.0, id="unit-modulus"),
    ],
)
def test_mat2_and_unit_take_integers_only(make, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not an integer$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        pytest.param(lambda: Mat2(1, 2, 0, 1, 4), "4 is not a prime", id="mat2-square"),
        pytest.param(lambda: Mat2(1, 2, 0, 1, 1), "1 is not a prime", id="mat2-one"),
        pytest.param(lambda: Mat2(1, 2, 0, 1, 0), "0 is not a prime", id="mat2-zero"),
        pytest.param(lambda: Mat2(1, 2, 0, 1, -3), "-3 is not a prime", id="mat2-negative"),
        pytest.param(lambda: Unit(5, 12), "12 is not a prime power", id="unit-composite"),
        pytest.param(lambda: Unit(1, -9), "-9 is not a prime power", id="unit-negative"),
        pytest.param(lambda: Unit(0, 1), "1 is not a prime power", id="unit-one"),
    ],
)
def test_mat2_and_unit_take_prime_and_prime_power_moduli(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_mat2_arithmetic_keeps_its_prime():
    M = Mat2(1, 2, 0, 1, 7)
    assert type(M.p) is Prime and str(M) == "[[1,2],[0,1]] mod 7"
    for result in (mul(M, M), sub(M, M), inv(M)):
        assert result.p is M.p


def test_mat2_and_unit_take_numpy_integers():
    M = Mat2(np.int64(4), np.int32(1), 0, np.int8(1), np.int64(3))
    assert M == Mat2(1, 1, 0, 1, 3) and type(M.m00) is int
    assert Unit(np.int64(11), np.int32(9)) == Unit(2, 9)


def loop_gl2_elements(p):
    """The earlier gl2_elements: one Mat2 per entry tuple, all p^4 of them, kept as the reference."""
    out = []
    for m00 in range(p):
        for m01 in range(p):
            for m10 in range(p):
                for m11 in range(p):
                    m = Mat2(m00, m01, m10, m11, p)
                    if det(m) != 0:
                        out.append(m)
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gl2_elements_match_the_loop_and_build_no_singular_matrix(p, monkeypatch):
    # the reference list, and GL(2,p)'s codes in the package as `Mat2`, are the loop's
    reference = loop_gl2_elements(p)
    assert gl2_elements(p) == reference
    assert as_matrices(gl2._aut_codes(ElemAbelianRank2(p)), p) == reference
    built = []
    init = Mat2.__init__

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(Mat2, "__init__", counting)
    assert gl2_elements.__wrapped__(p) == reference
    assert len(built) == gl2_order(p)  # one Mat2 per element, none for a singular matrix


matrices = st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.lists(
        st.lists(st.integers(-2 * p, 2 * p), min_size=4, max_size=4).map(lambda e: Mat2(*e, p)),
        min_size=3,
        max_size=3,
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_mat2_laws(abc):
    A, B, C = abc
    p = A.p
    I = identity_matrix(p)
    assert mul(mul(A, B), C) == mul(A, mul(B, C))
    assert mul(I, A) == A == mul(A, I)
    assert det(mul(A, B)) == det(A) * det(B) % p
    assert (rank(A) == 2) == (det(A) != 0)
    if det(A) != 0:
        assert mul(inv(A), A) == I == mul(A, inv(A))
        assert inv(inv(A)) == A
    else:
        with pytest.raises(ValueError, match="singular"):
            inv(A)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.lists(st.sampled_from(gl2_elements(p)), min_size=2, max_size=2)))
def test_conjugation_keeps_trace_determinant_and_scalarness(Mh):
    M, h = Mh
    C = mul(mul(h, M), inv(h))
    assert (C.m00 + C.m11) % C.p == (M.m00 + M.m11) % M.p
    assert det(C) == det(M)
    assert is_scalar(C) == is_scalar(M)
    assert gl2._class_key(np.array(C.entries), C.p) == gl2._class_key(np.array(M.entries), M.p)
