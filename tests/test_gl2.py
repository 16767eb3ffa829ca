import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import gl2
from medialq.fp import Prime
from medialq.gl2 import (
    ConjClassRep,
    Mat2,
    Unit,
    centralizer,
    commutes,
    conj_class_reps,
    conjugacy_partition,
    gl2_elements,
    gl2_order,
    parametrized_centralizer,
    units,
)


def brute_conjugacy_classes(p):
    """Independent oracle: partition GL(2,p) by naive conjugation orbits."""
    gl = gl2_elements(p)
    remaining = set(gl)
    classes = []
    for g in gl:  # deterministic seed order
        if g not in remaining:
            continue
        cls = {h.mul(g).mul(h.inv()) for h in gl}
        remaining -= cls
        classes.append(frozenset(cls))
    return classes


def test_det_and_rank_examples():
    assert Mat2(2, 0, 0, 3, 5).det() == 6 % 5
    assert Mat2.zero(3).rank() == 0
    assert Mat2(1, 1, 2, 2, 3).det() == 0
    assert Mat2(1, 1, 2, 2, 3).rank() == 1
    assert Mat2(1, 1, 0, 1, 3).rank() == 2


def test_inverse_round_trip_over_gl2_3():
    I = Mat2.identity(3)
    for A in gl2_elements(3):
        assert A.mul(A.inv()) == I
        assert A.inv().mul(A) == I


def test_inverse_of_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        Mat2(1, 1, 2, 2, 3).inv()


def test_representative_matrices():
    assert ConjClassRep("scalar", 2, None, 3).matrix() == Mat2(2, 0, 0, 2, 3)
    assert ConjClassRep("jordan", 1, None, 3).matrix() == Mat2(1, 1, 0, 1, 3)
    assert ConjClassRep("irreducible", 1, 1, 2).matrix() == Mat2(0, 1, 1, 1, 2)
    assert ConjClassRep("distinct", 1, 2, 3).matrix() == Mat2(1, 0, 0, 2, 3)


def test_representative_invariants_enforced():
    with pytest.raises(ValueError):
        ConjClassRep("scalar", 0, None, 3)
    with pytest.raises(ValueError):
        ConjClassRep("distinct", 2, 1, 5)
    with pytest.raises(ValueError):
        ConjClassRep("irreducible", 1, 0, 5)  # x^2 - 1 has roots


@pytest.mark.parametrize("p,count", [(2, 3), (3, 8), (5, 24)])
def test_representative_count_matches_brute_force(p, count):
    reps = conj_class_reps(p)
    assert len(reps) == count == p * p - 1
    brute = brute_conjugacy_classes(p)
    assert len(brute) == count
    matrices = [r.matrix() for r in reps]
    for cls in brute:
        assert sum(m in cls for m in matrices) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_partition_consistent_with_library(p):
    brute = set(brute_conjugacy_classes(p))
    assert set(conjugacy_partition(p)) == brute


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centralizers_match_parametrizations(p):
    for rep in conj_class_reps(p):
        assert set(centralizer(rep.matrix())) == set(parametrized_centralizer(rep))


def test_centralizer_sizes():
    assert len(centralizer(Mat2(2, 0, 0, 2, 3))) == gl2_order(3)
    assert len(centralizer(Mat2(1, 1, 0, 1, 3))) == 3 * 2
    assert len(centralizer(Mat2(0, 1, 1, 1, 2))) == 2 * 2 - 1


def test_centralizer_of_singular_raises():
    with pytest.raises(ValueError):
        centralizer(Mat2(1, 1, 2, 2, 3))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_stabilizer(p):
    order = gl2_order(p)
    assert order == len(gl2_elements(p))
    for rep, cls in zip(conj_class_reps(p), conjugacy_partition(p)):
        assert len(cls) * len(centralizer(rep.matrix())) == order


@pytest.mark.parametrize("p", [2, 3, 5])
def test_non_scalar_centralizers_are_commutative(p):
    for rep in conj_class_reps(p):
        if rep.kind == "scalar":
            continue
        members = centralizer(rep.matrix())
        for i, A in enumerate(members):
            for B in members[i + 1 :]:
                assert A.mul(B) == B.mul(A)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centralizers_are_subgroups(p):
    for rep in conj_class_reps(p):
        members = set(centralizer(rep.matrix()))
        assert Mat2.identity(p) in members
        for A in members:
            assert A.inv() in members
            assert all(A.mul(B) in members for B in members)


def test_commutes_examples():
    assert commutes(Unit(2, 9), Unit(5, 9)) is True
    for B in gl2_elements(3):
        assert commutes(Mat2(2, 0, 0, 2, 3), B) is True
    A = Mat2(1, 1, 0, 1, 3)
    B = Mat2(1, 0, 1, 1, 3)
    # independent check by multiplying both ways
    assert A.mul(B) != B.mul(A)
    assert commutes(A, B) is False


def test_commutes_rejects_mixed_variants():
    with pytest.raises(TypeError):
        commutes(Unit(1, 4), Mat2.identity(2))
    with pytest.raises(ValueError):
        commutes(Unit(1, 4), Unit(1, 9))
    with pytest.raises(ValueError):
        commutes(Mat2.identity(2), Mat2.identity(3))


def test_units_listing():
    assert [u.value for u in units(3, 2)] == [1, 2, 4, 5, 7, 8]
    assert [u.value for u in units(2, 2)] == [1, 3]
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
    for result in (M.mul(M), M - M, M.inv()):
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
                    if m.det() != 0:
                        out.append(m)
    return tuple(out)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gl2_elements_match_the_loop_and_build_no_singular_matrix(p, monkeypatch):
    reference = loop_gl2_elements(p)
    assert gl2_elements(p) == reference
    built = []
    post_init = Mat2.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Mat2, "__post_init__", counting)
    assert gl2_elements.__wrapped__(Prime(p)) == reference
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
    I = Mat2.identity(p)
    assert A.mul(B).mul(C) == A.mul(B.mul(C))
    assert I.mul(A) == A == A.mul(I)
    assert A.mul(B).det() == A.det() * B.det() % p
    assert (A.rank() == 2) == (A.det() != 0)
    if A.det() != 0:
        assert A.inv().mul(A) == I == A.mul(A.inv())
        assert A.inv().inv() == A
    else:
        with pytest.raises(ValueError, match="singular"):
            A.inv()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda p: st.lists(st.sampled_from(gl2_elements(p)), min_size=2, max_size=2)))
def test_conjugation_keeps_trace_determinant_and_scalarness(Mh):
    M, h = Mh
    C = h.mul(M).mul(h.inv())
    assert (C.m00 + C.m11) % C.p == (M.m00 + M.m11) % M.p
    assert C.det() == M.det()
    assert C.is_scalar() == M.is_scalar()
    assert gl2._class_key(np.array(C.entries), C.p) == gl2._class_key(np.array(M.entries), M.p)
