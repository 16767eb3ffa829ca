import re

import numpy as np
import pytest

from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit
from medialq.groups import Cyclic, ElemAbelianRank2, quotient_cosets

Z4 = Cyclic(Prime(2), 2)
Z9 = Cyclic(Prime(3), 2)
V2 = ElemAbelianRank2(Prime(2))
V3 = ElemAbelianRank2(Prime(3))

ALL_SMALL = [
    Cyclic(Prime(2), 1),
    Z4,
    Cyclic(Prime(2), 3),
    Z9,
    Cyclic(Prime(5), 2),
    Cyclic(Prime(7), 2),
    V2,
    V3,
    ElemAbelianRank2(Prime(5)),
    ElemAbelianRank2(Prime(7)),
]


def test_element_order_is_deterministic():
    assert V2.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert Z4.elements() == [0, 1, 2, 3]
    assert len(V3.elements()) == 9
    for G in ALL_SMALL:
        els = G.elements()
        assert els[0] == G.zero
        assert [G.index(g) for g in els] == list(range(G.order))


def test_add_examples():
    assert V3.add((1, 2), (2, 2)) == (0, 1)
    assert Z4.add(3, 3) == 2
    for G in (Z4, V3):
        for a in G.elements():
            assert G.add(a, G.zero) == a


def test_add_rejects_foreign_elements():
    with pytest.raises(ValueError):
        V3.add((1, 2), 3)
    with pytest.raises(ValueError):
        Z4.add(1, 5)
    with pytest.raises(ValueError):
        V3.add((1, 2), (3, 0))
    # bools are ints to isinstance, but no group element is a bool
    for G, a in ((Z4, True), (V3, (True, 0)), (V3, (0, False))):
        with pytest.raises(ValueError, match="not an element"):
            G.check(a)


def test_group_axioms_exhaustive():
    # associativity, commutativity, identity, inverses for |G| <= 49
    for G in ALL_SMALL:
        els = G.elements()
        for a in els:
            assert G.add(a, G.neg(a)) == G.zero
            for b in els:
                assert G.add(a, b) == G.add(b, a)
        if G.order <= 27:
            for a in els:
                for b in els:
                    for c in els:
                        assert G.add(G.add(a, b), c) == G.add(a, G.add(b, c))


def test_quotient_zero_matrix():
    cosets = quotient_cosets(V3, Mat2.zero(3))
    assert len(cosets) == 9
    assert cosets.subgroup_order == 1
    assert cosets.representatives[0] == (0, 0)


def test_quotient_invertible_matrix():
    cosets = quotient_cosets(V3, Mat2(1, 1, 0, 1, 3))
    assert len(cosets) == 1
    assert cosets.representatives == ((0, 0),)


def test_quotient_rank_one_matrix():
    cosets = quotient_cosets(V3, Mat2(1, 1, 2, 2, 3))
    assert len(cosets) == 3
    assert cosets.subgroup_order == 3
    assert cosets.representatives[0] == (0, 0)


def test_quotient_counts_match_rank_for_every_endomorphism():
    # |Im(M)| = p^rank(M) and the number of cosets is p^(2-rank)
    p = 3
    for m00 in range(p):
        for m01 in range(p):
            for m10 in range(p):
                for m11 in range(p):
                    M = Mat2(m00, m01, m10, m11, p)
                    cosets = quotient_cosets(V3, M)
                    assert cosets.subgroup_order == p ** M.rank()
                    assert len(cosets) == p ** (2 - M.rank())
                    assert cosets.representatives[0] == (0, 0)


def test_cyclic_quotient_matches_gcd_structure():
    import math

    G = Cyclic(Prime(2), 3)
    for m in range(8):
        cosets = quotient_cosets(G, m)
        assert cosets.subgroup_order == 8 // math.gcd(m, 8)


def test_coset_invariant_product():
    for G in (Z4, Z9, V2, V3):
        for m in range(G.order if isinstance(G, Cyclic) else 0):
            cosets = quotient_cosets(G, m)
            assert len(cosets) * cosets.subgroup_order == G.order


def test_quotient_cosets_rejects_a_map_of_another_group():
    foreign = [
        (V3, Mat2(1, 0, 0, 0, 5)),  # a matrix over another field
        (Z9, Mat2(1, 0, 0, 0, 3)),  # a matrix given to a cyclic group
        (Z9, Unit(2, 25)),  # a unit of another modulus
        (V3, Unit(2, 9)),  # a unit given to Z_p x Z_p
    ]
    for G, M in foreign:
        with pytest.raises(ValueError, match=f"{re.escape(str(M))} does not act on {re.escape(str(G))}"):
            quotient_cosets(G, M)
    # its own maps are taken, and so is any int code, as given
    line = Mat2(1, 0, 0, 0, 3)
    assert quotient_cosets(V3, line) is quotient_cosets(V3, int(line))
    assert len(quotient_cosets(V3, line)) == 3
    assert len(quotient_cosets(Z9, Unit(2, 9))) == 1
    assert len(quotient_cosets(Z9, 3)) == len(quotient_cosets(Z9, 12)) == 3  # a code past the order is taken as given


def test_cyclic_takes_integers_only():
    with pytest.raises(ValueError, match="3.9 is not an integer"):
        Cyclic(3.9, 2)
    for k in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="exponent k must be an int"):
            Cyclic(3, k)
    assert Cyclic(3, 2) == Cyclic(Prime(3), 2) == Z9


def test_cyclic_takes_a_numpy_integer_k():
    G = Cyclic(3, np.int64(2))
    assert G == Z9 and type(G.k) is int
