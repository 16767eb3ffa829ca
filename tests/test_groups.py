import pickle
import re

import numpy as np
import pytest

from medialq import groups
from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit, centralizer, units
from medialq.groups import Cyclic, ElemAbelianRank2, quotient_cosets
from reference import add, rank, zero_matrix

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
    assert add(V3, (1, 2), (2, 2)) == (0, 1)
    assert add(Z4, 3, 3) == 2
    for G in (Z4, V3):
        for a in G.elements():
            assert add(G, a, G.zero) == a


def test_add_rejects_foreign_elements():
    with pytest.raises(ValueError):
        add(V3, (1, 2), 3)
    with pytest.raises(ValueError):
        add(Z4, 1, 5)
    with pytest.raises(ValueError):
        add(V3, (1, 2), (3, 0))
    # bools are ints to isinstance, but no group element is a bool
    for G, a in ((Z4, True), (V3, (True, 0)), (V3, (0, False))):
        with pytest.raises(ValueError, match="not an element"):
            G.check(a)


def test_group_axioms_exhaustive():
    # associativity, commutativity, identity, inverses for |G| <= 49
    for G in ALL_SMALL:
        els = G.elements()
        for a in els:
            assert any(add(G, a, b) == G.zero for b in els)
            for b in els:
                assert add(G, a, b) == add(G, b, a)
        if G.order <= 27:
            for a in els:
                for b in els:
                    for c in els:
                        assert add(G, add(G, a, b), c) == add(G, a, add(G, b, c))


def test_quotient_zero_matrix():
    cosets = quotient_cosets(V3, int(zero_matrix(3)))
    assert len(cosets) == 9
    assert cosets.subgroup_order == 1
    assert cosets.representatives[0] == (0, 0)


def test_quotient_invertible_matrix():
    cosets = quotient_cosets(V3, int(Mat2(1, 1, 0, 1, 3)))
    assert len(cosets) == 1
    assert cosets.representatives == ((0, 0),)


def test_quotient_rank_one_matrix():
    cosets = quotient_cosets(V3, int(Mat2(1, 1, 2, 2, 3)))
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
                    cosets = quotient_cosets(V3, int(M))
                    assert cosets.subgroup_order == p ** rank(M)
                    assert len(cosets) == p ** (2 - rank(M))
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


def test_quotient_cosets_takes_integer_codes_in_range_only():
    # any integer code, numpy ints included, as given
    line = int(Mat2(1, 0, 0, 0, 3))
    assert quotient_cosets(V3, np.int64(line)) is quotient_cosets(V3, line)
    u = units(3, 2)[2]  # a numpy int64, the code of Unit(4, 9)
    assert type(u) is np.int64 and quotient_cosets(Z9, u) is quotient_cosets(Z9, 4)
    c = centralizer(3, int(Mat2(1, 1, 0, 1, 3)))[-1]  # a member code of a centralizer
    assert quotient_cosets(V3, c) is quotient_cosets(V3, int(c))
    assert len(quotient_cosets(V3, line)) == 3
    assert len(quotient_cosets(Z9, 2)) == 1 and len(quotient_cosets(Z9, 3)) == 3
    # an object is no code
    for G, M in ((V3, Mat2(1, 0, 0, 0, 3)), (Z9, Unit(2, 9)), (Z9, 2.0)):
        with pytest.raises(TypeError):
            quotient_cosets(G, M)
    # a code past q^(r*r), or below 0, is refused, not reduced to one in range
    for G, M in ((Z9, 12), (Z9, 9), (Cyclic(3, 2), 10), (V3, 3 ** 4), (V3, 3 ** 4 + line), (Z9, -1), (V3, -1)):
        with pytest.raises(ValueError, match=f"^{M} is not the code of an endomorphism of {re.escape(str(G))}$"):
            quotient_cosets(G, M)
    # `quotients` names the first code out of range, and takes numpy arrays too
    with pytest.raises(ValueError, match=r"^-1 is not the code of an endomorphism of \(Z_3\)\^2$"):
        groups.quotients(V3, np.array([line, -1, 3 ** 4]))
    with pytest.raises(ValueError, match="^81 is not the code of an endomorphism of Z_3"):
        groups.quotients(Z9, [2, 3, 81, -5])
    assert groups.quotients(Z9, np.array([0, 8])) == [quotient_cosets(Z9, 0), quotient_cosets(Z9, 8)]


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


def test_cyclic_refuses_an_exponent_too_large_to_compute_before_computing_it():
    # 3^(10^7) took seconds to compute and 3^(10^10) some 2 GB; each is refused first
    from medialq.enumeration import closed_form_cyclic

    refused = {
        "Z_3^10000000": lambda: Cyclic(3, 10 ** 7),
        "Z_3^10000000000": lambda: units(3, 10 ** 10),
        "Z_5^10000000000": lambda: closed_form_cyclic(5, 10 ** 10),
        "Z_2^2049": lambda: Cyclic(2, 2049),  # 2 * 2049 > 4096
        "Z_32749^274": lambda: Cyclic(32749, 274),  # the largest prime admitted: 15 * 274 > 4096
    }
    for name, make in refused.items():
        with pytest.raises(ValueError, match=f"^{re.escape(name)} is over the bound k \\* bit_length\\(p\\) <= 4096$"):
            make()
    assert Cyclic(2, 2048).order == 2 ** 2048 and Cyclic(32749, 273).order == 32749 ** 273
    assert closed_form_cyclic(2, 100) == 2 ** 200 + 2 ** 198 - 2 ** 99 - sum(2 ** i for i in range(99, 200))


@pytest.mark.parametrize(
    "make",
    [
        lambda: (Cyclic(3, 2), Cyclic(Prime(3), np.int64(2))),
        lambda: (ElemAbelianRank2(3), ElemAbelianRank2(Prime(3))),
    ],
)
def test_equal_groups_hash_equal_and_share_cache_entries(make):
    from medialq import groups

    G, twin = make()
    fields = (G.p, G.k) if isinstance(G, Cyclic) else (G.p,)
    copies = [twin, pickle.loads(pickle.dumps(G)), type(G)(*fields)]
    assert all(H == G and H is not G and hash(H) == hash(G) for H in copies)
    assert hash(G) == hash(fields)  # the field-wise hash, stored once
    assert hash(type(G)(Prime(5), *fields[1:])) != hash(G)
    code = 2 if isinstance(G, Cyclic) else int(Mat2(1, 0, 0, 0, 3))
    cosets = quotient_cosets(G, code)
    sizes = [f.cache_info().currsize for f in (groups._add_table, groups._cosets)]
    for H in copies:
        assert quotient_cosets(H, code) is cosets
        assert groups._add_table(H) is groups._add_table(G)
    assert [f.cache_info().currsize for f in (groups._add_table, groups._cosets)] == sizes
