"""Properties of the arithmetic both group families share, held to the rules of `tests/reference.py`.

Z_{p^k} is (Z_q)^1 with q = p^k, and Z_p x Z_p is (Z_p)^2; each is acted on
by the invertible r x r matrices over Z_q, coded by the base-q digits of
their entries.  The product `gl2._mul`, the commutation test
`gl2._commute`, invertibility (`gl2._det` a unit mod p), the list
`gl2._aut_codes`, `enumeration._one_minus`, the scalar test (a multiple of
the identity's code) and `index_action` are the same code for both
families; here each is checked, for both, against a rule of its own.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import gl2
from medialq.enumeration import _one_minus
from medialq.fp import Prime
from medialq.gl2 import Mat2, _aut_codes, _commute, _det, _mul
from medialq.groups import Cyclic, ElemAbelianRank2
from reference import apply, det, gl2_entries, identity_matrix, matrix_codes, mul, products, sub

# every Z_{p^k} of order at most 32, and (Z_p)^2 for p <= 7
GROUPS = [Cyclic(Prime(p), k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for k in range(1, 6) if p ** k <= 32]
GROUPS += [ElemAbelianRank2(Prime(p)) for p in (2, 3, 5, 7)]


def matrix(G, row):
    """The reference object of an entry row of G: the `Mat2` over G's field, or the residue mod q."""
    return Mat2(*row, G.p) if G.r == 2 else row[0] % G.q


@st.composite
def entry_rows(draw, n=2):
    """A group of GROUPS and n entry rows of r x r matrices over its Z_q, singular ones included."""
    G = draw(st.sampled_from(GROUPS))
    row = st.lists(st.integers(0, G.q - 1), min_size=G.r * G.r, max_size=G.r * G.r)
    return G, np.array([draw(row) for _ in range(n)], dtype=np.int64)


def reference_invertible(G, row) -> bool:
    """gcd with q for a residue, the reference determinant for a 2 x 2 matrix."""
    return det(Mat2(*row, G.p)) != 0 if G.r == 2 else math.gcd(int(row[0]), G.q) == 1


@settings(max_examples=300, deadline=None)
@given(entry_rows())
def test_the_product_and_commutation_are_the_reference_products(case):
    G, (x, y) = case
    xy, yx = _mul(x, y, G.q), _mul(y, x, G.q)
    assert xy.tolist() == products(x, y, G.q).tolist()
    assert yx.tolist() == products(y, x, G.q).tolist()
    if G.r == 2:  # row times column, a third rule
        assert xy.tolist() == list(mul(Mat2(*x, G.p), Mat2(*y, G.p)).entries)
    assert bool(_commute(x, y, G.q)) == (products(x, y, G.q) == products(y, x, G.q)).all()
    # broadcast over a stack, as `check_pairs` and `_affine_pairs` call them
    stack = np.stack([x, y, xy])
    expected = [[(products(a, b, G.q) == products(b, a, G.q)).all() for b in stack] for a in stack]
    assert _commute(stack[:, None], stack, G.q).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(entry_rows(n=1))
def test_invertibility_is_the_reference_rule(case):
    G, (x,) = case
    assert (_det(x) % G.p != 0) == reference_invertible(G, x.tolist())


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_the_automorphism_list_is_the_brute_force_list(G):
    if G.r == 1:
        expected = [u for u in range(G.q) if math.gcd(u, G.q) == 1]
    else:
        expected = sorted(matrix_codes(gl2_entries(G.p), G.p).tolist())
    codes = _aut_codes(G)
    assert codes.tolist() == expected
    assert codes.dtype == np.int64 and not codes.flags.writeable and _aut_codes(G) is codes
    if G.r == 1:
        assert gl2.units(G.p, G.k) is codes
    else:
        assert [int(M) for M in gl2.gl2_elements(G.p)] == expected


@settings(max_examples=300, deadline=None)
@given(entry_rows())
def test_one_minus_is_the_reference_difference(case):
    G, (x, y) = case
    phi, psis = int(G._code(x)), [int(G._code(y))]
    if G.r == 2:
        expected = int(sub(sub(identity_matrix(G.p), Mat2(*x, G.p)), Mat2(*y, G.p)))
    else:
        expected = (1 - int(x[0]) - int(y[0])) % G.q
    assert _one_minus(G, phi, psis).tolist() == [expected]


@pytest.mark.parametrize("G", GROUPS, ids=str)
def test_the_scalar_codes_are_exactly_the_central_automorphisms(G):
    # a code is scalar when it is a multiple of the identity's code: 1, or p^3 + 1
    codes = _aut_codes(G)
    x = G._entries(codes)
    central = (products(x[:, None], x, G.q) == products(x, x[:, None], G.q)).all(axis=(1, 2))
    assert ((codes % G._identity) == 0).tolist() == central.tolist()
    assert G._identity == (1 if G.r == 1 else G.p ** 3 + 1)
    assert G._entries([G._identity]).tolist() == [np.eye(G.r, dtype=int).ravel().tolist()]


@settings(max_examples=200, deadline=None)
@given(entry_rows(n=1))
def test_a_code_acts_as_its_matrix_on_every_element(case):
    # singular matrices and non-units included
    G, (x,) = case
    row = G.index_action([int(G._code(x))], np.arange(G.order))[0]
    assert row.tolist() == [G.index(apply(G, matrix(G, x.tolist()), g)) for g in G.elements()]


def test_listing_aut_refuses_a_group_over_its_bound_before_listing():
    # 2^21, 37^4 and 211^4 codes are over the bound of 2^20, and 2^100 is over
    # int64; each is refused before anything of its size is allocated
    for G in (Cyclic(2, 21), Cyclic(2, 100), ElemAbelianRank2(37), ElemAbelianRank2(211)):
        message = f"Aut({G}) is listed from {G.q ** (G.r * G.r)} matrix codes, over the bound 1048576"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _aut_codes(G)
    # the library entry points that list GL(2, p) or the units, scalar centralizers included
    for refused in (lambda: gl2.units(2, 40), lambda: gl2.conjugacy_partition(211),
                    lambda: gl2.gl2_elements(37), lambda: gl2.centralizer(211, 211 ** 3 + 1)):
        with pytest.raises(ValueError, match="over the bound 1048576"):
            refused()
    # every size the CLI admits, and (Z_p)^2 up to p = 31, stays within it
    assert len(_aut_codes(Cyclic(2, 10))) == 512 and 31 ** 4 <= gl2._MAX_AUT_CODES < 37 ** 4

