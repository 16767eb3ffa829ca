import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medialq import enumeration, gl2
from medialq.enumeration import (
    CASE_TAGS_RANK2,
    MAX_COMPOSITE_ORDER,
    EnumerationReport,
    Polynomial,
    closed_form_cyclic,
    closed_form_order_p2,
    closed_form_zp2,
    count_composite,
    enumerate_forms,
    group_label,
    interpolate_count_polynomial,
    orbit_reps_c,
    reps_x,
    reps_y,
    stabilizer,
)
from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit, centralizer, units
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.quasigroup import AffineForm
from reference import apply, as_matrices, gl2_elements, identity_matrix, jsonl_record, mul, rank, sub, zero_matrix

V3 = ElemAbelianRank2(Prime(3))
Z9 = Cyclic(Prime(3), 2)


@pytest.mark.parametrize("bad_first", [True, False])
@pytest.mark.parametrize("k", [True, 2.0])
def test_units_and_closed_form_cyclic_take_an_int_k(k, bad_first):
    # True == 1 and 2.0 == 2 hash alike, so a cached units(3, int(k)) must not answer units(3, k)
    def rejected():
        for f in (units, closed_form_cyclic):
            with pytest.raises(ValueError, match="exponent k must be an int"):
                f(3, k)

    def taken():
        assert len(units(3, int(k))) == 3 ** int(k) - 3 ** (int(k) - 1)
        assert closed_form_cyclic(3, int(k)) == {1: 5, 2: 48}[int(k)]

    gl2._aut_codes.cache_clear()
    for check in (rejected, taken) if bad_first else (taken, rejected):
        check()


def test_closed_forms():
    assert closed_form_cyclic(3, 1) == 5
    assert closed_form_cyclic(3, 2) == 48
    assert closed_form_cyclic(2, 2) == 4
    assert closed_form_zp2(5) == 594
    assert closed_form_order_p2(2) == 13
    assert closed_form_order_p2(3) == 116
    for p in (2, 3, 5, 7):
        assert closed_form_order_p2(p) == closed_form_cyclic(p, 2) + closed_form_zp2(p)
        assert closed_form_cyclic(p, 1) == p * p - p - 1
        assert closed_form_cyclic(p, 2) == p ** 4 - p ** 3 - 2 * p


def test_count_composite():
    assert count_composite(6) == 5
    assert count_composite(12) == 65
    assert count_composite(36) == 1508
    assert count_composite(1) == 1
    assert count_composite(5) == 19
    with pytest.raises(ValueError, match="unknown prime-power count"):
        count_composite(8)
    with pytest.raises(ValueError):
        count_composite(0)


def test_reps_x_sizes():
    assert len(reps_x(Z9)) == 6
    assert len(reps_x(V3)) == 8
    assert len(reps_x(ElemAbelianRank2(Prime(2)))) == 3


def test_reps_x_checks_the_rank2_transversal_and_only_that(monkeypatch):
    def refuse(p):
        raise ValueError("not a transversal")

    monkeypatch.setattr(enumeration, "conjugacy_partition", refuse)
    reps_x.cache_clear()  # the check runs when a group's array is made
    with pytest.raises(ValueError, match="not a transversal"):
        reps_x(ElemAbelianRank2(Prime(3)))
    # Aut of a cyclic group is abelian: nothing to check, and nothing runs
    assert reps_x(Z9) is units(Z9.p, Z9.k)
    assert enumerate_forms(Z9).total == closed_form_cyclic(3, 2)


def test_reps_y_sizes():
    scalar = int(identity_matrix(3))
    assert len(reps_y(V3, scalar)) == 8
    jordan = int(Mat2(1, 1, 0, 1, 3))
    assert len(reps_y(V3, jordan)) == 6
    distinct = int(Mat2(1, 0, 0, 2, 3))
    assert len(reps_y(V3, distinct)) == 4
    assert len(reps_y(Z9, 2)) == 6


def test_reps_y_rejects_non_representative():
    with pytest.raises(ValueError, match="designated representative"):
        reps_y(V3, int(Mat2(2, 0, 0, 1, 3)))  # conjugate to diag(1,2) but not the rep
    for phi in (3, 0, 9, -1):  # a non-unit, and residues outside 0 < phi < 9
        with pytest.raises(ValueError, match="designated representative"):
            reps_y(Z9, phi)
    # a code outside the family, and an object in place of a code, are no representatives either
    for G, phi in ((V3, 3 ** 4 + int(identity_matrix(3))), (Z9, Unit(2, 9)), (V3, identity_matrix(3)), (V3, 1.0)):
        with pytest.raises(ValueError, match="designated representative"):
            reps_y(G, phi)


def test_stabilizer_examples():
    scalar2 = int(Mat2(2, 0, 0, 2, 3))
    assert set(as_matrices(stabilizer(V3, scalar2, scalar2), 3)) == set(gl2_elements(3))
    distinct = int(Mat2(1, 0, 0, 2, 3))
    for psi in centralizer(3, distinct).tolist():
        assert stabilizer(V3, distinct, psi) is centralizer(3, distinct)
    jordan = int(Mat2(1, 1, 0, 1, 3))
    assert len(stabilizer(V3, int(identity_matrix(3)), jordan)) == 3 * 2
    assert len(stabilizer(Z9, 2, 5)) == 6


def test_stabilizer_is_the_brute_force_intersection():
    # independent oracle: intersect the two full commutant filters of GL(2,3)
    gl = gl2_elements(3)
    jordan = Mat2(1, 1, 0, 1, 3)
    scalar = Mat2(2, 0, 0, 2, 3)
    expected = {
        B
        for B in gl
        if mul(B, jordan) == mul(jordan, B) and mul(B, scalar) == mul(scalar, B)
    }
    assert set(as_matrices(stabilizer(V3, int(scalar), int(jordan)), 3)) == expected


# ---------------------------------------------------------------- one pair rule

PAIR_GROUPS = [Cyclic(Prime(p), k) for p, k in ((2, 2), (3, 1), (3, 2), (5, 1))]
PAIR_GROUPS += [ElemAbelianRank2(Prime(p)) for p in (2, 3, 5)]


def own_maps(G):
    """Any unit of a cyclic G; for Z_p x Z_p, an invertible matrix or any matrix over F_p."""
    if isinstance(G, Cyclic):
        return st.sampled_from(units(G.p, G.k).tolist()).map(lambda u: Unit(u, G.order))
    matrices = st.lists(st.integers(0, G.p - 1), min_size=4, max_size=4).map(lambda e: Mat2(*e, G.p))
    return st.one_of(st.sampled_from(gl2_elements(G.p)), matrices)


ANY_MAP = st.sampled_from(PAIR_GROUPS).flatmap(own_maps)  # often a map of another group


@st.composite
def candidate_pairs(draw):
    G = draw(st.sampled_from(PAIR_GROUPS))
    phi = draw(st.one_of(own_maps(G), ANY_MAP))
    psi_maps = [own_maps(G), ANY_MAP]
    if isinstance(phi, Mat2):
        q = phi.p
        commutant = [B for e in np.ndindex((q,) * 4) for B in [Mat2(*e, q)] if mul(B, phi) == mul(phi, B)]
        psi_maps.append(st.sampled_from(commutant))
    return G, phi, draw(st.one_of(psi_maps))


def verdict(call):
    """None if the call returns, else the message of its ValueError; other errors propagate."""
    try:
        call()
    except ValueError as e:
        return str(e)
    return None


@settings(max_examples=300, deadline=None)
@given(candidate_pairs())
@example((Z9, Unit(2, 25), Unit(3, 25)))  # units of Z_25
@example((V3, Mat2(2, 0, 0, 3, 5), identity_matrix(5)))  # matrices over F_5
@example((V3, zero_matrix(3), Mat2(2, 0, 0, 2, 3)))  # phi = 0 is no automorphism
@example((V3, Unit(2, 9), Mat2(2, 0, 0, 2, 3)))  # a unit given to (Z_3)^2
def test_affine_form_stabilizer_and_orbit_reps_share_one_pair_rule(case):
    G, phi, psi = case
    verdicts = {verdict(lambda: AffineForm(G, phi, psi, G.zero))}
    if all(isinstance(f, Unit) and f.modulus == G.order if isinstance(G, Cyclic) else isinstance(f, Mat2) and f.p == G.p
           for f in (phi, psi)):
        # the per-pair functions take codes, and a code names a map of G itself
        verdicts |= {
            verdict(lambda: stabilizer(G, int(phi), int(psi))),
            verdict(lambda: orbit_reps_c(G, int(phi), int(psi))),
        }
    assert len(verdicts) == 1  # all three accept, or all raise the same message
    (message,) = verdicts
    # independently: both maps lie in Aut(G) and commute as maps of its elements
    aut = [Unit(u, G.order) for u in units(G.p, G.k).tolist()] if isinstance(G, Cyclic) else gl2_elements(G.p)
    plain = {f: f.value if isinstance(f, Unit) else f for f in (phi, psi)}
    good = phi in aut and psi in aut and all(
        apply(G, plain[phi], apply(G, plain[psi], g)) == apply(G, plain[psi], apply(G, plain[phi], g))
        for g in G.elements()
    )
    assert (message is None) == good
    assert good or re.search("does not act on|must both be invertible|do not commute", message)


def test_orbit_reps_regular_case():
    # 1 - phi - psi invertible: only the zero orbit
    phi, psi = identity_matrix(3), identity_matrix(3)
    assert rank(sub(sub(identity_matrix(3), phi), psi)) == 2
    assert orbit_reps_c(V3, int(phi), int(psi)) == ((0, 0),)


def test_orbit_reps_rank_one_case():
    # 1 - phi - psi = diag(0, 1) mod 3 has rank one: reps are zero plus one vector
    phi = Mat2(2, 0, 0, 2, 3)
    psi = Mat2(2, 0, 0, 1, 3)
    assert rank(sub(sub(identity_matrix(3), phi), psi)) == 1
    reps = orbit_reps_c(V3, int(phi), int(psi))
    assert len(reps) == 2
    assert reps[0] == (0, 0)
    assert reps[1] != (0, 0)


def test_orbit_reps_rank_zero_diagonal_case():
    # phi = diag(a,b), psi = diag(1-a,1-b) over F_5: difference is zero, four orbits
    p = 5
    G = ElemAbelianRank2(Prime(p))
    phi = Mat2(2, 0, 0, 3, p)
    psi = Mat2(1 - 2, 0, 0, 1 - 3, p)
    assert rank(sub(sub(identity_matrix(p), phi), psi)) == 0
    reps = orbit_reps_c(G, int(phi), int(psi))
    assert reps == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_orbit_counts_in_rank_zero_cases():
    # when 1 - phi - psi vanishes, the whole group is acted on:
    # jordan centralizer -> 3 orbits, companion centralizer -> 2 orbits
    p = 5
    G = ElemAbelianRank2(Prime(p))
    jordan = Mat2(2, 1, 0, 2, p)  # a = 2, so u = 1-a = 4, v = -1
    psi_j = Mat2(4, p - 1, 0, 4, p)
    assert rank(sub(sub(identity_matrix(p), jordan), psi_j)) == 0
    assert orbit_reps_c(G, int(jordan), int(psi_j)) == ((0, 0), (0, 1), (1, 0))

    from medialq.fp import is_irreducible_quadratic

    a, b = next(
        (a, b)
        for a in range(p)
        for b in range(p)
        if is_irreducible_quadratic(a, b, p)
    )
    comp = Mat2(0, 1, a, b, p)
    psi_c = Mat2(1, p - 1, a * (p - 1), 1 + b * (p - 1), p)  # u = 1, v = -1
    assert rank(sub(sub(identity_matrix(p), comp), psi_c)) == 0
    reps = orbit_reps_c(G, int(comp), int(psi_c))
    assert len(reps) == 2 and reps[0] == (0, 0)


def test_enumerate_totals_small():
    assert enumerate_forms(ElemAbelianRank2(Prime(2))).total == 9
    assert enumerate_forms(V3).total == 68
    assert enumerate_forms(Z9).total == 48


def test_report_total_is_the_triple_count_and_the_tallies_must_sum_to_it():
    # the tallies are derived from the triples, so no report can disagree with them
    report = enumerate_forms(Z9)
    assert report.total == len(report.triples) == 48 == sum(report.tallies.values())
    assert EnumerationReport(Z9, report.triples).tallies == {"cyclic": 48}
    assert EnumerationReport(Z9, report.triples[:-1]).tallies == {"cyclic": 47}
    assert EnumerationReport(Z9, ()).tallies == {"cyclic": 0}
    with pytest.raises(TypeError):
        EnumerationReport(Z9, report.triples, {"cyclic": 48})
    rank2 = enumerate_forms(V3)
    assert EnumerationReport(V3, rank2.triples[::-1]).tallies == rank2.tallies
    assert list(EnumerationReport(V3, ()).tallies) == list(CASE_TAGS_RANK2)
    with pytest.raises(KeyError):
        EnumerationReport(V3, report.triples)  # the cyclic tag is not a rank-2 case


def test_case_subtotals_p3():
    report = enumerate_forms(V3)
    by_case = {}
    for tag, count in report.tallies.items():
        by_case[tag.split(".")[0]] = by_case.get(tag.split(".")[0], 0) + count
    assert by_case == {"case1": 19, "case2": 6, "case3": 16, "case4": 27}


def test_tag_vocabulary_closed():
    report = enumerate_forms(V3)
    assert tuple(report.tallies) == CASE_TAGS_RANK2
    assert enumerate_forms(Z9).tallies == {"cyclic": 48}


def test_degenerate_rows_reported_as_zero_at_p2():
    tallies = enumerate_forms(ElemAbelianRank2(Prime(2))).tallies
    assert set(CASE_TAGS_RANK2) == set(tallies)
    assert tallies["case1.scalar-scalar.singular"] == 0
    assert tallies["case2.distinct-diag.regular"] == 0
    assert tallies["case2.distinct-diag.rank0"] == 0


def test_enumeration_is_deterministic():
    a = enumerate_forms(V3)
    b = enumerate_forms(V3)
    assert a.triples == b.triples
    assert a.tallies == b.tallies


def test_triples_have_commuting_automorphisms():
    for t in enumerate_forms(V3).triples:
        assert mul(t.phi, t.psi) == mul(t.psi, t.phi)


def test_interpolation_recovers_quartic():
    points = [(p, closed_form_zp2(p)) for p in (2, 3, 5, 7, 11)]
    poly = interpolate_count_polynomial(points)
    assert poly.coeffs == tuple(Fraction(c) for c in (-1, -1, -1, 0, 1))
    assert poly.is_integral
    assert str(poly) == "x^4 - x^2 - x - 1"


def test_interpolation_single_point():
    poly = interpolate_count_polynomial([(2, 9)])
    assert poly.coeffs == (Fraction(9),)
    assert poly(100) == 9


def test_interpolation_duplicate_abscissae():
    with pytest.raises(ValueError, match="duplicate"):
        interpolate_count_polynomial([(2, 9), (2, 10)])
    with pytest.raises(ValueError):
        interpolate_count_polynomial([])


def test_interpolation_exact_rationals():
    # through (0,0), (1,1), (2,4) minus a twist that forces non-integer coeffs
    poly = interpolate_count_polynomial([(0, 0), (1, 1), (3, 2)])
    assert not poly.is_integral
    for x, y in [(0, 0), (1, 1), (3, 2)]:
        assert poly(x) == y


def test_polynomial_str_forms():
    assert str(Polynomial((Fraction(0),))) == "0"
    assert str(Polynomial((Fraction(-1), Fraction(2)))) == "2 x - 1"
    assert str(Polynomial((Fraction(1, 2),))) == "1/2"


def test_group_labels_and_jsonl_records():
    assert group_label(V3) == "zp2:p=3"
    assert group_label(Z9) == "cyclic:p=3,k=2"
    triple = enumerate_forms(V3).triples[0]
    record = jsonl_record(V3, triple)
    assert list(record) == ["group", "phi", "psi", "c", "case_tag"]
    assert record["phi"] == [1, 0, 0, 1]
    assert record["c"] == [0, 0]
    triple9 = enumerate_forms(Z9).triples[0]
    record9 = jsonl_record(Z9, triple9)
    assert isinstance(record9["phi"], int)
    assert record9["c"] == [0]


def test_count_composite_caps_the_order():
    import time

    n = 30030 ** 2 * 17 * 19  # square-free part times squares of 2 .. 13, below the cap
    assert count_composite(n) == count_composite(30030 ** 2) * 271 * 341
    start = time.perf_counter()
    with pytest.raises(ValueError, match="prime 999999999989 exceeds"):
        count_composite(999999999989)  # the largest prime below the cap: full trial division
    assert time.perf_counter() - start < 2
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        count_composite(MAX_COMPOSITE_ORDER + 1)
    with pytest.raises(ValueError, match="exceeds the supported cap"):
        count_composite(1000000000000000003)


def plain_block(block):
    """A block with its psi codes as a list, so blocks compare with ==."""
    phi, psis, tags, cs = block
    return phi, psis.tolist(), tags, cs


def test_a_block_with_a_fresh_table_equals_the_shared_one():
    # each block filled from its own empty cyclic table, as against the one table enumerate_blocks shares
    for G in (V3, ElemAbelianRank2(Prime(2)), Cyclic(Prime(3), 3)):
        fresh = [plain_block(enumeration._block(G, phi, [None] * G.order)) for phi in reps_x(G).tolist()]
        assert fresh == list(map(plain_block, enumeration.enumerate_blocks(G)))


def test_blocks_are_made_one_at_a_time(monkeypatch):
    made = []
    real = enumeration._block
    monkeypatch.setattr(enumeration, "_block", lambda G, phi, table: made.append(phi) or real(G, phi, table))
    blocks = enumeration.enumerate_blocks(Z9)
    assert made == []
    block = next(blocks)
    assert made == [block[0]] == [1]
    phi, psis, tags, cs = block
    first = [(phi, psi, c, tag) for psi, tag, c_reps in zip(psis.tolist(), tags, cs) for c in c_reps]
    triples = enumerate_forms(Z9).triples[: len(first)]
    assert first == [(int(t.phi), int(t.psi), t.c, t.case_tag) for t in triples]
