import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medialq import enumeration
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
    jsonl_record,
    orbit_reps_c,
    pool_size,
    reps_x,
    reps_y,
    stabilizer,
)
from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit, centralizer, gl2_elements, units
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.quasigroup import AffineForm

V3 = ElemAbelianRank2(Prime(3))
Z9 = Cyclic(Prime(3), 2)


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
    with pytest.raises(ValueError, match="not a transversal"):
        reps_x(ElemAbelianRank2(Prime(3)))
    # Aut of a cyclic group is abelian: nothing to check, and nothing runs
    assert reps_x(Z9) == units(3, 2)
    assert enumerate_forms(Z9).total == closed_form_cyclic(3, 2)


def test_reps_y_sizes():
    scalar = Mat2.identity(3)
    assert len(reps_y(V3, scalar)) == 8
    jordan = Mat2(1, 1, 0, 1, 3)
    assert len(reps_y(V3, jordan)) == 6
    distinct = Mat2(1, 0, 0, 2, 3)
    assert len(reps_y(V3, distinct)) == 4
    assert len(reps_y(Z9, Unit(2, 9))) == 6


def test_reps_y_rejects_non_representative():
    with pytest.raises(ValueError, match="designated representative"):
        reps_y(V3, Mat2(2, 0, 0, 1, 3))  # conjugate to diag(1,2) but not the rep
    with pytest.raises(ValueError):
        reps_y(Z9, Unit(2, 3))


def test_stabilizer_examples():
    scalar2 = Mat2(2, 0, 0, 2, 3)
    assert set(stabilizer(V3, scalar2, scalar2)) == set(gl2_elements(3))
    distinct = Mat2(1, 0, 0, 2, 3)
    for psi in centralizer(distinct):
        assert set(stabilizer(V3, distinct, psi)) == set(centralizer(distinct))
    jordan = Mat2(1, 1, 0, 1, 3)
    assert len(stabilizer(V3, Mat2.identity(3), jordan)) == 3 * 2
    assert len(stabilizer(Z9, Unit(2, 9), Unit(5, 9))) == 6


def test_stabilizer_is_the_brute_force_intersection():
    # independent oracle: intersect the two full commutant filters of GL(2,3)
    gl = gl2_elements(3)
    jordan = Mat2(1, 1, 0, 1, 3)
    scalar = Mat2(2, 0, 0, 2, 3)
    expected = {
        B
        for B in gl
        if B.mul(jordan) == jordan.mul(B) and B.mul(scalar) == scalar.mul(B)
    }
    assert set(stabilizer(V3, scalar, jordan)) == expected


# ---------------------------------------------------------------- one pair rule

PAIR_GROUPS = [Cyclic(Prime(p), k) for p, k in ((2, 2), (3, 1), (3, 2), (5, 1))]
PAIR_GROUPS += [ElemAbelianRank2(Prime(p)) for p in (2, 3, 5)]


def own_maps(G):
    """Any unit of a cyclic G; for Z_p x Z_p, an invertible matrix or any matrix over F_p."""
    if isinstance(G, Cyclic):
        return st.sampled_from(units(G.p, G.k))
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
        commutant = [B for e in np.ndindex((q,) * 4) for B in [Mat2(*e, q)] if B.mul(phi) == phi.mul(B)]
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
@example((V3, Mat2(2, 0, 0, 3, 5), Mat2.identity(5)))  # matrices over F_5
@example((V3, Mat2.zero(3), Mat2(2, 0, 0, 2, 3)))  # phi = 0 is no automorphism
@example((V3, Unit(2, 9), Mat2(2, 0, 0, 2, 3)))  # a unit given to (Z_3)^2
def test_affine_form_stabilizer_and_orbit_reps_share_one_pair_rule(case):
    G, phi, psi = case
    verdicts = {
        verdict(lambda: AffineForm(G, phi, psi, G.zero)),
        verdict(lambda: stabilizer(G, phi, psi)),
        verdict(lambda: orbit_reps_c(G, phi, psi)),
    }
    assert len(verdicts) == 1  # all three accept, or all raise the same message
    (message,) = verdicts
    # independently: both maps lie in Aut(G) and commute as maps of its elements
    aut = units(G.p, G.k) if isinstance(G, Cyclic) else gl2_elements(G.p)
    plain = {f: f.value if isinstance(f, Unit) else f for f in (phi, psi)}
    good = phi in aut and psi in aut and all(
        G.apply(plain[phi], G.apply(plain[psi], g)) == G.apply(plain[psi], G.apply(plain[phi], g))
        for g in G.elements()
    )
    assert (message is None) == good
    assert good or re.search("does not act on|must both be invertible|do not commute", message)


def test_orbit_reps_regular_case():
    # 1 - phi - psi invertible: only the zero orbit
    phi, psi = Mat2.identity(3), Mat2.identity(3)
    assert (Mat2.identity(3) - phi - psi).rank() == 2
    assert orbit_reps_c(V3, phi, psi) == ((0, 0),)


def test_orbit_reps_rank_one_case():
    # 1 - phi - psi = diag(0, 1) mod 3 has rank one: reps are zero plus one vector
    phi = Mat2(2, 0, 0, 2, 3)
    psi = Mat2(2, 0, 0, 1, 3)
    assert (Mat2.identity(3) - phi - psi).rank() == 1
    reps = orbit_reps_c(V3, phi, psi)
    assert len(reps) == 2
    assert reps[0] == (0, 0)
    assert reps[1] != (0, 0)


def test_orbit_reps_rank_zero_diagonal_case():
    # phi = diag(a,b), psi = diag(1-a,1-b) over F_5: difference is zero, four orbits
    p = 5
    G = ElemAbelianRank2(Prime(p))
    phi = Mat2(2, 0, 0, 3, p)
    psi = Mat2(1 - 2, 0, 0, 1 - 3, p)
    assert (Mat2.identity(p) - phi - psi).rank() == 0
    reps = orbit_reps_c(G, phi, psi)
    assert reps == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_orbit_counts_in_rank_zero_cases():
    # when 1 - phi - psi vanishes, the whole group is acted on:
    # jordan centralizer -> 3 orbits, companion centralizer -> 2 orbits
    p = 5
    G = ElemAbelianRank2(Prime(p))
    jordan = Mat2(2, 1, 0, 2, p)  # a = 2, so u = 1-a = 4, v = -1
    psi_j = Mat2(4, p - 1, 0, 4, p)
    assert (Mat2.identity(p) - jordan - psi_j).rank() == 0
    assert orbit_reps_c(G, jordan, psi_j) == ((0, 0), (0, 1), (1, 0))

    from medialq.fp import is_irreducible_quadratic

    a, b = next(
        (a, b)
        for a in range(p)
        for b in range(p)
        if is_irreducible_quadratic(a, b, p)
    )
    comp = Mat2(0, 1, a, b, p)
    psi_c = Mat2(1, p - 1, a * (p - 1), 1 + b * (p - 1), p)  # u = 1, v = -1
    assert (Mat2.identity(p) - comp - psi_c).rank() == 0
    reps = orbit_reps_c(G, comp, psi_c)
    assert len(reps) == 2 and reps[0] == (0, 0)


def test_enumerate_totals_small():
    assert enumerate_forms(ElemAbelianRank2(Prime(2))).total == 9
    assert enumerate_forms(V3).total == 68
    assert enumerate_forms(Z9).total == 48


def test_report_total_is_the_triple_count_and_the_tallies_must_sum_to_it():
    report = enumerate_forms(Z9)
    assert report.total == len(report.triples) == 48
    assert EnumerationReport(Z9, report.triples, {"cyclic": 48}).total == 48
    with pytest.raises(ValueError, match="disagrees"):
        EnumerationReport(Z9, report.triples, {"cyclic": 47})
    with pytest.raises(ValueError, match="disagrees"):
        EnumerationReport(Z9, report.triples[:-1], {"cyclic": 48})


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


def test_parallel_enumeration_matches_sequential():
    seq = enumerate_forms(V3)
    par = enumerate_forms(V3, jobs=2)
    assert seq.triples == par.triples
    assert seq.tallies == par.tallies
    assert enumerate_forms(Z9, jobs=2).triples == enumerate_forms(Z9).triples


def test_triples_have_commuting_automorphisms():
    from medialq.gl2 import commutes

    for t in enumerate_forms(V3).triples:
        assert commutes(t.phi, t.psi)


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


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, runs in process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 3)
    RecordingPool.sizes = []
    seq = enumerate_forms(V3)
    assert enumerate_forms(V3, jobs=10 ** 6).triples == seq.triples  # 8 phi reps, 3 CPUs
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
    V2 = ElemAbelianRank2(Prime(2))
    assert enumerate_forms(V2, jobs=50).triples == enumerate_forms(V2).triples  # 3 phi reps
    Z27 = Cyclic(Prime(3), 3)
    assert enumerate_forms(Z27, jobs=50).triples == enumerate_forms(Z27).triples  # 18 units
    assert RecordingPool.sizes == [3, 3, 18]
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: None)
    assert pool_size(8, 100) == 1
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            enumerate_forms(V3, jobs=jobs)
