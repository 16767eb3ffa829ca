"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from medialq.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from medialq.enumeration import (
    closed_form_cyclic,
    closed_form_order_p2,
    closed_form_zp2,
    enumerate_forms,
    interpolate_count_polynomial,
)
from medialq.fp import Prime
from medialq.gl2 import (
    centralizer,
    conj_class_reps,
    conjugacy_partition,
)
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.oracle import all_affine_forms, assign_to_classes, classify
from medialq.quasigroup import AffineForm, build_table, is_latin, is_medial
from reference import as_matrices, gl2_order, identity_matrix, parametrized_centralizer, partition_classes, sub

CYCLIC_CASES = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]

_REPORTS = {}


def report(G):
    if G not in _REPORTS:
        _REPORTS[G] = enumerate_forms(G)
    return _REPORTS[G]


def rep_tables(G):
    return [
        build_table(AffineForm(G, t.phi, t.psi, t.c)) for t in report(G).triples
    ]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def expected_rank2_tallies(p):
    """Per-sub-row triple counts as polynomial row formulas in p."""
    return {
        "case1.scalar-scalar.regular": p * p - 3 * p + 3,
        "case1.scalar-scalar.singular": 2 * (p - 2),
        "case1.scalar-distinct.regular": (p - 2) * (p * p - 4 * p + 5) // 2,
        "case1.scalar-distinct.singular": 2 * (p - 2) ** 2,
        "case1.scalar-jordan.regular": p * p - 3 * p + 3,
        "case1.scalar-jordan.singular": 2 * (p - 2),
        "case1.scalar-irreducible.regular": p * (p - 1) ** 2 // 2,
        "case2.distinct-diag.regular": (p - 2) ** 2 * (p * p - 3 * p + 4) // 2,
        "case2.distinct-diag.rank1": 2 * (p - 2) * (p * p - 4 * p + 5),
        "case2.distinct-diag.rank0": 2 * (p - 2) * (p - 3),
        "case3.jordan.regular": p * (p * p - 3 * p + 3),
        "case3.jordan.rank1": 2 * (p - 1) * (p - 2),
        "case3.jordan.rank0": 3 * (p - 2),
        "case4.irreducible.regular": (p * p - p) * (p * p - 2) // 2,
        "case4.irreducible.singular": p * p - p,
    }


def test_criterion_01_rank2_totals():
    with criterion("criterion 01: rank-2 enumeration totals"):
        expected = {2: 9, 3: 68, 5: 594, 7: 2344}
        for p, total in expected.items():
            start = time.monotonic()
            rep = enumerate_forms(ElemAbelianRank2(Prime(p)))
            elapsed = time.monotonic() - start
            _REPORTS[ElemAbelianRank2(Prime(p))] = rep
            assert rep.total == total == closed_form_zp2(p)
            assert elapsed < 10.0, f"p={p} took {elapsed:.1f}s"


def test_criterion_02_cyclic_totals():
    with criterion("criterion 02: cyclic enumeration totals"):
        start = time.monotonic()
        listed = [1, 5, 19, 41, 4, 48, 490]
        for (p, k), value in zip(CYCLIC_CASES, listed):
            assert closed_form_cyclic(p, k) == value
        for p, k in CYCLIC_CASES:
            rep = report(Cyclic(Prime(p), k))
            assert rep.total == closed_form_cyclic(p, k)
        assert time.monotonic() - start < 30.0


def test_criterion_03_order_p2_sum(capsys):
    with criterion("criterion 03: order-p^2 counts via CLI"):
        expected = {2: 13, 3: 116, 5: 1084, 7: 4388}
        for p, value in expected.items():
            code = main(["count", "--group", "order-p2", "--p", str(p)])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            assert f"mq({p}^2) = {value}" in out
            assert "MISMATCH" not in out
            cyc = report(Cyclic(Prime(p), 2)).total
            vec = report(ElemAbelianRank2(Prime(p))).total
            assert cyc + vec == value == closed_form_order_p2(p)


def test_criterion_04_rank2_tallies():
    with criterion("criterion 04: per-case tallies"):
        # the fifteen sub-row values at p=3, in tag order
        assert list(expected_rank2_tallies(3).values()) == [
            3, 2, 1, 2, 3, 2, 6, 2, 4, 0, 9, 4, 3, 21, 6,
        ]
        for p in (3, 5, 7, 11, 13):
            tallies = report(ElemAbelianRank2(Prime(p))).tallies
            assert tallies == expected_rank2_tallies(p)
        # rows with (p-2) or (p-3) factors degenerate to zero at p=2 but stay listed
        tallies2 = report(ElemAbelianRank2(Prime(2))).tallies
        assert tallies2 == expected_rank2_tallies(2)
        assert tallies2["case2.distinct-diag.rank0"] == 0


def test_criterion_05_oracle_cross_validation():
    with criterion("criterion 05: oracle cross-validation"):
        start = time.monotonic()
        cases = [
            (ElemAbelianRank2(Prime(2)), 9),
            (Cyclic(Prime(2), 2), 4),
            (ElemAbelianRank2(Prime(3)), 68),
            (Cyclic(Prime(3), 2), 48),
        ]
        for G, expected in cases:
            tables = [build_table(f) for f in all_affine_forms(G)]
            classes = classify(tables)
            assert len(classes) == expected
            assert report(G).total == expected
            assignment = assign_to_classes(classes, rep_tables(G))
            assert sorted(assignment) == list(range(expected))
        assert time.monotonic() - start < 600.0


def test_criterion_06_conjugacy_and_centralizers():
    with criterion("criterion 06: conjugacy classes and centralizers"):
        for p in (2, 3, 5):
            reps = conj_class_reps(p)
            conjugacy_partition(p)  # raises unless a brute-force transversal
            classes = partition_classes(p)
            assert len(classes) == p * p - 1
            matrices = list(reps)
            for cls in classes:
                assert sum(m in cls for m in matrices) == 1
            assert sum(len(cls) for cls in classes) == gl2_order(p)
            for R, kind in reps.items():
                brute = set(as_matrices(centralizer(R), p))
                assert brute == set(parametrized_centralizer(R, kind))


def test_criterion_07_all_representatives_latin_and_medial():
    with criterion("criterion 07: representative tables Latin and medial"):
        groups = [ElemAbelianRank2(Prime(p)) for p in (2, 3, 5, 7)]
        groups += [Cyclic(Prime(p), k) for p, k in CYCLIC_CASES]
        checked = 0
        for G in groups:
            for t in rep_tables(G):
                assert is_latin(t)
                assert is_medial(t)
                checked += 1
        assert checked == sum(report(G).total for G in groups)


def test_criterion_08_companion_determinant_identity():
    with criterion("criterion 08: companion-case determinant identity"):
        for p in (3, 5, 7):
            G = ElemAbelianRank2(Prime(p))
            I = identity_matrix(p)
            singular_pairs = 0
            irreducible = [R for R, kind in conj_class_reps(p).items() if kind == "irreducible"]
            assert len(irreducible) == (p * p - p) // 2
            for phi in irreducible:
                a, b = phi.m10, phi.m11  # phi = [[0,1],[a,b]]
                for psi in as_matrices(centralizer(phi), p):
                    u, v = psi.m00, psi.m01
                    det = sub(sub(I, phi), psi).det()
                    identity = (
                        (1 - u) ** 2 - b * (1 - u) * (1 + v) - a * (1 + v) ** 2
                    ) % p
                    assert det == identity
                    if det == 0:
                        singular_pairs += 1
                        assert (u, v) == (1, p - 1)
            assert singular_pairs == (p * p - p) // 2
            tallies = report(G).tallies
            assert tallies["case4.irreducible.singular"] == p * p - p


def test_criterion_09_interpolation():
    with criterion("criterion 09: count-polynomial interpolation"):
        primes = [2, 3, 5, 7, 11]
        vec_points = []
        both_points = []
        for p in primes:
            vec = report(ElemAbelianRank2(Prime(p))).total
            cyc = report(Cyclic(Prime(p), 2)).total
            vec_points.append((p, vec))
            both_points.append((p, vec + cyc))
        poly = interpolate_count_polynomial(vec_points)
        assert poly.coeffs == tuple(Fraction(c) for c in (-1, -1, -1, 0, 1))
        assert poly.is_integral
        poly2 = interpolate_count_polynomial(both_points)
        assert poly2.coeffs == tuple(Fraction(c) for c in (-1, -3, -1, -1, 2))
        assert poly2.is_integral


def test_criterion_10_multiplicativity(capsys):
    with criterion("criterion 10: multiplicative composite counts"):
        for n, value in [(6, 5), (12, 65), (36, 1508)]:
            code = main(["count", "--group", "n", "--n", str(n)])
            out = capsys.readouterr().out
            assert code == EXIT_OK
            assert f"mq({n}) = {value}" in out
        code = main(["count", "--group", "n", "--n", "8"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert code != EXIT_MISMATCH and code != EXIT_OK
        assert "unknown prime-power count" in err
