import random
from itertools import permutations

import pytest

from medialq.enumeration import enumerate_forms
from medialq.fp import Prime
from medialq.gl2 import gl2_elements
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.oracle import (
    all_affine_forms,
    all_latin_squares,
    are_isomorphic,
    assign_to_classes,
    classify,
    fingerprint,
    relabel,
)
from medialq.quasigroup import AffineForm, CayleyTable, build_table, is_medial

Z4 = Cyclic(Prime(2), 2)
V2 = ElemAbelianRank2(Prime(2))
Z9 = Cyclic(Prime(3), 2)
V3 = ElemAbelianRank2(Prime(3))


def group_table(G):
    els = G.elements()
    idx = {g: i for i, g in enumerate(els)}
    return CayleyTable(
        G.order, tuple(tuple(idx[G.add(a, b)] for b in els) for a in els)
    )


def rep_tables(G):
    return [
        build_table(AffineForm(G, t.phi, t.psi, t.c))
        for t in enumerate_forms(G).triples
    ]


def test_isomorphic_to_itself_and_relabelings():
    rng = random.Random(1408)
    for G in (Z4, V2, Z9):
        t = group_table(G)
        assert are_isomorphic(t, t)
        for _ in range(5):
            perm = list(range(t.n))
            rng.shuffle(perm)
            assert are_isomorphic(t, relabel(t, perm))


def test_z4_and_klein_tables_not_isomorphic():
    s, t = group_table(Z4), group_table(V2)
    # independent oracle: exhaust all 24 bijections by hand
    found = False
    for perm in permutations(range(4)):
        if all(
            perm[s.rows[i][j]] == t.rows[perm[i]][perm[j]]
            for i in range(4)
            for j in range(4)
        ):
            found = True
    assert not found
    assert are_isomorphic(s, t) is False


def test_order_mismatch_is_false_not_error():
    assert are_isomorphic(group_table(Z4), group_table(Z9)) is False


def test_order_cap_enforced():
    big = group_table(Cyclic(Prime(17), 1))
    with pytest.raises(ValueError, match="cap"):
        are_isomorphic(big, big)
    with pytest.raises(ValueError, match="cap"):
        classify([group_table(Cyclic(Prime(11), 1))])
    with pytest.raises(ValueError):
        all_latin_squares(5)


def test_fingerprint_invariance():
    rng = random.Random(77)
    for t in rep_tables(Z9)[:10] + rep_tables(V2):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert fingerprint(relabel(t, perm)) == fingerprint(t)


def test_are_isomorphic_symmetric():
    tables = rep_tables(V3)
    rng = random.Random(5)
    for _ in range(30):
        s, t = rng.choice(tables), rng.choice(tables)
        assert are_isomorphic(s, t) == are_isomorphic(t, s)


def test_distinct_representatives_are_non_isomorphic():
    tables = rep_tables(Z9)
    for i, s in enumerate(tables):
        for t in tables[i + 1 :]:
            assert are_isomorphic(s, t) is False


def test_all_affine_forms_counts():
    # commuting pairs counted exhaustively, independent of the library filter
    gl = gl2_elements(2)
    pairs = sum(1 for A in gl for B in gl if A.mul(B) == B.mul(A))
    assert pairs == 18
    assert len(all_affine_forms(V2)) == pairs * 4 == 72
    assert len(all_affine_forms(Z9)) == 36 * 9 == 324
    gl3 = gl2_elements(3)
    pairs3 = sum(1 for A in gl3 for B in gl3 if A.mul(B) == B.mul(A))
    assert len(all_affine_forms(V3)) == pairs3 * 9 == 3456


def test_all_affine_forms_rejects_large_groups():
    with pytest.raises(ValueError):
        all_affine_forms(Cyclic(Prime(2), 4))


def test_classify_rejects_mixed_orders():
    with pytest.raises(ValueError, match="single order"):
        classify([group_table(Z4), group_table(Z9)])


def test_classify_small_groups():
    tables4 = [build_table(f) for f in all_affine_forms(Z4)]
    classes4 = classify(tables4)
    assert len(classes4) == 4
    assert sum(c.members for c in classes4) == len(tables4)

    tables_v2 = [build_table(f) for f in all_affine_forms(V2)]
    classes_v2 = classify(tables_v2)
    assert len(classes_v2) == 9

    # the canonical member of each class is the first input belonging to it
    assert classes_v2[0].canonical_member == tables_v2[0]


def test_classify_deterministic_and_parallel():
    tables = [build_table(f) for f in all_affine_forms(Z9)]
    seq = classify(tables)
    assert classify(tables) == seq
    assert classify(tables, jobs=2) == seq
    assert len(seq) == 48


def test_assign_to_classes_bijection():
    tables = [build_table(f) for f in all_affine_forms(Z4)]
    classes = classify(tables)
    reps = rep_tables(Z4)
    assignment = assign_to_classes(classes, reps)
    assert sorted(assignment) == list(range(len(classes)))


def test_assign_to_classes_rejects_stranger():
    tables = [build_table(f) for f in all_affine_forms(Z4)]
    classes = classify(tables)
    with pytest.raises(ValueError):
        assign_to_classes(classes, [group_table(Z9)])


def brute_isomorphic(s, t):
    return any(
        all(
            perm[s.rows[i][j]] == t.rows[perm[i]][perm[j]]
            for i in range(s.n)
            for j in range(s.n)
        )
        for perm in permutations(range(s.n))
    )


def test_search_agrees_with_permutation_brute_force():
    squares = all_latin_squares(4)
    rng = random.Random(424242)
    for _ in range(60):
        s, t = rng.choice(squares), rng.choice(squares)
        assert are_isomorphic(s, t) == brute_isomorphic(s, t)


def test_transitivity_on_classified_sets():
    tables = [build_table(f) for f in all_affine_forms(Z4)]
    classes = classify(tables)
    assignment = assign_to_classes(classes, tables)
    rng = random.Random(99)
    for _ in range(40):
        i, j = rng.randrange(len(tables)), rng.randrange(len(tables))
        same_class = assignment[i] == assignment[j]
        assert are_isomorphic(tables[i], tables[j]) == same_class


def test_latin_square_counts():
    assert len(all_latin_squares(1)) == 1
    assert len(all_latin_squares(2)) == 2
    assert len(all_latin_squares(3)) == 12
    assert len(all_latin_squares(4)) == 576


def test_every_small_medial_square_is_affine():
    # completeness of the affine characterization at orders 2..4: each medial
    # Latin square must be isomorphic to a table from some affine triple
    by_order = {
        2: rep_tables(Cyclic(Prime(2), 1)),
        3: rep_tables(Cyclic(Prime(3), 1)),
        4: rep_tables(Z4) + rep_tables(V2),
    }
    expected_classes = {2: 1, 3: 5, 4: 13}
    for n, reps in by_order.items():
        medial = [s for s in all_latin_squares(n) if is_medial(s)]
        classes = classify(medial)
        assert len(classes) == expected_classes[n]
        assignment = assign_to_classes(classes, reps)
        assert sorted(assignment) == list(range(len(classes)))


def test_classify_pool_size_is_clamped(monkeypatch):
    from medialq import enumeration

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 64)
    tables = [build_table(f) for f in all_affine_forms(V2)]
    buckets = len({fingerprint(t) for t in tables})
    seq = classify(tables)
    assert classify(tables, jobs=10 ** 6) == seq
    assert sizes == [min(64, buckets)]
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        classify(tables, jobs=0)
