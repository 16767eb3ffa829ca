import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit, centralizer, gl2_elements, units
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.oracle import all_affine_forms, all_latin_squares, relabel
from medialq.quasigroup import (
    AffineForm,
    CayleyTable,
    build_table,
    count_idempotents,
    is_latin,
    is_medial,
    tables_from_text,
    to_text,
)

Z3 = Cyclic(Prime(3), 1)
V2 = ElemAbelianRank2(Prime(2))


def group_table(G):
    els = G.elements()
    idx = {g: i for i, g in enumerate(els)}
    return CayleyTable(
        G.order, tuple(tuple(idx[G.add(a, b)] for b in els) for a in els)
    )


def test_identity_form_gives_group_table():
    form = AffineForm(Z3, Unit(1, 3), Unit(1, 3), 0)
    assert build_table(form) == group_table(Z3)


def test_doubling_form_direct_evaluation():
    form = AffineForm(Z3, Unit(2, 3), Unit(2, 3), 0)
    t = build_table(form)
    expected = tuple(tuple((2 * i + 2 * j) % 3 for j in range(3)) for i in range(3))
    assert t.rows == expected
    assert count_idempotents(t) == 3  # 2i + 2i = 4i = i mod 3


def test_translation_form_shifts_rows():
    I = Mat2.identity(2)
    t = build_table(AffineForm(V2, I, I, (1, 0)))
    base = group_table(V2)
    shift = V2.index((1, 0))
    assert t.rows[0] == tuple(base.rows[shift][j] for j in range(4))


def test_form_validation():
    with pytest.raises(ValueError):
        AffineForm(Z3, Unit(1, 9), Unit(1, 3), 0)  # wrong modulus
    with pytest.raises(ValueError):
        AffineForm(V2, Mat2(1, 1, 1, 1, 2), Mat2.identity(2), (0, 0))  # singular phi
    with pytest.raises(ValueError):
        AffineForm(V2, Mat2(1, 1, 0, 1, 2), Mat2(1, 0, 1, 1, 2), (0, 0))  # non-commuting
    with pytest.raises(ValueError):
        AffineForm(Z3, Unit(1, 3), Unit(1, 3), 5)  # c outside the group


def test_every_affine_table_is_latin_and_medial():
    # forward direction of the affine characterization, exhaustive at small order
    for G in (Cyclic(Prime(2), 2), Cyclic(Prime(3), 2), V2, ElemAbelianRank2(Prime(3))):
        for form in all_affine_forms(G):
            t = build_table(form)
            assert is_latin(t)
            assert is_medial(t)


def test_is_latin_counterexamples():
    assert is_latin(CayleyTable(2, ((0, 0), (0, 0)))) is False
    assert is_latin(CayleyTable(1, ((0,),))) is True
    assert is_latin(CayleyTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))) is True


def test_group_tables_are_medial():
    assert is_medial(group_table(Cyclic(Prime(2), 2))) is True
    assert is_medial(group_table(V2)) is True


def test_all_order_3_latin_squares_are_medial():
    # order 3 admits no non-medial quasigroup: all 12 squares are affine over Z_3
    squares = all_latin_squares(3)
    assert len(squares) == 12
    assert all(is_medial(s) for s in squares)


def test_non_medial_witness_at_order_4():
    # smallest non-medial quasigroups live at order 4; take the scan's first
    witness = next(s for s in all_latin_squares(4) if not is_medial(s))
    assert is_latin(witness)
    assert is_medial(witness) is False
    # and the naive quadruple check agrees with a hand loop on the witness
    r = witness.rows
    naive = all(
        r[r[x][y]][r[u][v]] == r[r[x][u]][r[y][v]]
        for x in range(4)
        for y in range(4)
        for u in range(4)
        for v in range(4)
    )
    assert naive is False


def test_idempotent_count_examples():
    for G in (Z3, Cyclic(Prime(2), 2), V2):
        assert count_idempotents(group_table(G)) == 1


def test_isomorphism_invariants_under_relabeling():
    rng = random.Random(20260811)
    G = ElemAbelianRank2(Prime(3))
    forms = all_affine_forms(G)
    for form in rng.sample(forms, 25):
        t = build_table(form)
        perm = list(range(t.n))
        rng.shuffle(perm)
        s = relabel(t, perm)
        assert count_idempotents(s) == count_idempotents(t)
        row_types = lambda tab: sorted(
            tuple(sorted(_perm_cycle_type(row))) for row in tab.rows
        )
        assert row_types(s) == row_types(t)


def _perm_cycle_type(row):
    seen = [False] * len(row)
    lengths = []
    for start in range(len(row)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = row[x]
            length += 1
        lengths.append(length)
    return lengths


def test_build_table_injective_in_c():
    G = Cyclic(Prime(3), 2)
    phi, psi = Unit(2, 9), Unit(5, 9)
    tables = {build_table(AffineForm(G, phi, psi, c)).rows for c in G.elements()}
    assert len(tables) == 9


def test_text_round_trip_and_exact_format():
    t = CayleyTable(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    text = to_text(t)
    assert text == "3\n0 1 2\n1 2 0\n2 0 1\n"
    assert tables_from_text(text) == [t]
    assert tables_from_text(text + text) == [t, t]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        tables_from_text("2\n0 1\n1")
    with pytest.raises(ValueError):
        tables_from_text("x\n")


def test_table_shape_validation():
    with pytest.raises(ValueError):
        CayleyTable(2, ((0, 1),))
    with pytest.raises(ValueError):
        CayleyTable(2, ((0, 1), (1, 2)))


def medial_n4(t):
    """The earlier is_medial: the whole n^4 gather at once, kept as the reference."""
    n = t.n
    src = np.asarray(t.rows, dtype=np.int16)
    idx = np.asarray(t.rows, dtype=np.intp).ravel()
    L = src[idx[:, None], idx[None, :]].reshape(n, n, n, n)
    return bool((L == L.transpose(0, 2, 1, 3)).all())


@st.composite
def affine_tables_with_an_edit(draw):
    # x*y = a x + b y + c over Z_n, a and b any residues (the table need not
    # be Latin), and a copy with one cell set to some other symbol
    n = draw(st.integers(1, 12))
    a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
    rows = [[(a * x + b * y + c) % n for y in range(n)] for x in range(n)]
    table = CayleyTable(n, tuple(map(tuple, rows)))
    x, y, v = (draw(st.integers(0, n - 1)) for _ in range(3))
    rows[x][y] = v
    return table, CayleyTable(n, tuple(map(tuple, rows)))


@settings(max_examples=300, deadline=None)
@given(affine_tables_with_an_edit())
def test_is_medial_agrees_with_the_n4_reference(case):
    table, edited = case
    assert is_medial(table) is medial_n4(table) is True
    assert is_medial(edited) is medial_n4(edited)


def test_is_medial_memory_grows_as_n_cubed():
    # order 101: the n^4 reference would need about 200 MB for its gather alone
    G = Cyclic(Prime(101), 1)
    table = build_table(AffineForm(G, Unit(2, 101), Unit(3, 101), 5))
    tracemalloc.start()
    try:
        assert is_medial(table) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20


@st.composite
def affine_forms(draw):
    # Z_p, Z_{p^2} or (Z_p)^2 for p <= 7, with phi any automorphism and psi
    # any automorphism commuting with it
    p = Prime(draw(st.sampled_from([2, 3, 5, 7])))
    G = draw(st.sampled_from([Cyclic(p, 1), Cyclic(p, 2), ElemAbelianRank2(p)]))
    if isinstance(G, Cyclic):
        phi, psi = (draw(st.sampled_from(units(p, G.k))) for _ in range(2))
    else:
        phi = draw(st.sampled_from(gl2_elements(p)))
        psi = draw(st.sampled_from(centralizer(phi)))
    return AffineForm(G, phi, psi, draw(st.sampled_from(G.elements())))


@settings(max_examples=150, deadline=None)
@given(affine_forms())
def test_random_affine_forms_build_latin_medial_tables(form):
    table = build_table(form)
    assert table.n == form.group.order
    assert is_latin(table)
    assert is_medial(table)
