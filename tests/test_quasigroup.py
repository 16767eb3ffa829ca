import json
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import quasigroup
from medialq.cli import _block_tables
from medialq.enumeration import closed_form_cyclic, closed_form_zp2, enumerate_blocks
from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit, centralizer, units
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.oracle import all_affine_forms, all_affine_tables
from medialq.quasigroup import (
    AffineForm,
    CayleyTable,
    _certificate_failure,
    _iter_tables,
    build_table,
    count_idempotents,
    is_latin,
    is_medial,
    to_json,
    to_text,
)
from reference import add, all_latin_squares, apply, as_matrices, gl2_elements, identity_matrix, medial_scan, relabel

Z3 = Cyclic(Prime(3), 1)
V2 = ElemAbelianRank2(Prime(2))


def group_table(G):
    els = G.elements()
    idx = {g: i for i, g in enumerate(els)}
    return CayleyTable(
        G.order, tuple(tuple(idx[add(G, a, b)] for b in els) for a in els)
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
    I = identity_matrix(2)
    t = build_table(AffineForm(V2, I, I, (1, 0)))
    base = group_table(V2)
    shift = V2.index((1, 0))
    assert t.rows[0] == tuple(base.rows[shift][j] for j in range(4))


def test_form_validation():
    with pytest.raises(ValueError):
        AffineForm(Z3, Unit(1, 9), Unit(1, 3), 0)  # wrong modulus
    with pytest.raises(ValueError):
        AffineForm(V2, Mat2(1, 1, 1, 1, 2), identity_matrix(2), (0, 0))  # singular phi
    with pytest.raises(ValueError):
        AffineForm(V2, Mat2(1, 1, 0, 1, 2), Mat2(1, 0, 1, 1, 2), (0, 0))  # non-commuting
    with pytest.raises(ValueError):
        AffineForm(Z3, Unit(1, 3), Unit(1, 3), 5)  # c outside the group
    with pytest.raises(ValueError, match="not an element"):
        AffineForm(V2, identity_matrix(2), identity_matrix(2), (True, False))  # bool coordinates


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
    assert list(_iter_tables(text)) == [t]
    assert list(_iter_tables(text + text)) == [t, t]


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        list(_iter_tables("2\n0 1\n1"))
    with pytest.raises(ValueError):
        list(_iter_tables("x\n"))


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
    affine = build_table(AffineForm(G, Unit(2, 101), Unit(3, 101), 5))
    constant = CayleyTable(101, np.zeros((101, 101), dtype=int))  # medial, and no quasigroup
    for table, bound in ((affine, 2 ** 20), (constant, 40 * 2 ** 20)):
        tracemalloc.start()
        try:
            assert is_medial(table) is True
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound  # the certificate holds O(n^2) entries, the scan O(n^3)


# ------------------------------------------- the affine certificate against the full scan


def affine_rows(G, phi, psi, c) -> list:
    """x*y = phi(x) + psi(y) + c over G by the reference arithmetic; phi and psi need not commute."""
    els = G.elements()
    idx = {g: i for i, g in enumerate(els)}
    right = [add(G, apply(G, psi, y), c) for y in els]
    return [[idx[add(G, apply(G, phi, x), b)] for b in right] for x in els]


_S3 = list(permutations(range(3)))
S3_ROWS = [[_S3.index(tuple(a[b[i]] for i in range(3))) for b in _S3] for a in _S3]


@st.composite
def medial_candidates(draw):
    # a random table, an affine table over Z_{p^k} or (Z_p)^2 (with commuting
    # or with arbitrary phi and psi), or the group table of S_3; as it is,
    # relabelled or as a row-and-column isotope; and maybe with a cell changed
    kind = draw(st.sampled_from(["random", "cyclic", "rank2", "any-pair", "s3"]))
    if kind == "random":
        n = draw(st.integers(1, 8))
        rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    elif kind == "s3":
        rows = [list(row) for row in S3_ROWS]
    elif kind == "cyclic":
        p, k = draw(st.sampled_from([(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]))
        G = Cyclic(Prime(p), k)
        phi, psi = (draw(st.sampled_from(units(p, k).tolist())) for _ in range(2))
        rows = affine_rows(G, phi, psi, draw(st.sampled_from(G.elements())))
    else:
        p = draw(st.sampled_from([2, 3, 5]))
        G = ElemAbelianRank2(Prime(p))
        phi = draw(st.sampled_from(gl2_elements(p)))
        pool = gl2_elements(p) if kind == "any-pair" else as_matrices(centralizer(phi.p, int(phi)), p)
        rows = affine_rows(G, phi, draw(st.sampled_from(pool)), draw(st.sampled_from(G.elements())))
    n = len(rows)
    shape = draw(st.sampled_from(["as is", "relabelled", "isotope"]))
    if shape != "as is":
        r, s, u = (draw(st.permutations(range(n))) for _ in range(3))
        if shape == "relabelled":
            r = s = [u.index(x) for x in range(n)]  # u^-1, so that u(x) * u(y) = u(x*y)
        rows = [[u[rows[r[x]][s[y]]] for y in range(n)] for x in range(n)]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = draw(st.integers(0, n - 1))
    return CayleyTable(n, rows)


@settings(max_examples=400, deadline=None)
@given(medial_candidates())
def test_is_medial_is_the_full_scan(t):
    assert is_medial(t) is medial_scan(t)


@settings(max_examples=400, deadline=None)
@given(medial_candidates())
def test_the_certificate_accepts_no_table_the_scan_rejects(t):
    if _certificate_failure(t) is None:
        assert medial_scan(t) is True
    elif is_latin(t):
        # Toyoda-Bruck: every medial quasigroup is affine over each of its principal loop isotopes
        assert medial_scan(t) is False


def _z5_non_affine_rows():
    # x*y = f(x) + y + 1 over Z_5 with the permutation f = (1 2), which is no affine map
    f = [0, 2, 1, 3, 4]
    return [[(f[x] + y + 1) % 5 for y in range(5)] for x in range(5)]


def _fano_rows():
    # the Steiner quasigroup of the Fano plane: x*x = x, and x*y the third point of the line on x and y
    rows = [[x] * 7 for x in range(7)]
    for line in ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0), (5, 6, 1), (6, 0, 2)):
        for x, y, z in permutations(line):
            rows[x][y] = z
    return rows


def _edited_affine_rows():
    # x*y = 2x + 3y + 1 over Z_7 with cell (1, 1) changed from 6 to 0
    rows = [[(2 * x + 3 * y + 1) % 7 for y in range(7)] for x in range(7)]
    rows[1][1] = 0
    return rows


CLAUSE_FAILURES = [
    pytest.param("isotope", [[0, 1, 2], [1, 2, 0], [1, 0, 1]], id="isotope"),  # column 0 is no permutation
    pytest.param("affine", _edited_affine_rows(), id="affine"),
    pytest.param("commutative", S3_ROWS, id="commutative"),
    pytest.param("associative", _fano_rows(), id="associative"),
    pytest.param("additive", _z5_non_affine_rows(), id="additive-phi"),
    pytest.param("additive", [list(col) for col in zip(*_z5_non_affine_rows())], id="additive-psi"),
    pytest.param(
        "commuting",
        affine_rows(ElemAbelianRank2(Prime(3)), Mat2(1, 1, 0, 1, 3), Mat2(1, 0, 1, 1, 3), (0, 0)),
        id="commuting",
    ),
]


@pytest.mark.parametrize("clause, rows", CLAUSE_FAILURES)
def test_each_clause_has_a_table_that_fails_it_first_and_the_scan_says_no(monkeypatch, clause, rows):
    t = CayleyTable(len(rows), rows)
    assert _certificate_failure(t) == clause  # and no clause checked before it
    scanned, scan = [], quasigroup._medial_scan
    monkeypatch.setattr(quasigroup, "_medial_scan", lambda table: scanned.append(table) or scan(table))
    assert is_medial(t) is False
    assert scanned == [t]


def _refuse_the_scan(monkeypatch):
    def refuse(table):
        raise AssertionError(f"the certificate failed: {_certificate_failure(table)}")

    monkeypatch.setattr(quasigroup, "_medial_scan", refuse)


@pytest.mark.parametrize("G", [Cyclic(Prime(7), 2), ElemAbelianRank2(Prime(5))], ids=str)
def test_every_exported_table_is_certified_without_the_scan(monkeypatch, G):
    # the tables `export` writes: the tables of each listed triple, block by block
    tables = [table for block in enumerate_blocks(G) for _, table in _block_tables(G, block)]
    _refuse_the_scan(monkeypatch)
    assert len(tables) == (closed_form_cyclic(G.p, G.k) if isinstance(G, Cyclic) else closed_form_zp2(G.p))
    assert all(is_medial(table) for table in tables)


def test_every_affine_table_of_order_9_is_certified_without_the_scan(monkeypatch):
    _refuse_the_scan(monkeypatch)
    for G in (Cyclic(Prime(3), 2), ElemAbelianRank2(Prime(3))):
        assert all(is_medial(CayleyTable(G.order, table)) for table in all_affine_tables(G))


def test_the_tokenizer_reads_no_more_than_it_needs():
    # text.split() would hold a million tokens, 56.7 MB, before the order is read
    text = "1000\n" + "12 " * 10 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n <= 81"):
            list(_iter_tables(text, max_order=81))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@st.composite
def affine_forms(draw):
    # Z_p, Z_{p^2} or (Z_p)^2 for p <= 7, with phi any automorphism and psi
    # any automorphism commuting with it
    p = Prime(draw(st.sampled_from([2, 3, 5, 7])))
    G = draw(st.sampled_from([Cyclic(p, 1), Cyclic(p, 2), ElemAbelianRank2(p)]))
    if isinstance(G, Cyclic):
        phi, psi = (Unit(draw(st.sampled_from(units(p, G.k).tolist())), G.order) for _ in range(2))
    else:
        phi = draw(st.sampled_from(gl2_elements(p)))
        psi = draw(st.sampled_from(as_matrices(centralizer(phi.p, int(phi)), p)))
    return AffineForm(G, phi, psi, draw(st.sampled_from(G.elements())))


@settings(max_examples=150, deadline=None)
@given(affine_forms())
def test_random_affine_forms_build_latin_medial_tables(form):
    table = build_table(form)
    assert table.n == form.group.order
    assert is_latin(table)
    assert is_medial(table)


# ------------------------------------------- the array table against the old per-cell code


def ref_accepts(n, rows) -> bool:
    """The earlier per-cell CayleyTable check, kept as the reference."""
    try:
        if n < 1 or len(rows) != n:
            return False
        return all(
            len(row) == n and all(isinstance(v, int) and 0 <= v < n for v in row)
            for row in rows
        )
    except TypeError:  # a row or the rows without a length
        return False


def ref_to_text(rows) -> str:
    """The earlier per-cell to_text."""
    lines = [str(len(rows))]
    lines.extend(" ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def latin_plain(rows) -> bool:
    full = set(range(len(rows)))
    return all(set(row) == full for row in rows) and all(set(col) == full for col in zip(*rows))


def medial_plain(rows) -> bool:
    r = range(len(rows))
    return all(
        rows[rows[x][y]][rows[u][v]] == rows[rows[x][u]][rows[y][v]]
        for x in r
        for y in r
        for u in r
        for v in r
    )


def idempotents_plain(rows) -> int:
    return sum(1 for i, row in enumerate(rows) if row[i] == i)


@st.composite
def random_tables(draw, max_order=100):
    # any n x n table over 0 .. n-1, drawn cell by cell when small and from a
    # seeded generator when large
    n = draw(st.integers(1, max_order))
    if n <= 6:
        cells = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                              min_size=n, max_size=n))
    else:
        cells = np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(0, n, (n, n))
    return CayleyTable(n, cells)


@settings(max_examples=200, deadline=None)
@given(random_tables())
def test_to_text_prints_the_bytes_of_the_per_cell_join(t):
    text = to_text(t)
    assert text == ref_to_text(t.rows)
    assert list(_iter_tables(text)) == [t]
    assert list(_iter_tables(text + text)) == [t, t]
    assert to_json(t) == json.dumps(t.cells.tolist())


@settings(max_examples=100, deadline=None)
@given(random_tables())
def test_a_table_is_its_rows_by_value(t):
    same = CayleyTable(t.n, t.rows)
    assert same == t and hash(same) == hash(t)
    assert same.rows == t.rows == tuple(map(tuple, t.cells.tolist()))
    assert t.cells.shape == (t.n, t.n) and not t.cells.flags.writeable
    assert t.cells.dtype == np.min_scalar_type(t.n - 1)


@st.composite
def nested_inputs(draw):
    # an order and a nested sequence near the shape of a table: ragged rows,
    # negative values, values >= n, floats, strings, bools, rows that are
    # strings or numbers, and wrong row counts
    n = draw(st.integers(-1, 5))
    width = st.integers(max(n, 0), max(n, 0)) | st.integers(0, 6)
    value = (
        st.integers(-2, max(n, 0) + 1)
        | st.booleans()
        | st.floats(allow_nan=True)
        | st.text(max_size=2)
        | st.integers(2 ** 62, 2 ** 70)
    )
    row = st.one_of(
        width.flatmap(lambda w: st.lists(st.integers(0, max(n - 1, 0)), min_size=w, max_size=w)),
        width.flatmap(lambda w: st.lists(value, min_size=w, max_size=w)),
        st.text(max_size=max(n, 0)),
        st.integers(0, 3),
    )
    count = st.integers(max(n, 0), max(n, 0)) | st.integers(0, 6)
    rows = draw(count.flatmap(lambda c: st.lists(row, min_size=c, max_size=c)))
    as_tuples = draw(st.booleans())
    if as_tuples:
        rows = tuple(tuple(r) if isinstance(r, list) else r for r in rows)
    return n, rows


@settings(max_examples=500, deadline=None)
@given(nested_inputs())
def test_cayley_table_accepts_what_the_per_cell_check_accepted(case):
    n, rows = case
    if ref_accepts(n, rows):
        t = CayleyTable(n, rows)
        assert t.rows == tuple(map(tuple, rows))
    else:
        with pytest.raises(ValueError):
            CayleyTable(n, rows)


@st.composite
def checked_tables(draw):
    # a random table, an affine table over Z_n (Latin when a and b are
    # units), a row-and-column isotope of Z_n, or one of these with a cell
    # changed
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["random", "affine", "isotope"]))
    if kind == "random":
        rows = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    elif kind == "affine":
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        rows = [[(a * x + b * y + c) % n for y in range(n)] for x in range(n)]
    else:
        r, s, u = (draw(st.permutations(range(n))) for _ in range(3))
        rows = [[u[(r[x] + s[y]) % n] for y in range(n)] for x in range(n)]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = draw(st.integers(0, n - 1))
    return CayleyTable(n, rows)


@settings(max_examples=400, deadline=None)
@given(checked_tables())
def test_checks_agree_with_plain_python(t):
    rows = t.rows
    assert is_latin(t) is latin_plain(rows)
    assert is_medial(t) is medial_plain(rows)
    assert count_idempotents(t) == idempotents_plain(rows)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("01 x\n\t　\x1c\x85"), max_size=40), st.integers(1, 8))
def test_tokens_are_split_tokens_whatever_the_chunk(text, chunk):
    from medialq.quasigroup import _tokens

    assert list(_tokens(text, chunk)) == text.split()
