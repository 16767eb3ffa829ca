import math
import random
import re
import time
from functools import lru_cache
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medialq import oracle, quasigroup
from medialq.cli import main
from medialq.enumeration import enumerate_forms
from medialq.fp import Prime
from medialq.gl2 import Mat2, check_pairs, gl2_elements
from medialq.groups import Cyclic, ElemAbelianRank2
from medialq.oracle import (
    IsoClass,
    all_affine_forms,
    all_affine_tables,
    are_isomorphic,
    assign_to_classes,
    classify,
    fingerprint,
)
from medialq.quasigroup import (
    AffineForm,
    CayleyTable,
    build_table,
    count_idempotents,
    is_medial,
    tables_from_text,
    to_text,
)
from reference import (
    _cycle_lengths,
    _signatures,
    add,
    all_latin_squares,
    mul,
    products,
    relabel,
    tuple_classify,
    walk_fingerprint,
)

Z4 = Cyclic(Prime(2), 2)
V2 = ElemAbelianRank2(Prime(2))
Z9 = Cyclic(Prime(3), 2)
V3 = ElemAbelianRank2(Prime(3))


def group_table(G):
    els = G.elements()
    idx = {g: i for i, g in enumerate(els)}
    return CayleyTable(
        G.order, tuple(tuple(idx[add(G, a, b)] for b in els) for a in els)
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
    with pytest.raises(ValueError, match="exhaustive cap"):
        assign_to_classes([IsoClass(big, 1, fingerprint(big))], [big])
    with pytest.raises(ValueError, match="classification cap 16"):
        classify([big])
    with pytest.raises(ValueError):
        all_latin_squares(5)


def test_fingerprint_invariance():
    rng = random.Random(77)
    for t in rep_tables(Z9)[:10] + rep_tables(V2):
        perm = list(range(t.n))
        rng.shuffle(perm)
        assert fingerprint(relabel(t, perm)) == fingerprint(t)


def test_fingerprint_runs_one_cycle_search_per_table(monkeypatch):
    def refuse(t):
        raise AssertionError("count_idempotents called")

    monkeypatch.setattr(oracle, "count_idempotents", refuse, raising=False)
    monkeypatch.setattr(quasigroup, "count_idempotents", refuse)
    calls = []
    cycle_points = oracle._cycle_points
    monkeypatch.setattr(oracle, "_cycle_points", lambda f: calls.append(f.tolist()) or cycle_points(f))
    for t in rep_tables(V3)[:5] + [group_table(Z4)]:
        calls.clear()
        fp = fingerprint(t)
        assert calls == [[t.rows[i][i] for i in range(t.n)]]
        assert fp == oracle.Fingerprint(t.n, _cycle_lengths(calls[0])) == walk_fingerprint(t)


def ref_cycle_lengths(f) -> tuple:
    # the earlier walk: a dict of positions along each path, then a settle loop
    n = len(f)
    state = [0] * n  # 0 untouched, 2 settled
    lengths = []
    for start in range(n):
        if state[start]:
            continue
        path = []
        pos: dict = {}
        x = start
        while state[x] == 0 and x not in pos:
            pos[x] = len(path)
            path.append(x)
            x = f[x]
        if state[x] == 0:
            lengths.append(len(path) - pos[x])
        for y in path:
            state[y] = 2
    return tuple(sorted(lengths))


@st.composite
def maps_and_permutations(draw):
    n = draw(st.integers(1, 16))
    if draw(st.booleans()):
        return draw(st.permutations(range(n)))
    return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(maps_and_permutations())
def test_cycle_lengths_match_the_path_dict_walk(f):
    assert _cycle_lengths(f) == ref_cycle_lengths(f)


def recording_matches(monkeypatch):
    # each batch `_matches` is given, as (whether every table shares the
    # representative's index entry, the number of tables)
    batches = []
    matches = oracle._matches

    def recording(t, sig_t, stack, codes):
        entry = (fingerprint(CayleyTable(len(t), t)), sorted(sig_t.tolist()))
        same = all((fingerprint(CayleyTable(len(s), s)), sorted(c.tolist())) == entry for s, c in zip(stack, codes))
        batches.append((same, len(stack)))
        return matches(t, sig_t, stack, codes)

    monkeypatch.setattr(oracle, "_matches", recording)
    return batches


def test_classify_tests_only_tables_of_the_representatives_index_entry(monkeypatch):
    # no other table can be isomorphic to the representative, so testing one is waste
    batches = recording_matches(monkeypatch)
    classes = classify([build_table(f) for f in all_affine_forms(V3)])
    assert len(classes) == 68
    assert len(batches) == 68 and all(same for same, _ in batches)  # one batch per class


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
    pairs = sum(1 for A in gl for B in gl if mul(A, B) == mul(B, A))
    assert pairs == 18
    assert len(all_affine_forms(V2)) == pairs * 4 == 72
    assert len(all_affine_forms(Z9)) == 36 * 9 == 324
    gl3 = gl2_elements(3)
    pairs3 = sum(1 for A in gl3 for B in gl3 if mul(A, B) == mul(B, A))
    assert len(all_affine_forms(V3)) == pairs3 * 9 == 3456


@pytest.mark.parametrize(
    "G",
    [Cyclic(Prime(p), k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))]
    + [V2, V3],
    ids=str,
)
def test_the_affine_pairs_are_the_commuting_pairs_found_by_brute_force(G):
    # in order: phi-major, each over Aut(G) ascending, residues or matrix codes (base-p digits, m00 first)
    n = G.order
    if isinstance(G, Cyclic):
        auts = [u for u in range(n) if math.gcd(u, n) == 1]
        want = [(u, v) for u in auts for v in auts if u * v % n == v * u % n]
    else:
        p = G.p
        rows = [e for e in product(range(p), repeat=4) if (e[0] * e[3] - e[1] * e[2]) % p]
        codes = [((a * p + b) * p + c) * p + d for a, b, c, d in rows]
        want = [
            (codes[i], codes[j])
            for i, x in enumerate(rows)
            for j, y in enumerate(rows)
            if (products(x, y, p) == products(y, x, p)).all()
        ]
    assert oracle._affine_pairs(G) == want


def test_all_affine_forms_rejects_large_groups():
    with pytest.raises(ValueError, match="exceeds the cap 16"):
        all_affine_forms(Cyclic(Prime(17), 1))
    with pytest.raises(ValueError, match="exceeds the cap 16"):
        all_affine_forms(ElemAbelianRank2(Prime(5)))


def test_the_stack_is_every_built_table_in_order():
    for G in SMALL_GROUPS:
        stack = all_affine_tables(G)
        assert stack.dtype == np.uint8
        assert np.array_equal(stack, [build_table(f).cells for f in all_affine_forms(G)])


def test_the_representative_stack_is_their_built_tables():
    for G in (Z4, V2, Z9, V3):
        triples = enumerate_forms(G).triples
        stack = quasigroup.affine_tables(G, [(t.phi, t.psi) for t in triples], [[G.index(t.c)] for t in triples])
        assert np.array_equal(stack, [t.cells for t in rep_tables(G)])
    assert quasigroup.affine_tables(V3, [], []).shape == (0, 9, 9)
    I = Mat2(1, 0, 0, 1, 3)
    for c in (-1, 9):
        with pytest.raises(ValueError, match=re.escape("must lie in [0, 9)")):
            quasigroup.affine_tables(V3, [(I, I)], [[0, c]])


def non_commuting_pair(p):
    gl = gl2_elements(p)
    return next((A, B) for A in gl for B in gl if mul(A, B) != mul(B, A))


@pytest.mark.parametrize(
    "G, bad",
    [
        (V3, tuple(map(int, non_commuting_pair(3)))),
        (V3, (int(Mat2(1, 0, 0, 1, 3)), int(Mat2(1, 1, 1, 1, 3)))),  # singular psi
        (V2, (int(Mat2(1, 0, 0, 1, 2)), 2 ** 4)),  # p^4, a code past every matrix over F_2
        (Z9, (2, 9)),  # the residue 9, past Z_9
    ],
    ids=["non-commuting", "singular", "other-field", "other-modulus"],
)
def test_a_bad_pair_in_the_pair_list_raises_check_pairs_message(monkeypatch, G, bad):
    with pytest.raises(ValueError) as want:
        check_pairs(G, bad[0], bad[1:])
    if bad[1] >= (G.order if isinstance(G, Cyclic) else G.p ** 4):
        assert str(want.value) == f"{bad[1]} is not the code of an automorphism of {G}"
    pairs = oracle._affine_pairs(G)
    for at in (0, len(pairs) // 2, len(pairs)):
        monkeypatch.setattr(oracle, "_affine_pairs", lambda G: pairs[:at] + [bad] + pairs[at:])
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            all_affine_tables(G)


def test_classify_reads_a_stack_as_its_tables():
    tables = [build_table(f) for f in all_affine_forms(Z9)]
    classes = classify(all_affine_tables(Z9))
    assert classes == classify(tables)
    assert all(type(c.canonical_member) is CayleyTable for c in classes)
    assert assign_to_classes(classes, all_affine_tables(Z9)) == assign_to_classes(classes, tables)
    for bad in (np.zeros((2, 3, 4), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8),
                np.full((1, 3, 3), 3), np.full((1, 3, 3), -1), np.zeros((1, 2, 2)), np.zeros((0, 0, 0), dtype=int)):
        with pytest.raises(ValueError):
            classify(bad)


def test_a_stack_of_any_integer_or_bool_dtype_classifies_alike():
    stack = np.array([[[0, 1], [1, 0]], [[1, 0], [0, 1]], [[1, 1], [1, 1]]])
    want = classify([CayleyTable(2, t) for t in stack])
    assert [c.members for c in want] == [2, 1]
    for dtype in (bool, np.int8, np.uint16, np.int64):
        assert classify(stack.astype(dtype)) == want
        assert assign_to_classes(want, stack.astype(dtype)) == [0, 0, 1]


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
    assert classes_v2[0].canonical_member is tables_v2[0]


def test_classify_is_deterministic():
    tables = [build_table(f) for f in all_affine_forms(Z9)]
    seq = classify(tables)
    assert classify(tables) == seq
    assert len(seq) == 48


def test_assign_to_classes_bijection():
    tables = [build_table(f) for f in all_affine_forms(Z4)]
    classes = classify(tables)
    reps = rep_tables(Z4)
    assignment = assign_to_classes(classes, reps)
    assert sorted(assignment) == list(range(len(classes)))


def test_assign_to_classes_takes_the_first_matching_class_of_each_order():
    classes4, classes9 = classify(all_affine_tables(Z4)), classify(all_affine_tables(Z9))
    reps4, reps9 = rep_tables(Z4), rep_tables(Z9)
    first4, first9 = assign_to_classes(classes4, reps4), assign_to_classes(classes9, reps9)
    # each class twice, the orders interleaved: every table still gets its first copy
    doubled = classes9 + classes4 + classes9 + classes4
    assert assign_to_classes(doubled, reps4 + reps9) == [len(classes9) + i for i in first4] + first9


def test_assign_to_classes_tests_only_tables_of_the_members_index_entry(monkeypatch):
    classes = classify(all_affine_tables(V3))
    batches = recording_matches(monkeypatch)
    assert sorted(assign_to_classes(classes, rep_tables(V3))) == list(range(68))
    assert batches and all(same for same, _ in batches)
    assert sum(size for _, size in batches) >= 68


def test_assign_to_classes_rejects_stranger():
    tables = [build_table(f) for f in all_affine_forms(Z4)]
    classes = classify(tables)
    with pytest.raises(ValueError):
        assign_to_classes(classes, [group_table(Z9)])
    # a table whose fingerprint matches a class it is not isomorphic to
    i, j = next(
        (i, j)
        for i in range(len(classes))
        for j in range(i)
        if classes[i].fingerprint == classes[j].fingerprint
    )
    with pytest.raises(ValueError, match="not isomorphic to any class member"):
        assign_to_classes([classes[j]], [classes[i].canonical_member])


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


def test_one_invariant_pass_per_call(monkeypatch, capsys):
    passes = []  # the number of tables of each pass
    invariants = oracle._invariants

    def counting(stack):
        passes.append(len(stack))
        return invariants(stack)

    monkeypatch.setattr(oracle, "_invariants", counting)
    tables = [build_table(f) for f in all_affine_forms(Z9)]
    classes = classify(tables)
    assert passes == [len(tables)]
    passes.clear()
    reps = rep_tables(Z9)
    assign_to_classes(classes, reps)
    assert passes == [len(reps) + len(classes)]
    passes.clear()
    assert are_isomorphic(reps[0], reps[1]) is False
    assert passes == [2]
    passes.clear()
    # 3456 affine tables, then 68 representatives and 68 classes
    assert main(["crosscheck", "--group", "zp2", "--p", "3"]) == 0
    assert "68 = 68 OK" in capsys.readouterr().out
    assert passes == [3456, 68 + 68]


# ---------------------------------------------------------------- properties

SMALL_GROUPS = [
    Cyclic(Prime(p), k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))
] + [V2, V3]


@lru_cache(maxsize=None)
def forms_of(G):
    return all_affine_forms(G)


@st.composite
def affine_tables(draw, G=None):
    # a random affine table over a group of order <= 9, or a copy with one cell changed
    G = G or draw(st.sampled_from(SMALL_GROUPS))
    forms = forms_of(G)
    table = build_table(forms[draw(st.integers(0, len(forms) - 1))])
    if not draw(st.booleans()):
        return table
    n = table.n
    x, y = (draw(st.integers(0, n - 1)) for _ in range(2))
    rows = [list(r) for r in table.rows]
    rows[x][y] = (rows[x][y] + draw(st.integers(1, n - 1))) % n
    return CayleyTable(n, tuple(map(tuple, rows)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_invariants_survive_relabelling(data):
    G = data.draw(st.sampled_from(SMALL_GROUPS))
    t = data.draw(affine_tables(G))
    u = data.draw(affine_tables(G))
    perm = data.draw(st.permutations(range(t.n)))
    r = relabel(t, perm)
    assert fingerprint(r) == fingerprint(t)
    assert is_medial(r) == is_medial(t)
    assert are_isomorphic(t, r) and are_isomorphic(r, t)
    assert are_isomorphic(u, r) == are_isomorphic(u, t)
    perm_u = data.draw(st.permutations(range(u.n)))
    assert are_isomorphic(r, relabel(u, perm_u)) == are_isomorphic(t, u)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classes_survive_relabelling_each_table(data):
    G = data.draw(st.sampled_from(SMALL_GROUPS))
    tables = data.draw(st.lists(affine_tables(G), min_size=1, max_size=12))
    relabelled = [relabel(t, data.draw(st.permutations(range(t.n)))) for t in tables]
    assert [c.members for c in classify(relabelled)] == [c.members for c in classify(tables)]


@st.composite
def any_tables(draw, n=None):
    # an arbitrary table of order n, or of order <= 9, Latin or not
    n = n or draw(st.integers(1, 9))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return CayleyTable(n, draw(st.lists(row, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(affine_tables() | any_tables())
def test_the_diagonal_cycle_type_counts_the_idempotents(t):
    assert fingerprint(t).diagonal_cycle_type.count(1) == count_idempotents(t)


@settings(max_examples=100, deadline=None)
@given(affine_tables())
def test_text_round_trip(t):
    assert tables_from_text(to_text(t)) == [t]


@st.composite
def corrupted_text(draw):
    # a table's text with one defect: a token missing, a word, a symbol out
    # of range, or an order below 1
    t = draw(affine_tables())
    tokens = to_text(t).split()
    kind = draw(st.sampled_from(["drop", "word", "range", "order"]))
    if kind == "drop":
        del tokens[draw(st.integers(1, len(tokens) - 1))]
    elif kind == "word":
        word = draw(st.sampled_from(["x", "1.5", "-", "0x1"]))
        tokens[draw(st.integers(0, len(tokens) - 1))] = word
    elif kind == "range":
        symbol = draw(st.sampled_from([-1, t.n, 10 ** 6]))
        tokens[draw(st.integers(1, len(tokens) - 1))] = str(symbol)
    else:
        tokens[0] = str(draw(st.integers(-3, 0)))
    return " ".join(tokens)


@settings(max_examples=150, deadline=None)
@given(corrupted_text())
def test_garbage_text_is_rejected(text):
    with pytest.raises(ValueError):
        tables_from_text(text)


@settings(max_examples=150, deadline=None)
@given(st.text())
def test_any_text_parses_to_tables_or_raises_value_error(text):
    try:
        tables = tables_from_text(text)
    except ValueError:
        return
    assert tables_from_text("".join(to_text(t) for t in tables)) == tables


def array_cycle_type(f) -> tuple:
    return oracle._cycle_type(oracle._cycle_points(np.array(f, dtype=np.uint8)))


@settings(max_examples=500, deadline=None)
@given(maps_and_permutations())
def test_array_cycle_types_match_the_walk(f):
    assert array_cycle_type(f) == _cycle_lengths(f)


@st.composite
def tables_of_order(draw, n):
    # an arbitrary table of order n, or a Latin one: a relabelled isotope of Z_n
    if draw(st.booleans()):
        a, b, sigma = (draw(st.permutations(range(n))) for _ in range(3))
        return CayleyTable(n, [[sigma[(a[i] + b[j]) % n] for j in range(n)] for i in range(n)])
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return CayleyTable(n, draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def tables_and_copies(draw):
    # tables of one order 1..16, each followed by zero or more relabelled copies
    n = draw(st.integers(1, 16))
    tables = []
    for t in draw(st.lists(tables_of_order(n), min_size=1, max_size=3)):
        tables.append(t)
        tables += [relabel(t, draw(st.permutations(range(n)))) for _ in range(draw(st.integers(0, 2)))]
    return tables


def assert_invariants_match_the_tuples(tables):
    keys, codes = oracle._invariants(np.array([t.cells for t in tables]))
    # equal codes exactly for equal signatures, equal keys exactly for equal fingerprints
    sigs = [sig for t in tables for sig in _signatures(t.rows)]
    flat = codes.ravel().tolist()
    assert len(set(zip(sigs, flat))) == len(set(sigs)) == len(set(flat))
    prints = [walk_fingerprint(t) for t in tables]
    assert [fingerprint(t) for t in tables] == prints
    assert len(set(zip(prints, keys.tolist()))) == len(set(prints)) == len(set(keys.tolist()))


@settings(max_examples=200, deadline=None)
@given(tables_and_copies())
def test_codes_and_keys_are_equal_exactly_where_the_tuples_are(tables):
    assert_invariants_match_the_tuples(tables)


def test_sixteen_distinct_row_cycle_types_get_sixteen_codes():
    # row i cycles the symbols 0..i and fixes the rest: sixteen cycle types,
    # more than a base-17 digit packing of sixteen symbols fits in 64 bits
    n = 16
    t = CayleyTable(n, [[(j + 1) % (i + 1) if j <= i else j for j in range(n)] for i in range(n)])
    assert len({_cycle_lengths(row) for row in t.rows}) == n
    copy = relabel(t, list(reversed(range(n))))
    assert_invariants_match_the_tuples([t, copy])
    _, codes = oracle._invariants(np.array([t.cells, copy.cells]))
    assert len(set(codes[0].tolist())) == n
    assert sorted(codes[0].tolist()) == sorted(codes[1].tolist())
    assert are_isomorphic(t, copy)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_classify_matches_the_tuple_path(data):
    G = data.draw(st.sampled_from(SMALL_GROUPS))
    tables = data.draw(st.lists(affine_tables(G), min_size=1, max_size=10))
    copies = [relabel(t, data.draw(st.permutations(range(t.n)))) for t in tables]
    mixed = data.draw(st.permutations(tables + copies))
    want = tuple_classify(mixed)
    assert classify(mixed) == want
    assert [c.canonical_member for c in classify(mixed)] == [c.canonical_member for c in want]
    assert classify(np.array([t.cells for t in mixed])) == want


# ------------------------------------------- the batched word-map test

@st.composite
def row_constant_tables(draw, n):
    # x*y = f(x): every symbol that f misses is one more generator
    f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return CayleyTable(n, [[f[x]] * n for x in range(n)])


@st.composite
def mixed_tables(draw):
    # tables of one order: affine over a small group, one-cell edits of those
    # (not Latin), arbitrary and row-constant tables, and a relabelled copy
    # of each, shuffled
    G = draw(st.sampled_from(SMALL_GROUPS))
    kinds = affine_tables(G) | any_tables(G.order) | row_constant_tables(G.order)
    tables = draw(st.lists(kinds, min_size=1, max_size=8))
    copies = [relabel(t, draw(st.permutations(range(t.n)))) for t in tables]
    return draw(st.permutations(tables + copies))


def search_assign(classes, tables) -> list:
    # one `_iso_search` per pair: each table's first class whose member it accepts
    return [next((ci for ci, c in enumerate(classes) if are_isomorphic(c.canonical_member, t)), None) for t in tables]


@settings(max_examples=80, deadline=None)
@given(mixed_tables(), st.data())
def test_classify_and_assign_decide_what_the_search_decides(tables, data):
    want = tuple_classify(tables)
    got = classify(tables)
    assert got == want
    assert [c.canonical_member for c in got] == [c.canonical_member for c in want]
    # some classes, maybe repeated or missing, so a table may match twice or not at all
    classes = data.draw(st.lists(st.sampled_from(got), min_size=1, max_size=len(got) + 2))
    want = search_assign(classes, tables)
    if None in want:
        with pytest.raises(ValueError, match="not isomorphic to any class member"):
            assign_to_classes(classes, tables)
    else:
        assert assign_to_classes(classes, tables) == want


def assert_one_entry_two_classes(t, s):
    keys, codes = oracle._invariants(np.array([t.cells, s.cells]))
    assert keys[0] == keys[1] and sorted(codes[0].tolist()) == sorted(codes[1].tolist())
    assert len(oracle._words(t.cells.tolist())[0]) <= oracle._GENERATOR_CAP
    assert [c.members for c in classify([t, s])] == [1, 1]
    with pytest.raises(ValueError, match="not isomorphic to any class member"):
        assign_to_classes(classify([t]), [s])


def test_a_row_that_passes_every_word_must_still_map_every_cell():
    # 0 and 1 generate t, and 2 = 0*1; s differs only in the cell (2, 2),
    # and every symbol keeps its code: sigma = id passes the word and is a
    # bijection, but fails that cell
    t = CayleyTable(3, [[0, 2, 0], [0, 0, 1], [2, 2, 1]])
    s = CayleyTable(3, [[0, 2, 0], [0, 0, 1], [2, 2, 0]])
    assert oracle._words(t.cells.tolist()) == ([0, 1], [(2, 0, 1)])
    assert not brute_isomorphic(t, s)
    assert_one_entry_two_classes(t, s)


def test_a_row_that_maps_every_cell_must_still_be_a_bijection():
    # x*y = 3x + 5y and 5x + 3y over Z_7 are idempotent, and every symbol of
    # both has one code, so sending every symbol to one symbol passes every
    # word and every cell; the tables are not isomorphic
    t = CayleyTable(7, [[(3 * x + 5 * y) % 7 for y in range(7)] for x in range(7)])
    s = CayleyTable(7, [[(5 * x + 3 * y) % 7 for y in range(7)] for x in range(7)])
    assert all(t.rows[x][x] == s.rows[x][x] == x for x in range(7))
    assert not brute_isomorphic(t, s)
    assert_one_entry_two_classes(t, s)


def left_projection(n):
    return CayleyTable(n, [[x] * n for x in range(n)])


@pytest.mark.parametrize(
    "t, generators",
    [
        (left_projection(16), 16),
        (CayleyTable(16, [[5] * 16] * 16), 15),
        (CayleyTable(16, [[x ^ y for y in range(16)] for x in range(16)]), 5),  # the group (Z_2)^4
    ],
    ids=["x*y=x", "constant", "Z2^4"],
)
def test_a_representative_of_many_generators_is_searched_table_by_table(monkeypatch, t, generators):
    assert len(oracle._words(t.cells.tolist())[0]) == generators > oracle._GENERATOR_CAP
    rng = random.Random(generators)
    tables = [t] + [relabel(t, rng.sample(range(16), 16)) for _ in range(50)]
    searches = []
    iso_search = oracle._iso_search
    monkeypatch.setattr(oracle, "_iso_search", lambda *args: searches.append(1) or iso_search(*args))
    start = time.process_time()
    classes = classify(tables)
    assert time.process_time() - start < 0.5
    assert len(searches) == 50
    assert classes == tuple_classify(tables) and [c.members for c in classes] == [51]
    assert assign_to_classes(classes, tables) == [0] * 51


@pytest.mark.parametrize("G, classes", [(Cyclic(Prime(2), 4), 64), (V3, 68)], ids=["Z16", "Z3^2"])
def test_affine_tables_never_take_the_search(monkeypatch, G, classes):
    def refuse(*args):
        raise AssertionError("_iso_search called")

    monkeypatch.setattr(oracle, "_iso_search", refuse)
    stack = all_affine_tables(G)
    found = classify(stack)
    assert len(found) == classes
    assert sorted(set(assign_to_classes(found, stack))) == list(range(classes))
