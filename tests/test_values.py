"""The immutable value classes: their repr, immutability, equality, hashing, pickling and checks."""

import pickle
import re

import numpy as np
import pytest

from medialq.enumeration import EnumerationReport, Polynomial, RepresentativeTriple, enumerate_forms
from medialq.fp import Prime
from medialq.gl2 import Mat2, Unit
from medialq.groups import CosetList, Cyclic, ElemAbelianRank2, quotient_cosets
from medialq.oracle import Fingerprint, IsoClass
from medialq.quasigroup import AffineForm, CayleyTable

Z9 = Cyclic(3, 2)
V3 = ElemAbelianRank2(3)
FORM = AffineForm(Z9, Unit(2, 9), Unit(4, 9), 0)
TABLE = CayleyTable(2, [[0, 1], [1, 0]])


# One instance of every value class, each with the name of one of its fields.
VALUES = [
    (Z9, "p"),
    (V3, "p"),
    (Mat2(1, 2, 0, 1, 3), "m00"),
    (Unit(2, 9), "value"),
    (FORM, "phi"),
    (TABLE, "cells"),
    (quotient_cosets(Z9, 3), "subgroup_order"),
    (RepresentativeTriple(Unit(2, 9), Unit(4, 9), 0, "cyclic"), "case_tag"),
    (enumerate_forms(Cyclic(2)), "tallies"),
    (Polynomial((1, 2)), "coeffs"),
    (Fingerprint(2, (1, 1)), "order"),
    (IsoClass(TABLE, 1, Fingerprint(2, (1, 1))), "members"),
]


@pytest.mark.parametrize(
    "value, shown",
    [
        (Z9, "Cyclic(p=Prime(3), k=2)"),
        (V3, "ElemAbelianRank2(p=Prime(3))"),
        (Mat2(1, 2, 0, 1, 3), "Mat2(m00=1, m01=2, m10=0, m11=1, p=Prime(3))"),
        (Unit(2, 9), "Unit(value=2, modulus=9)"),
        (FORM, "AffineForm(group=Cyclic(p=Prime(3), k=2), phi=Unit(value=2, modulus=9), psi=Unit(value=4, modulus=9), c=0)"),
        (Fingerprint(2, (1, 1)), "Fingerprint(order=2, diagonal_cycle_type=(1, 1))"),
        (Polynomial((1,)), "Polynomial(coeffs=(1,))"),
    ],
)
def test_repr_shows_the_class_and_every_field(value, shown):
    assert repr(value) == shown


@pytest.mark.parametrize("value, field", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_fields_can_be_neither_assigned_nor_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.new_attribute = 1
    assert getattr(value, field) is before


def test_groups_matrices_and_units_are_equal_and_hash_equal_by_fields():
    pairs = [
        (Cyclic(3, 2), Cyclic(Prime(3), np.int64(2))),
        (ElemAbelianRank2(3), ElemAbelianRank2(Prime(3))),
        (Mat2(1, 2, 0, 1, 3), Mat2(4, -1, 3, np.int64(1), Prime(3))),
        (Unit(2, 9), Unit(11, np.int32(9))),
        (FORM, AffineForm(Cyclic(3, 2), Unit(2, 9), Unit(4, 9), 0)),
        (Fingerprint(2, (1, 1)), Fingerprint(2, (1, 1))),
        (Polynomial((1, 2)), Polynomial((1, 2))),
    ]
    for a, b in pairs:
        assert a == b and a is not b and hash(a) == hash(b)
        assert not a != b
    assert Cyclic(3, 2) != Cyclic(3, 1) and Cyclic(3) != ElemAbelianRank2(3)
    assert Mat2(1, 2, 0, 1, 3) != Mat2(1, 2, 0, 1, 5) and Unit(2, 9) != Unit(2, 27)
    # another class is never equal, whatever its fields
    assert Cyclic(3, 2) != (Prime(3), 2) and Unit(2, 9) != Fingerprint(2, 9)


def test_coset_lists_and_reports_compare_by_identity_and_tables_by_cells():
    cosets = quotient_cosets(Z9, 3)
    twin = CosetList(cosets.representatives, cosets.subgroup_order, cosets.rep_index, cosets.coset_of)
    assert cosets == cosets and cosets != twin and hash(cosets) == object.__hash__(cosets)
    assert len({cosets, twin}) == 2
    report = enumerate_forms(Cyclic(2))
    again = EnumerationReport(report.group, report.triples)
    assert report == report and report != again and len({report, again}) == 2
    assert again.tallies == report.tallies == {"cyclic": 1}
    same = CayleyTable(2, np.array([[0, 1], [1, 0]], dtype=np.int64))
    assert TABLE == same and TABLE is not same and hash(TABLE) == hash(same)
    assert TABLE != CayleyTable(2, [[1, 0], [0, 1]])


@pytest.mark.parametrize("value, field", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_pickle_round_trips(value, field):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy is not value
    assert repr(copy) == repr(value)
    if isinstance(value, (CosetList, EnumerationReport)):  # identity: a copy is another list or report
        assert copy != value
    elif isinstance(value, IsoClass):  # its member is a table, equal by cells
        assert copy.canonical_member == value.canonical_member and copy.members == value.members
    else:
        assert copy == value and hash(copy) == hash(value)
    with pytest.raises(AttributeError):
        setattr(copy, field, None)


@pytest.mark.parametrize(
    "n, cells, message",
    [
        (0, [], "table shape does not match its order"),
        (2, [[0, 1]], "table shape does not match its order"),
        (2, [[0, 1], [1]], "table entries must be indices in [0, n)"),
        (2, [[0, 1], [1, 2]], "table entries must be indices in [0, n)"),
        (2, [[0, -1], [1, 0]], "table entries must be indices in [0, n)"),
        (2, [[0.0, 1.0], [1.0, 0.0]], "table entries must be indices in [0, n)"),
        (2, [[0, 1, 0], [1, 0, 1]], "table entries must be indices in [0, n)"),
    ],
)
def test_a_table_checks_its_shape_and_symbols(n, cells, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CayleyTable(n, cells)


def test_a_table_stores_read_only_cells_of_the_least_dtype():
    t = CayleyTable(2, [[0, 1], [1, 0]])
    assert t.cells.dtype == np.uint8 and not t.cells.flags.writeable
    assert t.rows == ((0, 1), (1, 0)) and t.rows is t.rows
    assert CayleyTable(300, np.zeros((300, 300), dtype=np.int64)).cells.dtype == np.uint16


def test_a_matrix_reduces_its_entries_and_checks_them_in_order():
    M = Mat2(-1, 5, np.int8(3), 7, np.int64(3))
    assert (M.m00, M.m01, M.m10, M.m11) == (2, 2, 0, 1) and type(M.p) is Prime
    assert all(type(x) is int for x in M.entries)
    with pytest.raises(ValueError, match="^4 is not a prime$"):
        Mat2(1.5, 0, 0, 1, 4)  # p is checked before any entry
    with pytest.raises(ValueError, match=r"^1\.5 is not an integer$"):
        Mat2(1, 1.5, "x", 1, 3)  # then the entries, first to last
