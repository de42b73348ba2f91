"""The record types: immutable named tuples with field equality and checked construction."""

from fractions import Fraction

import pytest

from symquot.combinatorics import CycleType
from symquot.monomial import MonomialElement, MonomialRep, SingularityVerdict, close_group
from symquot.oracle import EigenExponents, OracleRow
from symquot.plurigenera import KodairaDim, PlurigenusRow, PlurigenusTable
from symquot.sympower import AgeRecord

SWAP = MonomialElement((1, 0), (0, 1))

# one value of every public record type, with its repr
RECORDS = [
    (CycleType((2, 1)), "CycleType(parts=(2, 1))"),
    (SWAP, "MonomialElement(perm=(1, 0), exponents=(0, 1))"),
    (
        MonomialRep(2, 2, (SWAP,)),
        "MonomialRep(dimension=2, root_order=2, generators=(MonomialElement(perm=(1, 0), "
        "exponents=(0, 1)),), flat_elements=None)",
    ),
    (
        SingularityVerdict(2, 2, Fraction(3, 2), "(2)"),
        "SingularityVerdict(index=2, group_order=2, min_age=Fraction(3, 2), witness='(2)')",
    ),
    (
        AgeRecord(CycleType((2,)), 1, 2, 2, Fraction(1), True),
        "AgeRecord(cycle_type=CycleType(parts=(2,)), class_size=1, order=2, s_sum=2, "
        "age=Fraction(1, 1), det_is_plus_one=True)",
    ),
    (KodairaDim(None), "KodairaDim(value=None)"),
    (PlurigenusRow(1, 2, 4, True), "PlurigenusRow(m=1, p_m_x=2, p_m_sigma=4, valid=True)"),
    (PlurigenusTable(2, 3, ()), "PlurigenusTable(n=2, d=3, rows=())"),
    (EigenExponents(3, (2, 0, 1)), "EigenExponents(order=3, exponents=(0, 1, 2))"),
    (
        OracleRow(CycleType((2,)), True),
        "OracleRow(cycle_type=CycleType(parts=(2,)), passed=True, detail='')",
    ),
]
VALUES = [value for value, _ in RECORDS]
IDS = [type(value).__name__ for value in VALUES]


@pytest.mark.parametrize("value, text", RECORDS, ids=IDS)
def test_repr_names_every_field(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_no_attribute_can_be_added(value):
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equality_and_hash_go_by_the_fields(value):
    copy = type(value)(*value)
    assert copy is not value
    assert copy == value and hash(copy) == hash(value)
    assert value._replace() == value


def test_a_changed_field_breaks_equality():
    assert CycleType((2, 1)) != CycleType((3,))
    assert KodairaDim(1) != KodairaDim(2)
    assert OracleRow(CycleType((2,)), True) != OracleRow(CycleType((2,)), False)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CycleType(()), "non-increasing"),
        (lambda: CycleType((1, 2)), "non-increasing"),
        (lambda: CycleType((2, 0)), "non-increasing"),
        (lambda: MonomialRep(0, 2, ()), "dimension must be >= 1"),
        (lambda: MonomialRep(2, 0, ()), "root order must be >= 1"),
        (lambda: MonomialRep(2, 2, (MonomialElement((0, 0), (0, 0)),)), "not a permutation"),
        (lambda: MonomialRep(2, 2, (MonomialElement((1, 0), (0,)),)), "need 2 exponents"),
        (lambda: MonomialRep(2, 2, (MonomialElement((1, 0), (0, 2)),)), "must lie in"),
        (lambda: KodairaDim(-1), "cannot be negative"),
        (lambda: EigenExponents(0, ()), "order must be positive"),
        (lambda: EigenExponents(3, (0, 3)), "must lie in"),
    ],
)
def test_construction_validates(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "value, change",
    [
        (CycleType((2, 1)), {"parts": (1, 2)}),
        (MonomialRep(2, 2, (SWAP,)), {"root_order": 0}),
        (KodairaDim(1), {"value": -1}),
        (EigenExponents(3, (0, 1)), {"order": 1}),
    ],
    ids=["CycleType", "MonomialRep", "KodairaDim", "EigenExponents"],
)
def test_replace_validates_too(value, change):
    with pytest.raises(ValueError):
        value._replace(**change)


def test_eigen_exponents_are_sorted():
    assert EigenExponents(5, [4, 0, 2]).exponents == (0, 2, 4)
    assert EigenExponents(5, (0, 2))._replace(exponents=(3, 1)).exponents == (1, 3)


def test_closed_monomial_rep_is_a_plain_immutable_record():
    closed = close_group(MonomialRep(2, 2, (SWAP,)))
    assert not hasattr(closed, "__dict__")
    with pytest.raises(AttributeError):
        closed.flat_elements = ()
    with pytest.raises(AttributeError):
        closed.order = 4
