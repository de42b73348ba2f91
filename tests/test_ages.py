"""Exponent multisets and ages, cross-checked against numeric eigenvalues."""

from fractions import Fraction
from math import gcd

import pytest

from symquot import oracle
from symquot.combinatorics import CycleType, partitions
from symquot.oracle import (
    EigenExponents,
    age,
    class_element,
    det_turn,
    element_eigen_exponents,
    is_quasi_reflection,
)
from symquot.sympower import class_table


def class_exponents(t, n=1):
    """Exact exponents of the canonical element of type ``t`` on n blocks."""
    return element_eigen_exponents(class_element(t, n), 1)


def class_rows(n, d):
    """The class-table rows of the model, keyed by cycle-type parts."""
    return {r.cycle_type.parts: r for r in class_table(n, d)}


def test_identity_exponents():
    e = class_exponents(CycleType((1, 1)))
    assert e.order == 1
    assert e.exponents == (0, 0)


def test_full_cycle_exponents():
    e = class_exponents(CycleType((4,)))
    assert e.order == 4
    assert e.exponents == (0, 1, 2, 3)


def test_three_two_exponents():
    e = class_exponents(CycleType((3, 2)))
    assert e.order == 6
    assert e.exponents == (0, 0, 2, 3, 4)
    assert e.dimension == 5


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", range(1, 8))
def test_exponents_match_numeric_eigendecomposition(n, d):
    for t in partitions(d):
        g = class_element(t, n)
        constructed = element_eigen_exponents(g, 1)
        numeric = oracle.numeric_exponents(oracle.monomial_matrix(g, 1), constructed.order)
        assert numeric == constructed.exponents


def test_nfold_identity():
    e = class_exponents(CycleType((1, 1, 1)), 4)
    assert e.exponents == (0,) * 12


def test_nfold_transposition_two_copies():
    e = class_exponents(CycleType((2,)), 2)
    assert e.order == 2
    assert e.exponents == (0, 0, 1, 1)


def test_nfold_three_two_three_copies():
    e = class_exponents(CycleType((3, 2)), 3)
    assert e.exponents == tuple(sorted((0, 0, 2, 3, 4) * 3))


def test_class_element_repeats_the_canonical_permutation_on_each_block():
    g = class_element(CycleType((2, 1)), 2)
    assert g.perm == (1, 0, 2, 4, 3, 5)
    assert g.exponents == (0,) * 6


def test_nfold_rejects_zero_copies():
    with pytest.raises(ValueError):
        class_element(CycleType((2,)), 0)


def test_age_identity_is_zero():
    assert age(class_exponents(CycleType((1, 1, 1, 1)), 3)) == (0, 0)


def test_age_transposition_two_copies():
    e = class_exponents(CycleType((2, 1, 1)), 2)
    assert age(e) == (2, 1)


def test_age_three_two_three_copies():
    e = class_exponents(CycleType((3, 2)), 3)
    assert age(e) == (27, Fraction(9, 2))


def test_closed_form_single_cycle():
    for r in range(2, 9):
        for n in range(2, 5):
            s = class_rows(n, r)[(r,)].s_sum
            assert s == n * r * (r - 1) // 2
            assert s >= r  # canonical with room to spare for a full cycle


def test_closed_form_three_two_example():
    row = class_rows(3, 5)[(3, 2)]
    assert (row.s_sum, row.age) == (27, Fraction(9, 2))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 10))
def test_closed_form_equals_multiset_route(n, d):
    for row in class_table(n, d):
        multiset = class_exponents(row.cycle_type, n)
        assert (row.s_sum, row.age) == age(multiset)
        assert row.order == multiset.order


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 10))
def test_age_equals_simplified_law(n, d):
    # age = n * (d - #parts) / 2, from r_i' * r_i = r
    for row in class_table(n, d):
        t = row.cycle_type
        expected = Fraction(n * (d - t.num_parts), 2)
        assert row.age == expected
        assert age(class_exponents(t, n))[1] == expected


@pytest.mark.parametrize("d", range(1, 10))
def test_galois_stability_of_exponent_multisets(d):
    for t in partitions(d):
        e = class_exponents(t)
        for k in range(1, e.order):
            if gcd(k, e.order) != 1:
                continue
            twisted = tuple(sorted(k * a % e.order for a in e.exponents))
            assert twisted == e.exponents


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(2, 10))
def test_minimal_age_is_half_n_at_transposition(n, d):
    transposition = CycleType((2,) + (1,) * (d - 2))
    ages = {
        parts: row.age for parts, row in class_rows(n, d).items() if not row.cycle_type.is_identity()
    }
    assert min(ages.values()) == Fraction(n, 2)
    assert ages[transposition.parts] == Fraction(n, 2)
    assert [p for p, a in ages.items() if a == Fraction(n, 2)] == [transposition.parts]


def test_det_sign_identity():
    assert det_turn(class_element(CycleType((1, 1, 1)), 5), 1) == 0


def test_det_sign_transposition():
    t = CycleType((2, 1))
    assert det_turn(class_element(t, 2), 1) == 0
    assert det_turn(class_element(t, 3), 1) == Fraction(1, 2)  # det = -1


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("d", range(1, 10))
def test_det_sign_always_positive_for_even_copies(n, d):
    assert all(det_turn(class_element(t, n), 1) == 0 for t in partitions(d))


def test_quasi_reflection_detection():
    assert not is_quasi_reflection(class_exponents(CycleType((1, 1, 1))))
    transposition = CycleType((2, 1, 1))
    assert is_quasi_reflection(class_exponents(transposition))  # one copy: one nonzero exponent
    assert not is_quasi_reflection(class_exponents(transposition, 2))


def test_eigen_exponents_validation():
    with pytest.raises(ValueError):
        EigenExponents(0, (0,))
    with pytest.raises(ValueError):
        EigenExponents(3, (0, 3))
    with pytest.raises(ValueError):
        EigenExponents(3, (-1,))


def test_eigen_exponents_normalizes_order():
    assert EigenExponents(4, (3, 0, 2)).exponents == (0, 2, 3)


@pytest.mark.parametrize("d", range(1, 7))
def test_age_record_consistency(d):
    for rec in class_table(3, d):
        assert rec.age == Fraction(rec.s_sum, rec.order)
        assert (rec.age == 0) == rec.cycle_type.is_identity()
        assert rec.class_size >= 1
