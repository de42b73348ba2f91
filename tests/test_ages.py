"""Exponent multisets and ages, cross-checked against numeric eigenvalues."""

from fractions import Fraction
from math import gcd

import pytest

from symquot import oracle
from symquot.combinatorics import CycleType, partitions
from symquot.oracle import (
    EigenExponents,
    age,
    cycle_eigen_exponents,
    det_sign,
    is_quasi_reflection,
    nfold,
)
from symquot.sympower import age_closed_form, age_record


def test_identity_exponents():
    e = cycle_eigen_exponents(CycleType((1, 1)))
    assert e.order == 1
    assert e.exponents == (0, 0)


def test_full_cycle_exponents():
    e = cycle_eigen_exponents(CycleType((4,)))
    assert e.order == 4
    assert e.exponents == (0, 1, 2, 3)


def test_three_two_exponents():
    e = cycle_eigen_exponents(CycleType((3, 2)))
    assert e.order == 6
    assert e.exponents == (0, 0, 2, 3, 4)
    assert e.dimension == 5


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", range(1, 8))
def test_exponents_match_numeric_eigendecomposition(n, d):
    for t in partitions(d):
        constructed = nfold(cycle_eigen_exponents(t), n)
        numeric = oracle.numeric_exponents(
            oracle.nfold_matrix(t, n), constructed.order
        )
        assert numeric == constructed.exponents


def test_nfold_identity():
    e = nfold(cycle_eigen_exponents(CycleType((1, 1, 1))), 4)
    assert e.exponents == (0,) * 12


def test_nfold_transposition_two_copies():
    e = nfold(cycle_eigen_exponents(CycleType((2,))), 2)
    assert e.order == 2
    assert e.exponents == (0, 0, 1, 1)


def test_nfold_three_two_three_copies():
    e = nfold(cycle_eigen_exponents(CycleType((3, 2))), 3)
    assert e.exponents == tuple(sorted((0, 0, 2, 3, 4) * 3))


def test_nfold_rejects_zero_copies():
    with pytest.raises(ValueError):
        nfold(cycle_eigen_exponents(CycleType((2,))), 0)


def test_age_identity_is_zero():
    assert age(nfold(cycle_eigen_exponents(CycleType((1, 1, 1, 1))), 3)) == (0, 0)


def test_age_transposition_two_copies():
    e = nfold(cycle_eigen_exponents(CycleType((2, 1, 1))), 2)
    assert age(e) == (2, 1)


def test_age_three_two_three_copies():
    e = nfold(cycle_eigen_exponents(CycleType((3, 2))), 3)
    assert age(e) == (27, Fraction(9, 2))


def test_closed_form_single_cycle():
    for r in range(2, 9):
        for n in range(2, 5):
            s, a = age_closed_form(CycleType((r,)), n)
            assert s == n * r * (r - 1) // 2
            assert s >= r  # canonical with room to spare for a full cycle


def test_closed_form_three_two_example():
    assert age_closed_form(CycleType((3, 2)), 3) == (27, Fraction(9, 2))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 10))
def test_closed_form_equals_multiset_route(n, d):
    for t in partitions(d):
        assert age_closed_form(t, n) == age(nfold(cycle_eigen_exponents(t), n))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(1, 10))
def test_age_equals_simplified_law(n, d):
    # age = n * (d - #parts) / 2, from r_i' * r_i = r
    for t in partitions(d):
        expected = Fraction(n * (d - t.num_parts), 2)
        assert age_closed_form(t, n)[1] == expected
        assert age(nfold(cycle_eigen_exponents(t), n))[1] == expected


@pytest.mark.parametrize("d", range(1, 10))
def test_galois_stability_of_exponent_multisets(d):
    for t in partitions(d):
        e = cycle_eigen_exponents(t)
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
        t.parts: age_closed_form(t, n)[1]
        for t in partitions(d)
        if not t.is_identity()
    }
    assert min(ages.values()) == Fraction(n, 2)
    assert ages[transposition.parts] == Fraction(n, 2)
    assert [p for p, a in ages.items() if a == Fraction(n, 2)] == [transposition.parts]


def test_det_sign_identity():
    assert det_sign(CycleType((1, 1, 1)), 5) == 1


def test_det_sign_transposition():
    t = CycleType((2, 1))
    assert det_sign(t, 2) == 1
    assert det_sign(t, 3) == -1


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("d", range(1, 10))
def test_det_sign_always_positive_for_even_copies(n, d):
    assert all(det_sign(t, n) == 1 for t in partitions(d))


def test_quasi_reflection_detection():
    identity = cycle_eigen_exponents(CycleType((1, 1, 1)))
    assert not is_quasi_reflection(identity)
    transposition = cycle_eigen_exponents(CycleType((2, 1, 1)))
    assert is_quasi_reflection(transposition)  # one copy: one nonzero exponent
    assert not is_quasi_reflection(nfold(transposition, 2))


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
    for t in partitions(d):
        rec = age_record(t, 3)
        assert rec.age == Fraction(rec.s_sum, rec.order)
        assert (rec.age == 0) == t.is_identity()
        assert rec.class_size >= 1
