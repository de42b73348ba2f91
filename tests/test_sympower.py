"""The closed-form engine for the symmetric-power model."""

from fractions import Fraction
from math import factorial

import pytest

from symquot import (
    MatrixTooLargeError,
    PointsCapError,
    UnsupportedDimensionError,
    close_group,
    verdict,
)
from symquot import oracle, sympower
from symquot.combinatorics import CycleType
from symquot.oracle import bruteforce_check, materialize_rep
from symquot.sympower import TABLE_POINTS_CAP, VERDICT_POINTS_CAP, class_table


def test_verdict_even_dim_is_gorenstein():
    v = verdict(2, 5)
    assert v.canonical and not v.terminal
    assert v.gorenstein and v.index == 1
    assert v.min_age == 1
    assert v.witness == "(2,1,1,1)"
    assert v.group_order == 120


def test_verdict_odd_dim_has_index_two():
    v = verdict(3, 2)
    assert v.canonical and v.terminal
    assert not v.gorenstein and v.index == 2
    assert v.min_age == Fraction(3, 2)


def test_verdict_single_point_is_smooth():
    v = verdict(4, 1)
    assert v.canonical and v.terminal and v.gorenstein
    assert v.index == 1
    assert v.group_order == 1
    assert v.min_age is None


@pytest.mark.parametrize("n", [1, 0, -2])
def test_verdict_rejects_small_dim_citing_quasi_reflections(n):
    with pytest.raises(UnsupportedDimensionError) as err:
        verdict(n, 3)
    assert "quasi-reflection" in str(err.value)


def test_verdict_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        verdict(2, 0)


def test_verdict_at_its_cap_is_closed_form():
    v = verdict(3, VERDICT_POINTS_CAP)
    assert v.group_order == factorial(VERDICT_POINTS_CAP)
    assert v.min_age == Fraction(3, 2) and v.index == 2
    assert v.witness == str(CycleType((2,) + (1,) * (VERDICT_POINTS_CAP - 2)))


def test_verdict_past_its_cap_is_domain_error():
    with pytest.raises(PointsCapError) as err:
        verdict(2, VERDICT_POINTS_CAP + 1)
    assert err.value.cap == VERDICT_POINTS_CAP
    assert err.value.code == "too-many-points"


def test_class_table_admits_its_cap(monkeypatch):
    # p(50) = 204226 rows take seconds, so count the request, not the rows
    seen = []
    monkeypatch.setattr(sympower, "conjugacy_classes", lambda d: seen.append(d) or iter(()))
    assert class_table(2, TABLE_POINTS_CAP) == []
    assert seen == [TABLE_POINTS_CAP] and TABLE_POINTS_CAP >= 50


def test_class_table_past_its_cap_is_domain_error(monkeypatch):
    monkeypatch.setattr(sympower, "conjugacy_classes", lambda d: pytest.fail("scanned"))
    with pytest.raises(PointsCapError) as err:
        class_table(2, TABLE_POINTS_CAP + 1)
    assert err.value.cap == TABLE_POINTS_CAP


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("d", range(2, 10))
def test_index_parity_law(n, d):
    v = verdict(n, d)
    assert v.canonical
    assert v.index == (1 if n % 2 == 0 else 2)
    assert v.gorenstein == (n % 2 == 0)
    assert v.terminal == (n >= 3)
    assert v.min_age == Fraction(n, 2)


def test_class_table_assembles_class_data():
    records = class_table(2, 4)
    assert [r.cycle_type.parts for r in records] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
    ]
    assert sum(r.class_size for r in records) == 24
    assert [r.order for r in records] == [4, 3, 2, 2, 1]


def test_class_table_two_points():
    records = class_table(2, 2)
    assert [r.cycle_type.parts for r in records] == [(2,), (1, 1)]
    assert [r.age for r in records] == [1, 0]
    assert [r.class_size for r in records] == [1, 1]


def test_class_table_three_points_three_copies():
    records = {r.cycle_type.parts: r for r in class_table(3, 3)}
    assert records[(3,)].age == 3
    assert records[(3,)].s_sum == 9
    assert records[(3,)].order == 3
    assert records[(2, 1)].age == Fraction(3, 2)


def test_class_table_two_two_class():
    records = {r.cycle_type.parts: r for r in class_table(2, 4)}
    assert records[(2, 2)].age == 2
    assert records[(2, 2)].order == 2


@pytest.mark.parametrize("d", range(1, 10))
def test_class_table_sizes_sum_to_group_order(d):
    records = class_table(2, d)
    assert sum(r.class_size for r in records) == factorial(d)


@pytest.mark.parametrize("n", range(2, 7))
def test_class_table_det_column_matches_the_sign_reference(n):
    # the engine reads det from the age; the reference is sign(perm)^n, from the element
    for d in range(1, 10):
        for rec in class_table(n, d):
            g = oracle.class_element(rec.cycle_type, n)
            assert rec.det_is_plus_one == (oracle.det_turn(g, 1) == 0)


def test_materialized_group_has_full_order():
    assert len(close_group(materialize_rep(2, 4)).flat_elements) == 24
    assert len(close_group(materialize_rep(3, 3)).flat_elements) == 6
    assert len(close_group(materialize_rep(2, 1)).flat_elements) == 1


def test_materialized_group_is_generated_by_a_transposition_and_a_d_cycle():
    assert materialize_rep(3, 1) == (3, 1, (), None)
    assert materialize_rep(2, 2).generators == (oracle.class_element(CycleType((2,)), 2),)
    assert materialize_rep(2, 4).generators == tuple(
        oracle.class_element(CycleType(t), 2) for t in [(2, 1, 1), (4,)]
    )
    for n, d in [(0, 3), (2, 0)]:
        with pytest.raises(ValueError):
            materialize_rep(n, d)


def test_bruteforce_check_small_cases_pass():
    assert all(row.passed for row in bruteforce_check(2, 3))
    assert all(row.passed for row in bruteforce_check(3, 5))
    rows = bruteforce_check(2, 1)
    assert rows == (oracle.OracleRow(CycleType((1,)), True),)


def test_bruteforce_check_rejects_oversized_matrix():
    with pytest.raises(MatrixTooLargeError):
        bruteforce_check(8, 9)


def test_bruteforce_check_reports_multiset_discrepancy(monkeypatch):
    def wrong_exponents(matrix, order):
        return (0,) * matrix.shape[0]

    monkeypatch.setattr(oracle, "numeric_exponents", wrong_exponents)
    failures = [row for row in bruteforce_check(2, 3) if not row.passed]
    failed = {row.cycle_type.parts for row in failures}
    assert failed == {(3,), (2, 1)}  # identity class still agrees
    assert any("multisets differ" in row.detail for row in failures)


def test_bruteforce_check_reports_a_wrong_class_table_row(monkeypatch):
    def wrong_age(n, d):
        rows = class_table(n, d)
        return [rows[0]._replace(age=rows[0].age + 1), *rows[1:]]

    monkeypatch.setattr(oracle, "class_table", wrong_age)
    failures = [row for row in bruteforce_check(2, 3) if not row.passed]
    assert [row.cycle_type.parts for row in failures] == [(3,)]
    assert "closed form disagrees" in failures[0].detail


def test_bruteforce_check_reports_recovery_failure(monkeypatch):
    def broken(matrix, order):
        raise oracle.RecoveryError("synthetic failure")

    monkeypatch.setattr(oracle, "numeric_exponents", broken)
    rows = bruteforce_check(2, 2)
    assert rows and not any(row.passed for row in rows)
    assert all("recovery failed" in row.detail for row in rows)


def test_recovery_error_on_non_root_of_unity_matrix():
    import numpy as np

    angle = 0.3
    rotation = np.array(
        [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    )
    with pytest.raises(oracle.RecoveryError):
        oracle.numeric_exponents(rotation, 1)
