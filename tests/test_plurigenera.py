"""Dimension formulas, Kodaira scaling, genus bounds, and growth fits."""

import math
import time
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symquot import (
    InsufficientDataError,
    KodairaDim,
    PointsCapError,
    genus_bound,
    growth_exponent_check,
    invariant_dim_burnside,
    kodaira_scale,
    plurigenus_table,
    sym_dim,
)
from symquot.plurigenera import PLURIGENUS_BITS_CAP, REGIME_GENERAL_TYPE, REGIME_NONNEGATIVE


def monomial_count(p, d):
    """Independent count of degree-d monomials in p variables."""
    return sum(1 for _ in combinations_with_replacement(range(p), d))


def test_sym_dim_frozen_values():
    assert sym_dim(0, 3) == 0
    assert all(sym_dim(1, d) == 1 for d in range(1, 10))
    assert sym_dim(3, 2) == 6


@pytest.mark.parametrize("p", range(0, 7))
@pytest.mark.parametrize("d", range(1, 6))
def test_sym_dim_matches_monomial_enumeration(p, d):
    assert sym_dim(p, d) == monomial_count(p, d)


def test_sym_dim_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_dim(-1, 2)
    with pytest.raises(ValueError):
        sym_dim(2, 0)


def test_burnside_frozen_values():
    assert invariant_dim_burnside(1, 5) == 1
    assert invariant_dim_burnside(3, 2) == 6
    assert invariant_dim_burnside(2, 3) == 4


@pytest.mark.parametrize("p", range(0, 11))
@pytest.mark.parametrize("d", range(1, 11))
def test_burnside_equals_binomial_route(p, d):
    assert invariant_dim_burnside(p, d) == sym_dim(p, d)


@pytest.mark.parametrize("p", range(1, 11))
@pytest.mark.parametrize("d", range(2, 11))
def test_sym_dim_pascal_recurrence(p, d):
    assert sym_dim(p, d) == sym_dim(p - 1, d) + sym_dim(p, d - 1)
    assert sym_dim(p, 1) == p


@pytest.mark.parametrize("d", range(1, 10))
def test_sym_dim_monotonicity(d):
    for p in range(2, 8):
        assert sym_dim(p, d + 1) > sym_dim(p, d)
    for p in (0, 1):
        assert sym_dim(p, d + 1) == sym_dim(p, d)


def test_plurigenus_table_values_and_parity():
    table = plurigenus_table(2, 3, [(1, 2)])
    assert table.rows[0].p_m_sigma == 4
    assert table.rows[0].valid

    table = plurigenus_table(3, 2, [(1, 5)])
    assert table.rows[0].p_m_sigma == 15
    assert not table.rows[0].valid  # m * n = 3 is odd

    table = plurigenus_table(2, 4, [(2, 0)])
    assert table.rows[0].p_m_sigma == 0
    assert table.rows[0].valid


def test_plurigenus_table_validation():
    with pytest.raises(ValueError):
        plurigenus_table(1, 2, [(1, 1)])
    with pytest.raises(ValueError):
        plurigenus_table(2, 0, [(1, 1)])
    with pytest.raises(ValueError):
        plurigenus_table(2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        plurigenus_table(2, 2, [(1, -1)])


def test_plurigenus_table_at_the_bit_cap_prints():
    # min(1000, 8000 - 1) * (8000 + 1000 - 1).bit_length() = 1000 * 14
    assert 1000 * (8999).bit_length() == PLURIGENUS_BITS_CAP
    row = plurigenus_table(2, 1000, [(2, 8000)]).rows[0]
    assert row.p_m_sigma == math.comb(8999, 1000)
    assert len(str(row.p_m_sigma)) < 4300


@pytest.mark.parametrize(
    "d,p_m", [(1001, 8000), (1000, 15385), (10000, 10000), (200000, 2000000)]
)
def test_plurigenus_table_past_the_bit_cap_is_rejected_at_once(d, p_m):
    started = time.perf_counter()
    with pytest.raises(PointsCapError) as err:
        plurigenus_table(2, d, [(1, 2), (2, p_m)])
    assert time.perf_counter() - started < 0.5
    assert err.value.cap == PLURIGENUS_BITS_CAP
    assert f"--points {d}" in str(err.value) and f"--pm 2={p_m}" in str(err.value)


def test_kodaira_scale():
    assert kodaira_scale(KodairaDim.minus_infinity(), 7).is_minus_infinity
    assert kodaira_scale(KodairaDim(0), 5) == KodairaDim(0)
    assert kodaira_scale(KodairaDim(2), 3) == KodairaDim(6)


def test_kodaira_dim_validation():
    with pytest.raises(ValueError):
        KodairaDim(-1)
    with pytest.raises(ValueError):
        KodairaDim.finite(3, ambient_dim=2)
    assert str(KodairaDim.minus_infinity()) == "-inf"
    assert str(KodairaDim(4)) == "4"


def test_genus_bound_values():
    assert genus_bound(REGIME_NONNEGATIVE, 5) == 5
    assert genus_bound(REGIME_GENERAL_TYPE, 5) == 6
    assert genus_bound(REGIME_NONNEGATIVE, 1) == 1


def test_genus_bound_rejects_unknown_regime():
    with pytest.raises(ValueError):
        genus_bound("ruled", 3)
    with pytest.raises(ValueError):
        genus_bound(REGIME_NONNEGATIVE, 0)


def test_growth_quadratic_input_degree_two_power():
    rows = [(m, m * m) for m in range(2, 41, 2)]
    slope = growth_exponent_check(rows, 2)
    assert abs(slope - 4) < 0.2


def test_growth_constant_input_is_flat():
    rows = [(m, 1) for m in range(2, 61, 2)]
    slope = growth_exponent_check(rows, 5)
    assert abs(slope) < 0.05


def test_growth_linear_input_degree_three_power():
    rows = [(m, m) for m in range(2, 61, 2)]
    slope = growth_exponent_check(rows, 3)
    assert abs(slope - 3) < 0.2


def test_growth_requires_three_rows():
    with pytest.raises(InsufficientDataError):
        growth_exponent_check([(2, 4), (4, 16)], 2)


def test_growth_parity_filter():
    # with odd n, odd-m rows are not asserted by the parity condition
    rows = [(m, m) for m in range(1, 8, 2)]  # only odd m
    with pytest.raises(InsufficientDataError):
        growth_exponent_check(rows, 2, n=3)
    even_rows = [(m, m) for m in range(2, 61, 2)]
    assert growth_exponent_check(even_rows, 2, n=3) == growth_exponent_check(
        even_rows, 2
    )


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.integers(1, 500), st.integers(1, 10**12), min_size=3, max_size=40
    )
)
def test_growth_slope_matches_numpy_polyfit(table):
    # d = 1 keeps P_m unchanged; the fit runs on the large-m half of the rows
    rows = sorted(table.items())
    tail = rows[-max(3, len(rows) // 2):]
    xs = [math.log(m) for m, _ in tail]
    ys = [math.log(p) for _, p in tail]
    expected = np.polyfit(xs, ys, 1)[0]
    assert abs(growth_exponent_check(rows, 1) - expected) < 1e-9


def test_growth_requires_distinct_m():
    with pytest.raises(InsufficientDataError):
        growth_exponent_check([(4, 5), (4, 5), (4, 5)], 2)


def test_genus_bound_at_and_past_the_bit_cap():
    at_cap = 2**PLURIGENUS_BITS_CAP - 1
    assert genus_bound(REGIME_NONNEGATIVE, at_cap) == at_cap
    assert genus_bound(REGIME_GENERAL_TYPE, at_cap - 1) == at_cap
    for regime, d in ((REGIME_NONNEGATIVE, at_cap + 1), (REGIME_GENERAL_TYPE, at_cap)):
        with pytest.raises(PointsCapError) as err:
            genus_bound(regime, d)
        assert err.value.cap == PLURIGENUS_BITS_CAP
        assert "--points" in str(err.value)


def test_kodaira_scale_at_and_past_the_bit_cap():
    at_cap = 2**PLURIGENUS_BITS_CAP - 1  # 3 * 5 * 17 * ... is odd, so 3 divides it
    assert at_cap % 3 == 0
    assert kodaira_scale(KodairaDim(3), at_cap // 3) == KodairaDim(at_cap)
    with pytest.raises(PointsCapError) as err:
        kodaira_scale(KodairaDim(2), 2 ** (PLURIGENUS_BITS_CAP - 1))
    assert err.value.cap == PLURIGENUS_BITS_CAP
    assert "--points" in str(err.value) and "--kappa" in str(err.value)
    assert kodaira_scale(KodairaDim.minus_infinity(), 2**PLURIGENUS_BITS_CAP).is_minus_infinity
