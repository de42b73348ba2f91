"""Group closure and the verdict engine on explicit monomial groups."""

import sys
import threading
from fractions import Fraction
from math import factorial, lcm

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from symquot import (
    GroupTooLargeError,
    MatrixTooLargeError,
    QuasiReflectionError,
    analyze,
    close_group,
    monomial,
    rep_from_dict,
)
from symquot.combinatorics import conjugacy_classes
from symquot.monomial import (
    DIMENSION_CAP,
    ROOT_ORDER_BITS_CAP,
    MonomialElement,
    MonomialRep,
    SingularityVerdict,
    _cycle_sums,
    _least_possible_key,
    _row_table,
    element_age,
)
from symquot.oracle import (
    EigenExponents,
    age,
    analyze_reference,
    class_element,
    close_group_reference,
    copies_rep,
    decode_closure,
    det_turn,
    element_eigen_exponents,
    identity,
    is_quasi_reflection,
    materialize_rep,
    monomial_matrix,
    multiply,
    numeric_exponents,
    orbit_bound_section,
    order_section,
    scan_outcome,
    terminal_lemma,
    terminal_lemma_sweep,
)


def diag_rep(root_order, exps):
    gen = MonomialElement(tuple(range(len(exps))), tuple(exps))
    return MonomialRep(dimension=len(exps), root_order=root_order, generators=(gen,))


def zeta_swap_rep(m):
    # e_1 -> zeta_m e_2, e_2 -> e_1; the square is zeta_m times the identity
    gen = MonomialElement((1, 0), (1, 0))
    return MonomialRep(dimension=2, root_order=m, generators=(gen,))


def zeta4_swap_rep():
    return zeta_swap_rep(4)


def test_closure_of_no_generators_is_trivial():
    closed = close_group(MonomialRep(dimension=3, root_order=1, generators=()))
    assert decode_closure(closed) == (identity(closed.dimension),)


def test_closure_of_diagonal_involution():
    closed = close_group(diag_rep(2, (1, 1, 1)))
    assert len(closed.flat_elements) == 2


def test_closure_of_two_transpositions_is_s3():
    gens = (
        MonomialElement((1, 0, 2), (0, 0, 0)),
        MonomialElement((0, 2, 1), (0, 0, 0)),
    )
    closed = close_group(MonomialRep(dimension=3, root_order=1, generators=gens))
    assert len(closed.flat_elements) == 6
    assert decode_closure(closed)[0] == identity(closed.dimension)


def test_closure_order_is_deterministic():
    rep = materialize_rep(2, 3)
    assert close_group(rep).flat_elements == close_group(rep).flat_elements


def test_closure_order_is_powers_then_cosets():
    # the witness reported by analyze is the first least-age element in this order.
    # s = the block swap and d = diag(-1, -1, 1, 1) both have order 2, so they are
    # taken in input order: 1 and s, then H = {1, s} and its coset H d = {d, s d}.
    # The representative d gives d s, a new coset {d s, s d s}, and d d = 1; the
    # representative d s gives d s s = d, known, and d s d, the last coset {d s d, s d s d}.
    closed = close_group(wreath_rep(2))
    assert describe_all(decode_closure(closed)) == [
        "perm[1,2,3,4] exp[0,0,0,0]",  # 1
        "perm[3,4,1,2] exp[0,0,0,0]",  # s
        "perm[1,2,3,4] exp[1,1,0,0]",  # d
        "perm[3,4,1,2] exp[1,1,0,0]",  # s d
        "perm[3,4,1,2] exp[0,0,1,1]",  # d s
        "perm[1,2,3,4] exp[0,0,1,1]",  # s d s
        "perm[3,4,1,2] exp[1,1,1,1]",  # d s d
        "perm[1,2,3,4] exp[1,1,1,1]",  # s d s d
    ]


def test_closure_takes_the_larger_order_generator_first():
    # on C^2 over m = 3: the swap s (order 2) is given before d = diag(1, 2) (order 3),
    # but d is taken first: 1, d, d^2, then the coset {s, d s, d^2 s}, which holds s d
    swap = MonomialElement((1, 0), (0, 0))
    diag = MonomialElement((0, 1), (1, 2))
    closed = close_group(MonomialRep(2, 3, (swap, diag)))
    assert describe_all(decode_closure(closed)) == [
        "perm[1,2] exp[0,0]",
        "perm[1,2] exp[1,2]",  # d
        "perm[1,2] exp[2,1]",  # d^2
        "perm[2,1] exp[0,0]",  # s
        "perm[2,1] exp[2,1]",  # d s: e_1 -> e_2 -> zeta^2 e_2
        "perm[2,1] exp[1,2]",  # d^2 s
    ]
    assert closed.flat_elements == close_group(MonomialRep(2, 3, (diag, swap))).flat_elements


def test_closure_keeps_input_order_on_a_tie():
    # diag(1, 0) and diag(0, 1) over m = 2 both have order 2: the first given comes first
    a, b = MonomialElement((0, 1), (1, 0)), MonomialElement((0, 1), (0, 1))
    assert describe_all(decode_closure(close_group(MonomialRep(2, 2, (a, b))))) == [
        "perm[1,2] exp[0,0]", "perm[1,2] exp[1,0]", "perm[1,2] exp[0,1]", "perm[1,2] exp[1,1]",
    ]
    assert describe_all(decode_closure(close_group(MonomialRep(2, 2, (b, a))))) == [
        "perm[1,2] exp[0,0]", "perm[1,2] exp[0,1]", "perm[1,2] exp[1,0]", "perm[1,2] exp[1,1]",
    ]


@pytest.mark.parametrize(
    "make_rep",
    [lambda: wreath_rep(2), lambda: sl_rep(4), lambda: wreath_rep(65),
     lambda: materialize_rep(2, 3)],
    ids=["wreath-2", "sl-4", "wreath-65-tuples", "sym-2-3"],
)
def test_closure_skips_an_appended_identity_generator(make_rep):
    # the identity has order 1, so it comes last, and it is in the group at its turn
    rep = make_rep()
    with_identity = with_generators(rep, rep.generators + (identity(rep.dimension),))
    assert close_group(with_identity).flat_elements == close_group(rep).flat_elements


def test_closure_cap_raises():
    rep = materialize_rep(1, 4)  # S_4, order 24
    with pytest.raises(GroupTooLargeError) as err:
        close_group(rep, cap=10)
    assert err.value.cap == 10
    assert "10" in str(err.value)


def test_closure_exactly_at_cap_is_fine():
    closed = close_group(materialize_rep(1, 3), cap=6)
    assert len(closed.flat_elements) == 6


def test_closure_cap_env_override(monkeypatch):
    monkeypatch.setenv("QC_CLOSURE_CAP", "5")
    with pytest.raises(GroupTooLargeError):
        close_group(materialize_rep(1, 3))


def test_default_cap_stops_s8():
    rep = materialize_rep(1, 8)  # 40320 elements, over the default cap
    with pytest.raises(GroupTooLargeError) as err:
        close_group(rep)
    assert err.value.cap == 20000


def test_element_exponents_identity():
    rep = diag_rep(2, (0, 0, 0))
    e = element_eigen_exponents(identity(rep.dimension), 2)
    assert e.order == 1
    assert e.exponents == (0, 0, 0)


def test_element_exponents_diagonal_involution():
    e = element_eigen_exponents(MonomialElement((0, 1), (1, 1)), 2)
    assert e.order == 2
    assert e.exponents == (1, 1)


def test_element_exponents_three_cycle():
    e = element_eigen_exponents(MonomialElement((1, 2, 0), (0, 0, 0)), 1)
    assert e.order == 3
    assert e.exponents == (0, 1, 2)


def test_element_exponents_zeta4_swap():
    g = zeta4_swap_rep().generators[0]
    e = element_eigen_exponents(g, 4)
    assert e.order == 8
    assert e.exponents == (1, 5)
    # numeric cross-check on the explicit complex matrix
    mat = np.array([[0, 1], [1j, 0]])
    np.testing.assert_allclose(monomial_matrix(g, 4), mat, atol=1e-12)
    eigenvalues = np.linalg.eigvals(mat)
    recovered = sorted(
        round(((np.angle(lam) / (2 * np.pi)) % 1.0) * 8) % 8 for lam in eigenvalues
    )
    assert tuple(recovered) == e.exponents


@pytest.mark.parametrize("d", range(1, 7))
def test_element_exponents_match_cycle_construction(d):
    # a cycle of length l has the l-th roots of unity, written at the order lcm(parts)
    for t, _, _ in conjugacy_classes(d):
        r = lcm(*t.parts)
        per_cycle = [j * (r // part) for part in t.parts for j in range(part)]
        g = class_element(t, 1)
        assert element_eigen_exponents(g, 1) == EigenExponents(r, per_cycle)
        assert numeric_exponents(monomial_matrix(g, 1), r) == tuple(sorted(per_cycle))


def test_analyze_trivial_group():
    v = analyze(close_group(MonomialRep(dimension=4, root_order=1, generators=())))
    assert v.canonical and v.terminal and v.gorenstein
    assert v.index == 1
    assert v.group_order == 1
    assert v.min_age is None
    assert v.witness is None


def test_analyze_half_1_1_1():
    v = analyze(close_group(diag_rep(2, (1, 1, 1))))
    assert v.canonical and v.terminal
    assert not v.gorenstein
    assert v.index == 2
    assert v.min_age == Fraction(3, 2)


def test_analyze_half_1_1():
    v = analyze(close_group(diag_rep(2, (1, 1))))
    assert v.canonical and not v.terminal
    assert v.min_age == 1
    # the determinant character is trivial here, so the quotient is Gorenstein
    assert v.gorenstein and v.index == 1


def test_analyze_s2_on_two_blocks():
    v = analyze(close_group(materialize_rep(2, 2)))
    assert v.canonical and not v.terminal
    assert v.gorenstein and v.index == 1
    assert v.min_age == 1


def test_analyze_zeta4_swap_is_not_canonical():
    v = analyze(close_group(zeta4_swap_rep()))
    assert not v.canonical and not v.terminal
    # the square diag(zeta_4, zeta_4) has age 1/2, below the generator's 3/4
    assert v.min_age == Fraction(1, 2)
    assert v.witness == "perm[1,2] exp[1,1]"
    assert v.group_order == 8
    assert v.index == 4  # det character has order 4: det(generator) = -zeta_4


def test_analyze_rejects_quasi_reflections():
    rep = close_group(materialize_rep(1, 2))  # transposition on C^2
    with pytest.raises(QuasiReflectionError) as err:
        analyze(rep)
    assert err.value.elements == ("perm[2,1] exp[0,0]",)


def test_analyze_requires_closed_group():
    with pytest.raises(ValueError):
        analyze(diag_rep(2, (1, 1)))


def test_rejects_dimension_zero():
    with pytest.raises(ValueError):
        MonomialRep(dimension=0, root_order=2, generators=())


@pytest.mark.parametrize(
    "make_rep",
    [
        lambda: materialize_rep(2, 3),
        lambda: diag_rep(2, (1, 1, 1)),
        lambda: diag_rep(6, (1, 5)),
        lambda: zeta4_swap_rep(),
    ],
)
def test_index_divides_group_exponent(make_rep):
    closed = close_group(make_rep())
    v = analyze(closed)
    exponent = lcm(
        *(element_eigen_exponents(g, closed.root_order).order for g in decode_closure(closed))
    )
    assert exponent % v.index == 0
    assert v.gorenstein == (v.index == 1)


@pytest.mark.parametrize(
    "make_rep",
    [
        lambda: materialize_rep(2, 3),
        lambda: diag_rep(6, (1, 5)),
        lambda: zeta4_swap_rep(),
    ],
)
def test_element_orders_divide_group_order_bound(make_rep):
    from math import factorial

    closed = close_group(make_rep())
    m, size = closed.root_order, closed.dimension
    bound = lcm(m, factorial(size) * m)
    for g in decode_closure(closed):
        assert bound % element_eigen_exponents(g, m).order == 0


def test_index_is_determinant_character_order():
    # det = zeta_6^(1+5) = 1 for the generator: Gorenstein despite root order 6
    closed = close_group(diag_rep(6, (1, 5)))
    assert len(closed.flat_elements) == 6
    assert all(det_turn(g, 6) == 0 for g in decode_closure(closed))
    v = analyze(closed)
    assert v.gorenstein and v.index == 1
    assert v.canonical and not v.terminal and v.min_age == 1


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (4, 4), (4, 5)])
def test_group_engine_agrees_with_class_engine(n, d):
    from symquot import verdict

    via_group = analyze(close_group(materialize_rep(n, d)))
    via_classes = verdict(n, d)
    assert via_group.canonical == via_classes.canonical
    assert via_group.terminal == via_classes.terminal
    assert via_group.gorenstein == via_classes.gorenstein
    assert via_group.index == via_classes.index
    assert via_group.group_order == via_classes.group_order
    assert via_group.min_age == via_classes.min_age


@pytest.mark.parametrize("d", [2, 3, 4])
def test_class_representative_scan_matches_full_scan(d):
    # age is a class function: min over all elements equals min over
    # one canonical representative per cycle type and its powers
    n = 2
    closed = close_group(materialize_rep(n, d))
    full_min = min(
        age_of(g, closed) for g in decode_closure(closed) if g != identity(closed.dimension)
    )
    rep_min = None
    for t, _, _ in conjugacy_classes(d):
        if t.is_identity():
            continue
        perm = []
        base = 0
        for part in t.parts:
            perm.extend(base + (j + 1) % part for j in range(part))
            base += part
        block = tuple(perm)
        g = MonomialElement(
            tuple(b * d + block[i] for b in range(n) for i in range(d)),
            (0,) * (n * d),
        )
        power = g
        while power != identity(closed.dimension):
            a = age_of(power, closed)
            rep_min = a if rep_min is None else min(rep_min, a)
            power = multiply(power, g, closed.root_order)
    assert full_min == rep_min


def age_of(g, rep):
    e = element_eigen_exponents(g, rep.root_order)
    return Fraction(sum(e.exponents), e.order)


def conjugate_element(g, relabel):
    size = len(relabel)
    perm = [0] * size
    exps = [0] * size
    for i in range(size):
        perm[relabel[i]] = relabel[g.perm[i]]
        exps[relabel[i]] = g.exponents[i]
    return MonomialElement(tuple(perm), tuple(exps))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verdict_invariant_under_basis_relabeling(data):
    base = data.draw(
        st.sampled_from(
            [materialize_rep(2, 2), diag_rep(2, (1, 1, 1)), zeta4_swap_rep()]
        )
    )
    relabel = tuple(data.draw(st.permutations(range(base.dimension))))
    conjugated = MonomialRep(
        dimension=base.dimension,
        root_order=base.root_order,
        generators=tuple(conjugate_element(g, relabel) for g in base.generators),
    )
    original = analyze(close_group(base))
    relabeled = analyze(close_group(conjugated))
    assert (original.canonical, original.terminal, original.gorenstein) == (
        relabeled.canonical,
        relabeled.terminal,
        relabeled.gorenstein,
    )
    assert original.index == relabeled.index
    assert original.group_order == relabeled.group_order
    assert original.min_age == relabeled.min_age


def test_rep_from_dict_roundtrip():
    rep = rep_from_dict(
        {
            "dimension": 2,
            "root_order": 4,
            "generators": [{"perm": [2, 1], "exponents": [1, 0]}],
        }
    )
    assert rep.generators == zeta4_swap_rep().generators


def test_rep_from_dict_defaults_exponents_to_zero():
    rep = rep_from_dict(
        {"dimension": 3, "root_order": 1, "generators": [{"perm": [2, 1, 3]}]}
    )
    assert rep.generators[0].exponents == (0, 0, 0)


def test_rep_from_dict_caps_the_dimension():
    at_cap = rep_from_dict({"dimension": DIMENSION_CAP, "root_order": 1, "generators": []})
    assert len(close_group(at_cap).flat_elements) == 1
    with pytest.raises(MatrixTooLargeError):
        rep_from_dict({"dimension": DIMENSION_CAP + 1, "root_order": 1, "generators": []})


def test_rep_from_dict_caps_the_root_order_bits():
    gen = {"perm": [2, 1], "exponents": [1, -1]}  # order 2 for every m
    m = 2**ROOT_ORDER_BITS_CAP - 1
    at_cap = rep_from_dict({"dimension": 2, "root_order": m, "generators": [gen]})
    assert len(close_group(at_cap).flat_elements) == 2
    with pytest.raises(MatrixTooLargeError, match=f"root_order has {ROOT_ORDER_BITS_CAP + 1} bits"):
        rep_from_dict({"dimension": 2, "root_order": m + 1, "generators": [gen]})


@pytest.mark.parametrize(
    "data",
    [
        {"root_order": 2, "generators": []},
        {"dimension": 2, "generators": []},
        {"dimension": 2, "root_order": 2},
        {"dimension": 2, "root_order": 2, "generators": [{"perm": [1, 1]}]},
        {"dimension": 2, "root_order": 2, "generators": [{"exponents": [0, 0]}]},
        {"dimension": 2, "root_order": 0, "generators": [{"perm": [2, 1], "exponents": [1, 1]}]},
        {"dimension": 2, "root_order": 2, "generators": [{"perm": ["a", 2], "exponents": [1, 1]}]},
        {"dimension": 2, "root_order": 2, "generators": [{"perm": [1.0, 2], "exponents": [1, 1]}]},
        {"dimension": 2, "root_order": 2, "generators": 5},
        {"dimension": True, "root_order": 2, "generators": []},
        {"dimension": 2, "root_order": 2, "generators": [{"perm": [1, 2], "exponents": [True, 0]}]},
    ],
)
def test_rep_from_dict_rejects_malformed_input(data):
    with pytest.raises(ValueError):
        rep_from_dict(data)


# The cycle-sum closed form against routes that share no code with it:
# numpy eigenvalues of the explicit complex matrix, and the exact
# eigenvalue-multiset route.


def sl_rep(m):
    """(Z/m)^2 x| Z/3 on C^3 inside SL: diag(1, -1, 0), diag(0, 1, -1), a 3-cycle."""
    gens = (
        MonomialElement((0, 1, 2), (1, m - 1, 0)),
        MonomialElement((0, 1, 2), (0, 1, m - 1)),
        MonomialElement((1, 2, 0), (0, 0, 0)),
    )
    return MonomialRep(dimension=3, root_order=m, generators=gens)


def wreath_rep(m):
    """mu_m wr S_2 on (C^2)^2: the block swap and diag(zeta, 1/zeta) on block 0."""
    gens = (
        MonomialElement((2, 3, 0, 1), (0, 0, 0, 0)),
        MonomialElement((0, 1, 2, 3), (1, m - 1, 0, 0)),
    )
    return MonomialRep(dimension=4, root_order=m, generators=gens)


def two_diag_rep():
    """1/5(1,4,0) and 1/5(1,1,1): only the second generator moves det, to order 5."""
    gens = (MonomialElement((0, 1, 2), (1, 4, 0)), MonomialElement((0, 1, 2), (1, 1, 1)))
    return MonomialRep(dimension=3, root_order=5, generators=gens)


ORACLE_GROUPS = {
    "zeta4-swap": zeta4_swap_rep,
    "diag-6-1-5": lambda: diag_rep(6, (1, 5)),
    "sym-2-3": lambda: materialize_rep(2, 3),
    "sl-4": lambda: sl_rep(4),
    "wreath-3": lambda: wreath_rep(3),
    "two-diag-5": two_diag_rep,
    # one shape on both sides of the N * m <= 256 rule for row codes in bytes;
    # (1, 5) has no quasi-reflection over either m, where a C^2 swap over odd m has one
    "diag-128-1-5": lambda: diag_rep(128, (1, 5)),  # N * m = 256: bytes
    "diag-129-1-5": lambda: diag_rep(129, (1, 5)),  # N * m = 258: tuples
}


def numpy_age(g, m):
    """Age and number of eigenvalues != 1, from numpy on the complex matrix."""
    eigenvalues = np.linalg.eigvals(monomial_matrix(g, m))
    turns = (np.angle(eigenvalues) / (2 * np.pi)) % 1.0
    turns[turns > 1 - 1e-9] = 0.0
    return float(turns.sum()), int(np.sum(np.abs(eigenvalues - 1) > 1e-7))


def check_element_age(g, m):
    a, moved = element_age(g, m)
    numeric_age, numeric_moved = numpy_age(g, m)
    assert abs(float(a) - numeric_age) < 1e-9
    assert moved == numeric_moved
    exps = element_eigen_exponents(g, m)
    assert numeric_exponents(monomial_matrix(g, m), exps.order) == exps.exponents
    assert a == age(exps)[1]
    assert (moved == 1) == is_quasi_reflection(exps)
    assert det_turn(g, m) == a % 1


@pytest.mark.parametrize("make_rep", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_element_age_matches_numpy_and_multiset_on_every_element(make_rep):
    closed = close_group(make_rep())
    for g in decode_closure(closed):
        check_element_age(g, closed.root_order)


@pytest.mark.parametrize("make_rep", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_generator_index_equals_det_order_over_all_elements(make_rep):
    closed = close_group(make_rep())
    m = closed.root_order
    assert analyze(closed).index == lcm(
        1, *(det_turn(g, m).denominator for g in decode_closure(closed))
    )


# C^1..C^4 with m <= 12, closed as bytes of row codes, or C^4 with m in 65..130,
# where N * m > 256 keeps the closure on tuples of column codes
sizes_and_root_orders = st.tuples(st.integers(1, 4), st.integers(1, 12)) | st.tuples(
    st.just(4), st.integers(65, 130)
)


def draw_element(draw, size, m):
    perm = tuple(draw(st.permutations(range(size))))
    exps = tuple(draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size)))
    return MonomialElement(perm, exps)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_element_age_matches_numpy_and_multiset_on_random_elements(data):
    m = data.draw(st.integers(1, 12))
    check_element_age(draw_element(data.draw, data.draw(st.integers(1, 4)), m), m)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generator_age_denominators_give_the_det_order(data):
    size, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    gens = [draw_element(data.draw, size, m) for _ in range(data.draw(st.integers(1, 2)))]
    closed = close_group(MonomialRep(dimension=size, root_order=m, generators=tuple(gens)))
    assert lcm(1, *(element_age(g, m)[0].denominator for g in gens)) == lcm(
        1, *(det_turn(g, m).denominator for g in decode_closure(closed))
    )


# The coded closure, on bytes of row codes and on tuples of column codes,
# against the MonomialElement reference closure, a breadth-first walk: the
# same elements, as a set and in number, and the same outcome under a cap.
# The orders differ; the closure order is pinned by the tests above.


def describe_all(elements):
    return [g.describe() for g in elements]


def assert_same_closure(rep, cap=None):
    try:
        reference = close_group_reference(rep, cap)
    except GroupTooLargeError:
        with pytest.raises(GroupTooLargeError):
            close_group(rep, cap)
        return
    elements = decode_closure(close_group(rep, cap))
    assert len(elements) == len(reference) and set(elements) == set(reference)


@pytest.mark.parametrize("make_rep", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_flat_closure_matches_reference_as_a_set(make_rep):
    assert_same_closure(make_rep())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_flat_closure_matches_reference_on_random_groups(data):
    size, m = data.draw(sizes_and_root_orders)
    gens = [draw_element(data.draw, size, m) for _ in range(data.draw(st.integers(1, 3)))]
    rep = MonomialRep(dimension=size, root_order=m, generators=tuple(gens))
    assert_same_closure(rep, cap=3000)


@st.composite
def coset_tuple_reps(draw):
    """2..4 generators on C^3..C^6 with N * m > 256, closed on tuples in several cosets.

    m is a multiple of a small q and every exponent a multiple of m / q, and a
    permutation moves at most three coordinates, so most groups stay under
    the test caps while their generators add cosets of more than one element.
    """
    size, q = draw(st.integers(3, 6)), draw(st.integers(2, 4))
    m = q * (256 // (size * q) + draw(st.integers(1, 8)))
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        moved = draw(st.lists(st.integers(0, size - 1), max_size=3, unique=True))
        perm = list(range(size))
        for i, j in zip(moved, draw(st.permutations(moved))):
            perm[i] = j
        exps = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
        gens.append(MonomialElement(tuple(perm), tuple(m // q * k for k in exps)))
    return MonomialRep(dimension=size, root_order=m, generators=tuple(gens))


@settings(max_examples=100, deadline=None)
@given(rep=coset_tuple_reps())
def test_flat_closure_matches_reference_on_tuple_cosets(rep):
    assert_same_closure(rep, cap=3000)


def test_tuple_coset_draws_close_in_several_cosets():
    # the property above must meet groups under the cap whose later generators
    # add at least two cosets, each of more than one element
    def several(rep):
        try:
            order = len(close_group(rep, cap=3000).flat_elements)
        except GroupTooLargeError:
            return False
        first = max(element_eigen_exponents(g, rep.root_order).order for g in rep.generators)
        return first >= 2 and order >= 3 * first

    assert several(find(coset_tuple_reps(), several))


@pytest.mark.parametrize(
    "rep",
    [
        diag_rep(5, (2,)),  # dimension 1
        MonomialRep(dimension=2, root_order=3, generators=()),  # no generators
        MonomialRep(dimension=3, root_order=1, generators=(MonomialElement((1, 2, 0), (0, 0, 0)),)),
        MonomialRep(
            dimension=4,
            root_order=1,
            generators=(
                MonomialElement((2, 3, 0, 1), (0, 0, 0, 0)),
                MonomialElement((1, 0, 2, 3), (0, 0, 0, 0)),
            ),
        ),
        MonomialRep(  # mu_3 wr S_3 on (C^2)^3, 162 elements
            dimension=6,
            root_order=3,
            generators=(
                MonomialElement((2, 3, 0, 1, 4, 5), (0, 0, 0, 0, 0, 0)),
                MonomialElement((2, 3, 4, 5, 0, 1), (0, 0, 0, 0, 0, 0)),
                MonomialElement((0, 1, 2, 3, 4, 5), (1, 2, 0, 0, 0, 0)),
            ),
        ),
        sl_rep(16),  # 768 elements
        MonomialRep(  # bytes at the largest N: a 256-cycle, N * m = 256
            dimension=256,
            root_order=1,
            generators=(MonomialElement(tuple((i + 1) % 256 for i in range(256)), (0,) * 256),),
        ),
        MonomialRep(  # codes past 2^64: -1 and a coordinate swap over m = 2^70
            dimension=2,
            root_order=2**70,
            generators=(
                MonomialElement((0, 1), (2**69, 2**69)),
                MonomialElement((1, 0), (2**69, 0)),
            ),
        ),
    ],
    ids=[
        "dimension-1",
        "no-generators",
        "m-1-cycle",
        "m-1-dihedral",
        "wreath-mu3-S3",
        "sl-m-16",
        "cycle-on-C256",
        "m-2-pow-70",
    ],
)
def test_flat_closure_matches_reference_on_edge_cases(rep):
    assert_same_closure(rep)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_flat_closure_matches_reference_under_small_caps(data):
    # caps of 1-80 land in the powers or before a coset, often mid-way; 0 holds the identity
    size, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    gens = [draw_element(data.draw, size, m) for _ in range(data.draw(st.integers(1, 4)))]
    rep = MonomialRep(dimension=size, root_order=m, generators=tuple(gens))
    assert_same_closure(rep, cap=data.draw(st.integers(0, 80)))


@pytest.mark.parametrize("m", [1, 129], ids=["bytes", "tuples"])
def test_closure_under_a_cap_below_one_holds_the_identity(m):
    # the identity is always held, and a new element raises
    trivial = MonomialRep(dimension=2, root_order=m, generators=(identity(2),))
    assert len(close_group(trivial, cap=0).flat_elements) == 1
    swap = MonomialRep(dimension=2, root_order=m, generators=(MonomialElement((1, 0), (0, 0)),))
    with pytest.raises(GroupTooLargeError):
        close_group(swap, cap=0)


def cyclic_powers_rep(order):
    """1/order(1, 2) on C^2 given by its powers 1..256: the generator (1, 2) has the
    largest order, its powers are the whole group, and every other generator is skipped."""
    gens = tuple(MonomialElement((0, 1), (k % order, 2 * k % order)) for k in range(1, 257))
    return MonomialRep(dimension=2, root_order=order, generators=gens)


def cosets_of_3_then_24_rep():
    """On C^8 over m = 40: a 3-cycle (order 3), diag(20, 0, 0, 20, 0...) and a transposition
    with exponents (10, 30), both of order 2, so the first coset step has H of 3 < N."""
    three_cycle = MonomialElement((1, 2, 0, 3, 4, 5, 6, 7), (0,) * 8)
    diag = MonomialElement(tuple(range(8)), (20, 0, 0, 20, 0, 0, 0, 0))
    swap = MonomialElement((0, 1, 2, 4, 3, 5, 6, 7), (0, 0, 0, 10, 30, 0, 0, 0))
    return MonomialRep(dimension=8, root_order=40, generators=(three_cycle, diag, swap))


def coset_of_2_on_c130_rep():
    """On C^130 over m = 2: a transposition, then -1 on a coordinate it fixes, so the one
    coset step has H of 2 elements, far below N, and the group has 4 elements."""
    swap = MonomialElement((1, 0) + tuple(range(2, 130)), (0,) * 130)
    sign = MonomialElement(tuple(range(130)), (0, 0, 1) + (0,) * 127)
    return MonomialRep(dimension=130, root_order=2, generators=(swap, sign))


# N * m <= 256 closes on bytes, where a coset is H translated through one table.
# Past it the tuple closure has one coset rule: H is transposed once per generator,
# whatever its size, and a coset maps only the shifted columns. Powers are no coset.
@pytest.mark.parametrize(
    "make_rep,order",
    [
        (lambda: sl_rep(30), 2700),  # bytes, N = 3: 30 powers, cosets of 30, then of 900
        (lambda: diag_rep(97, tuple(range(1, 17))), 97),  # tuples, N = 16: powers only
        (lambda: materialize_rep(3, 5), 120),  # bytes, N = 15: 5 powers, then cosets of 5
        (lambda: cyclic_powers_rep(256), 256),  # tuples: powers; one generator is 1
        (lambda: cyclic_powers_rep(257), 257),  # tuples: powers; 255 generators skipped
        (lambda: cyclic_powers_rep(513), 513),  # tuples: powers; 255 generators skipped
        (lambda: wreath_rep(64), 8192),  # bytes at N * m = 256
        (lambda: wreath_rep(65), 8450),  # tuples at N * m = 260: 65 powers, then cosets of 65 >= N
        (cosets_of_3_then_24_rep, 96),  # tuples at N * m = 320: cosets of 3 < N, then of 24 >= N
        (coset_of_2_on_c130_rep, 4),  # tuples at N * m = 260: 2 powers, then one coset of 2 < N
    ],
    ids=["sl-30-bytes-cosets", "cyclic-C16-tuple-powers", "sym-3-5-bytes-cosets", "order-256",
         "order-257", "order-513", "wreath-64-bytes", "wreath-65-tuples", "tuple-cosets-of-3-then-24",
         "tuple-coset-of-2-on-C130"],
)
def test_flat_closure_matches_reference_by_coset_shape(make_rep, order):
    rep = make_rep()
    assert_same_closure(rep, cap=order)
    assert len(close_group(rep, cap=order).flat_elements) == order
    with pytest.raises(GroupTooLargeError):
        close_group_reference(rep, cap=order - 1)
    with pytest.raises(GroupTooLargeError):
        close_group(rep, cap=order - 1)


def walked_lists(monkeypatch):
    """The lists that ``monomial._dimino`` walks into from now on, one per closure."""
    lists, dimino = [], monomial._dimino

    def recording(codes, generators, elements, cap):
        lists.append(elements)
        return dimino(codes, generators, elements, cap)

    monkeypatch.setattr(monomial, "_dimino", recording)
    return lists


@pytest.mark.parametrize(
    "make_rep",
    [lambda: sl_rep(30), lambda: materialize_rep(1, 6), lambda: cyclic_powers_rep(513),
     lambda: diag_rep(257, (1, 2))],
    # bytes, three generators; bytes, S_6; tuples, powers; tuples, one generator
    ids=["sl-30", "sym-1-6", "order-513", "1/257(1,2)"],
)
def test_closure_raises_iff_the_group_exceeds_the_cap(monkeypatch, make_rep):
    # every cap from 0 to |G| + 1. On row codes, and for one distinct generator on
    # column codes, the order comes first, so the raise walks no element; otherwise
    # the walk raises holding at most max(cap, 1)
    rep = make_rep()
    order = len(close_group(rep).flat_elements)
    from_walk = rep.dimension * rep.root_order > 256 and len(set(rep.generators)) > 1
    for cap in range(order + 2):
        if order <= max(cap, 1):
            assert len(close_group(rep, cap=cap).flat_elements) == order
            continue
        lists = walked_lists(monkeypatch)
        with pytest.raises(GroupTooLargeError) as info:
            close_group(rep, cap=cap)
        monkeypatch.undo()
        assert info.value.cap == cap
        assert str(info.value) == f"group closure exceeded the cap of {cap} elements"
        (walked,) = lists
        if not from_walk:
            assert len(walked) == 1  # the identity alone
            continue
        tb = info.tb
        while tb.tb_next is not None:
            tb = tb.tb_next
        assert tb.tb_frame.f_code.co_name == "_dimino"
        held = tb.tb_frame.f_locals
        assert len(held["seen"]) == len(held["elements"]) <= max(cap, 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_closure_order_of_the_symmetric_group(n):
    # S_n on C^n by a transposition and an n-cycle (one generator at n = 2)
    rep = materialize_rep(1, n)
    order = factorial(n)
    for cap in (order, order + 1):
        assert len(close_group(rep, cap=cap).flat_elements) == order
    with pytest.raises(GroupTooLargeError):
        close_group(rep, cap=order - 1)


def test_closure_order_of_the_wreath_product_at_256_row_codes():
    rep = wreath_rep(64)  # N * m = 256: the largest row codes, 2 * 64^2 elements
    for cap in (8192, 8193):
        assert len(close_group(rep, cap=cap).flat_elements) == 8192
    with pytest.raises(GroupTooLargeError):
        close_group(rep, cap=8191)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_schreier_sims_order_matches_the_reference_closure(data):
    size = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, min(256 // size, 12)))
    gens = [draw_element(data.draw, size, m) for _ in range(data.draw(st.integers(2, 4)))]
    rep = MonomialRep(dimension=size, root_order=m, generators=tuple(gens))
    try:
        want = len(close_group_reference(rep, cap=3000))
    except GroupTooLargeError:
        want = None
    tables = [_row_table(g, size, size * m) for g in gens]
    try:
        got = monomial._table_group_order(tables, size * m, 3000)
    except GroupTooLargeError:
        got = None
    assert got == want


def test_an_order_over_the_cap_raises_when_the_orbit_bound_first_passes_it(monkeypatch):
    # S_256 on C^256 is far over the cap: the run stops at the first product of
    # orbit lengths past it, long before the chain is complete
    bounds, product = [], monomial.prod

    def recording(lengths):
        bounds.append(product(lengths))
        return bounds[-1]

    monkeypatch.setattr(monomial, "prod", recording)
    with pytest.raises(GroupTooLargeError) as info:
        close_group(materialize_rep(1, 256), cap=20000)
    assert info.value.cap == 20000
    assert bounds[-1] > 20000 and all(b <= 20000 for b in bounds[:-1])


def test_flat_closure_of_dimension_one():
    closed = close_group(diag_rep(5, (2,)))
    assert describe_all(decode_closure(closed)) == [f"perm[1] exp[{k}]" for k in (0, 2, 4, 1, 3)]


def test_flat_closure_cap_boundary():
    assert len(close_group(wreath_rep(2), cap=8).flat_elements) == 8
    with pytest.raises(GroupTooLargeError) as err:
        close_group(wreath_rep(2), cap=7)
    assert err.value.cap == 7
    with pytest.raises(GroupTooLargeError):
        close_group_reference(wreath_rep(2), cap=7)


def test_decode_closure_reads_the_codes():
    # (1 2) with exponents (1, 0) over N = 2. N * m <= 256: row codes in bytes,
    # code[j] = N * e + i for the entry zeta^e at (j, i)
    closed = close_group(zeta4_swap_rep())
    assert closed.flat_elements[:2] == (b"\x00\x01", b"\x01\x02")
    assert decode_closure(closed)[:2] == (identity(2), MonomialElement((1, 0), (1, 0)))
    # N * m > 256: column codes in tuples, code[i] = N * exponents[i] + perm[i]
    closed = close_group(zeta_swap_rep(129))
    assert closed.flat_elements[:2] == ((0, 1), (3, 0))
    assert decode_closure(closed)[:2] == (identity(2), MonomialElement((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="not closed"):
        decode_closure(zeta4_swap_rep())


# The Terminal Lemma (White 1964; Morrison-Stevens 1984) as an oracle
# for the scan: 1/r(a,b,c) with every weight prime to r is terminal iff
# two weights sum to 0 mod r, and Gorenstein iff a + b + c = 0 mod r.


@pytest.mark.parametrize(
    "r,weights,want",
    [
        (2, (1, 1, 1), (True, False)),
        (3, (1, 1, 1), (False, True)),
        (5, (1, 4, 2), (True, False)),
        (7, (1, 2, 4), (False, True)),
        (5, (1, 1, 3), (False, True)),
    ],
)
def test_terminal_lemma_on_known_quotients(r, weights, want):
    assert terminal_lemma(r, weights) == want


def test_analyze_agrees_with_terminal_lemma_below_12():
    cases, mismatches = terminal_lemma_sweep(12)
    assert cases == 1649  # sum of phi(r)^3 over r = 2..11
    assert mismatches == []


# Invariance of the verdict: relabelling the coordinates, adding a
# redundant generator or reordering the generators leaves the group (up
# to conjugation) unchanged, so every verdict field but the witness must
# stay. Quasi-reflections and the closure cap depend on the group alone,
# so they are outcomes that must stay too.

INVARIANCE_CAP = 2000


@st.composite
def small_reps(draw):
    """A monomial group from ``sizes_and_root_orders`` with 1..3 generators."""
    size, m = draw(sizes_and_root_orders)
    gens = draw(st.lists(
        st.builds(
            lambda perm, exps: MonomialElement(tuple(perm), tuple(exps)),
            st.permutations(range(size)),
            st.lists(st.integers(0, m - 1), min_size=size, max_size=size),
        ),
        min_size=1,
        max_size=3,
    ))
    return MonomialRep(dimension=size, root_order=m, generators=tuple(gens))


def verdict_outcome(rep):
    try:
        v = analyze(close_group(rep, cap=INVARIANCE_CAP))
    except (GroupTooLargeError, QuasiReflectionError) as exc:
        return type(exc).__name__
    return (v.min_age, v.index, v.canonical, v.terminal, v.group_order)


def with_generators(rep, gens):
    return MonomialRep(dimension=rep.dimension, root_order=rep.root_order,
                       generators=tuple(gens))


@settings(max_examples=60, deadline=None)
@given(rep=small_reps(), data=st.data())
def test_outcome_invariant_under_coordinate_relabelling(rep, data):
    relabel = tuple(data.draw(st.permutations(range(rep.dimension))))
    conjugated = with_generators(rep, (conjugate_element(g, relabel) for g in rep.generators))
    assert verdict_outcome(conjugated) == verdict_outcome(rep)


@settings(max_examples=60, deadline=None)
@given(rep=small_reps(), data=st.data())
def test_outcome_invariant_under_a_redundant_generator(rep, data):
    gens = list(rep.generators)
    a, b = (data.draw(st.sampled_from(gens)) for _ in range(2))
    gens.insert(data.draw(st.integers(0, len(gens))), multiply(a, b, rep.root_order))
    assert verdict_outcome(with_generators(rep, gens)) == verdict_outcome(rep)


@settings(max_examples=60, deadline=None)
@given(rep=small_reps(), data=st.data())
def test_outcome_invariant_under_generator_order(rep, data):
    shuffled = data.draw(st.permutations(rep.generators))
    assert verdict_outcome(with_generators(rep, shuffled)) == verdict_outcome(rep)


def test_invariance_draws_reach_nontrivial_verdicts():
    # the properties above would hold vacuously if every draw raised
    def nontrivial(rep):
        outcome = verdict_outcome(rep)
        return isinstance(outcome, tuple) and outcome[-1] > 1

    assert nontrivial(find(small_reps(), nontrivial))


@pytest.mark.parametrize("tuples", [False, True], ids=["bytes", "tuples"])
def test_draws_reach_nontrivial_verdicts_in_both_encodings(tuples):
    # the properties hold the byte closure (N * m <= 256) and the tuple closure alike
    def nontrivial(rep):
        outcome = verdict_outcome(rep)
        wide = rep.dimension * rep.root_order > 256
        return wide == tuples and isinstance(outcome, tuple) and outcome[-1] > 1

    assert nontrivial(find(small_reps(), nontrivial))


# The scan stops an element's cycle walk once its key reaches the least
# key so far and two of its eigenvalues differ from 1. The walk's contract
# is held directly, and the whole scan to ``oracle.analyze_reference``,
# which scans every element in full on the eigenvalue route.


def coded(g):
    n = len(g.perm)
    return tuple(n * k + i for i, k in zip(g.perm, g.exponents))


@pytest.mark.parametrize(
    "g,m,bound,want",
    [
        (MonomialElement((1, 2, 0), (0, 0, 0)), 1, 6, None),  # 3-cycle: key 6, moved 2
        (MonomialElement((1, 2, 0), (0, 0, 0)), 1, 7, (6, 2)),
        (MonomialElement((0, 1, 2), (1, 1, 1)), 2, 7, None),  # key 18, moved 3
        (MonomialElement((1, 0, 2), (0, 0, 0)), 1, 0, (3, 1)),  # a reflection never stops
        (MonomialElement((0, 1, 2), (0, 0, 0)), 1, 0, (0, 0)),  # nor does the identity
    ],
    ids=["3-cycle-bound-at-key", "3-cycle-bound-past-key", "diagonal", "reflection", "identity"],
)
def test_cycle_walk_stops_at_its_bound(g, m, bound, want):
    n = len(g.perm)
    assert _cycle_sums(coded(g), n, n * m, bound) == want


@settings(max_examples=200, deadline=None)
@given(rep=small_reps(), data=st.data())
def test_cycle_walk_stops_exactly_when_key_and_count_pass_the_bound(rep, data):
    g = data.draw(st.sampled_from(rep.generators))
    n, nm = rep.dimension, rep.dimension * rep.root_order
    key, moved = _cycle_sums(coded(g), n, nm)
    assert (Fraction(key, 2 * nm), moved) == element_age(g, rep.root_order)
    bound = data.draw(st.integers(key - 2, key + 2) | st.integers(0, 2 * nm * n))
    stops = key >= bound and moved >= 2
    assert _cycle_sums(coded(g), n, nm, bound) == (None if stops else (key, moved))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_cycle_walk_gives_the_element_order(data):
    size, m = data.draw(sizes_and_root_orders)
    g = draw_element(data.draw, size, m)
    key, moved = _cycle_sums(coded(g), size, size * m)
    order = element_eigen_exponents(g, m).order  # the lcm of the eigenvalues' orders
    assert _cycle_sums(coded(g), size, size * m, order=True) == (key, moved, order)


@st.composite
def reps_with_quasi_reflections(draw):
    """``small_reps`` plus one diagonal or transposition quasi-reflection generator."""
    rep = draw(small_reps())
    n, m = rep.dimension, rep.root_order
    kinds = ["diagonal"] * (m > 1) + ["transposition"] * (n > 1)
    if not kinds:  # C^1 with m = 1 has no quasi-reflection
        return rep
    perm, exps = list(range(n)), [0] * n
    if draw(st.sampled_from(kinds)) == "diagonal":
        exps[draw(st.integers(0, n - 1))] = draw(st.integers(1, m - 1))
    else:  # e_i -> zeta^k e_j -> e_i: eigenvalues 1 and -1
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        perm[i], perm[j] = j, i
        k = draw(st.integers(0, m - 1))
        exps[i], exps[j] = k, -k % m
    gens = list(rep.generators)
    gens.insert(draw(st.integers(0, len(gens))), MonomialElement(tuple(perm), tuple(exps)))
    return with_generators(rep, gens)


@st.composite
def sl_reps(draw):
    """``small_reps`` with every generator moved into SL(N): a group of index 1.

    A generator's determinant is sign(perm) * zeta_m^(sum of exponents).
    An odd permutation over an odd m first swaps two images to become
    even; then the first exponent is shifted so that the determinant is 1.
    """
    rep = draw(small_reps())
    m = rep.root_order
    gens = []
    for g in rep.generators:
        perm, exps = list(g.perm), list(g.exponents)
        if element_age(g, m)[0] * m % 1:  # det = -zeta^k over an odd m, no power of zeta
            perm[0], perm[1] = perm[1], perm[0]
        turn = element_age(MonomialElement(tuple(perm), tuple(exps)), m)[0] % 1
        exps[0] = (exps[0] - int(turn * m)) % m
        gens.append(MonomialElement(tuple(perm), tuple(exps)))
    assert all(element_age(g, m)[0].denominator == 1 for g in gens)  # every det is 1
    return with_generators(rep, gens)


def full_scan_outcomes(rep):
    """(analyze, analyze_reference) outcomes of the closed group, None past the cap."""
    try:
        closed = close_group(rep, cap=INVARIANCE_CAP)
    except GroupTooLargeError:
        return None
    return scan_outcome(analyze, closed), scan_outcome(analyze_reference, closed)


@settings(max_examples=150, deadline=None)
@given(rep=small_reps() | reps_with_quasi_reflections() | sl_reps() | coset_tuple_reps())
def test_analyze_matches_the_full_eigenvalue_scan(rep):
    outcomes = full_scan_outcomes(rep)
    assert outcomes is None or outcomes[0] == outcomes[1]


def test_full_scan_draws_reach_several_quasi_reflections():
    # the property above must meet groups whose later quasi-reflections have no smaller age
    def several(rep):
        outcomes = full_scan_outcomes(rep)
        return outcomes is not None and "group contains 3 quasi-reflection(s)" in outcomes[1]

    assert several(find(reps_with_quasi_reflections(), several))


def test_sl_draws_reach_the_age_1_stop():
    # the property above must meet index-1 groups whose scan ends before their last element
    def stops_early(rep):
        outcomes = full_scan_outcomes(rep)
        if outcomes is None or not isinstance(outcomes[1], SingularityVerdict):
            return False
        v, last = outcomes[1], decode_closure(close_group(rep))[-1]
        return (v.index, v.min_age) == (1, 1) and v.witness != last.describe()

    assert stops_early(find(sl_reps(), stops_early))


@pytest.mark.parametrize(
    "rep,want",
    [
        (diag_rep(5, (1, 0)), [f"perm[1,2] exp[{k},0]" for k in (1, 2, 3, 4)]),
        (  # S_3 on C^3: the later transpositions have the first one's age. The 3-cycle c
            # (order 3) is taken first, so the transposition t heads the coset {t, c t, c^2 t}
            materialize_rep(1, 3),
            ["perm[2,1,3] exp[0,0,0]", "perm[3,2,1] exp[0,0,0]", "perm[1,3,2] exp[0,0,0]"],
        ),
        (  # an age-1/2 element comes first, then reflections of age 1/4 to 3/4: a = (1, 1)
            # and b = (3, 0) tie at order 4, so the list is the powers of a, then the cosets
            # of b, 2b and 3b, each led by its one reflection and holding one more
            MonomialRep(2, 4, (MonomialElement((0, 1), (1, 1)), MonomialElement((0, 1), (3, 0)))),
            [f"perm[1,2] exp[{e}]" for e in ("3,0", "0,1", "2,0", "0,2", "1,0", "0,3")],
        ),
        (  # the same, with transpositions of eigenvalues 1 and -1
            MonomialRep(2, 4, (MonomialElement((0, 1), (1, 1)), MonomialElement((1, 0), (1, 3)))),
            ["perm[2,1] exp[1,3]", "perm[2,1] exp[3,1]"],
        ),
        (  # index 2: diag(1,1,0) of age 1 comes first, so an SL-only stop would end there
            MonomialRep(3, 2, (MonomialElement((0, 1, 2), (1, 1, 0)),
                               MonomialElement((0, 1, 2), (1, 0, 0)))),
            ["perm[1,2,3] exp[1,0,0]", "perm[1,2,3] exp[0,1,0]"],
        ),
    ],
    ids=["1/5(1,0)", "S3-on-C3", "diagonal-after-age-1/2", "transposition-after-age-1/2",
         "index-2-after-age-1"],
)
def test_every_quasi_reflection_after_a_smaller_age_is_reported(rep, want):
    closed = close_group(rep)
    message = f"group contains {len(want)} quasi-reflection(s): " + "; ".join(want)
    for scan in (analyze, analyze_reference):
        with pytest.raises(QuasiReflectionError) as info:
            scan(closed)
        assert (str(info.value), info.value.elements) == (message, tuple(want))


# In SL(N) every non-identity age is a whole number >= 1 and no element is
# a quasi-reflection, so the scan of an index-1 group ends at its first
# age-1 element; any other group is scanned as before.


def walks_of_analyze(monkeypatch, closed):
    """The verdict of ``analyze(closed)`` and the codes ``monomial._cycle_sums`` walked for it."""
    walked = []

    def counting(code, n, nm, bound=None):
        walked.append(code)
        return cycle_sums(code, n, nm, bound)

    cycle_sums = monomial._cycle_sums
    monkeypatch.setattr(monomial, "_cycle_sums", counting)
    return analyze(closed), walked


def test_sl_scan_stops_at_its_first_age_1_element(monkeypatch):
    closed = close_group(sl_rep(30))  # 2700 elements; diag(1, 29, 0) of age 1 comes first
    v, walked = walks_of_analyze(monkeypatch, closed)
    generators = [coded(g) for g in closed.generators]  # element_age's walks for the index
    assert walked == generators + list(closed.flat_elements[:2])
    assert (v.index, v.min_age, v.witness) == (1, 1, "perm[1,2,3] exp[1,29,0]")


@pytest.mark.parametrize(
    "rep,forms",
    [(diag_rep(2, (1, 1, 1, 1)), 0), (materialize_rep(4, 3), 2), (materialize_rep(4, 7), 2)],
    ids=["1/2(1,1,1,1)", "S3-on-C4-blocks", "S7-on-C4-blocks"],
)
def test_sl_scan_without_an_age_1_element_stops_at_its_orbit_bound(monkeypatch, rep, forms):
    # index 1 and least age 2, proven by the coordinate orbits: the scan ends at the
    # first element of age 2, and the closure is walked no further than that element.
    # -1 is the last element of 1/2(1,1,1,1); 4 copies of S_d stop at a transposition
    # in every copy. A diagonal class reads its index off its column, unwalked; one
    # orbit's form is walked once per generator
    codes = close_group(rep).flat_elements
    first = next(j for j, g in enumerate(decode_closure(close_group(rep)))
                 if j and element_age(g, rep.root_order)[0] == 2)
    closed = close_group(rep)
    v, walked = walks_of_analyze(monkeypatch, closed)
    generators = [coded(g) for g in closed.generators]  # element_age's walks for the index
    assert walked[:len(generators)] == generators
    assert walked[len(generators) + forms:] == list(codes[:first + 1])
    assert (v.index, v.min_age) == (1, 2)
    if rep.dimension == 28:  # 5 040 elements, walked on demand: the scan stops in the first coset
        assert first < len(closed.flat_elements._elements) < len(codes) // 10


# The closure is a sequence that walks Dimino's order only as far as it is read.


# wreath 4: 32 elements on row codes, 4 powers, then cosets of 4, 8 and 16, walked on
# demand; wreath 2: 8 elements, walked whole when closed; wreath 65: 8 450 elements on
# column codes, whose order is the length of the whole walk
closures = pytest.mark.parametrize(
    "rep,walked", [(wreath_rep(4), 1), (wreath_rep(2), 8), (wreath_rep(65), 8450)],
    ids=["wreath-4-on-demand", "wreath-2-whole", "wreath-65-column-codes"],
)


@closures
def test_closure_reads_alike_however_it_is_walked(rep, walked):
    whole = tuple(close_group(rep).flat_elements)
    closed = close_group(rep).flat_elements
    order = len(whole)
    assert len(closed) == order and len(closed._elements) == walked  # the order comes first
    assert repr(closed) == f"<closure of {order} elements>"
    assert closed[5] == whole[5] and len(closed._elements) in (walked, 8)  # or the first coset
    assert closed[2:9:3] == whole[2:9:3] and closed[:0] == ()
    assert closed[-1] == whole[-1] and closed[::-5] == whole[::-5]
    assert closed == whole and whole == closed and hash(closed) == hash(whole)
    assert closed == close_group(rep).flat_elements
    assert closed != whole[:-1] and closed != list(whole)
    assert list(closed) == list(whole) and closed._walk is None
    with pytest.raises(IndexError):
        closed[order]


@closures
def test_two_threads_read_one_closure_alike(rep, walked):
    whole = tuple(close_group(rep).flat_elements)
    for _ in range(20):
        closed = close_group(rep).flat_elements
        reads = [None, None]

        def read(k, closed=closed, reads=reads):
            reads[k] = tuple(closed)

        threads = [threading.Thread(target=read, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert reads == [whole, whole]


# A group of index > 1 whose coordinate orbits fall into classes of two or
# more gets a proven least age, the least |C| / index_C over its classes,
# and no quasi-reflection; the scan ends at its first element of that age.


@st.composite
def copies_reps(draw):
    """k copies of a small action, each gauged by its own diagonal, coordinates relabelled.

    On bytes (N * m <= 256) or on tuples, where m is a multiple of a small q
    and every exponent of the action a multiple of m / q, so that the group
    stays small. The gauges are any exponents mod m.
    """
    k, size = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):  # tuples of column codes: N * m > 256
        q = draw(st.integers(1, 4))
        m = q * (256 // (k * size * q) + draw(st.integers(1, 4)))
    else:
        q = m = draw(st.integers(1, 8))
    action = [draw_element(draw, size, q) for _ in range(draw(st.integers(1, 3)))]
    gauges = [draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
              for _ in range(k)]
    relabel = tuple(draw(st.permutations(range(k * size))))
    gens = []
    for g in action:
        perm, exps = [], []
        for j, c in enumerate(gauges):  # copy j on coordinates j * size ..
            pairs = enumerate(zip(g.perm, g.exponents))
            perm += [j * size + p for p in g.perm]
            exps += [(m // q * e + c[p] - c[i]) % m for i, (p, e) in pairs]
        gens.append(conjugate_element(MonomialElement(tuple(perm), tuple(exps)), relabel))
    return MonomialRep(dimension=k * size, root_order=m, generators=tuple(gens))


@settings(max_examples=150, deadline=None)
@given(rep=copies_reps())
def test_analyze_matches_the_full_eigenvalue_scan_on_copies(rep):
    outcomes = full_scan_outcomes(rep)
    assert outcomes is None or outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(rep=copies_reps() | small_reps())
def test_orbit_bound_is_a_least_age_without_quasi_reflections(rep):
    try:
        closed = close_group(rep, cap=INVARIANCE_CAP)
    except GroupTooLargeError:
        return
    key = _least_possible_key(closed)
    if key is not None:
        want = analyze_reference(closed)  # raises on a quasi-reflection
        nm = rep.dimension * rep.root_order
        assert want.min_age is None or Fraction(key, 2 * nm) <= want.min_age


def stops_at_the_orbit_bound(rep):
    """True iff ``rep`` has index > 1 and a least age at its bound, before its last element."""
    outcomes = full_scan_outcomes(rep)
    if outcomes is None or not isinstance(outcomes[1], SingularityVerdict):
        return False
    v, closed = outcomes[1], close_group(rep)
    if v.index == 1:
        return False
    at_bound = _least_possible_key(closed) == v.min_age * 2 * rep.dimension * rep.root_order
    return at_bound and v.witness != decode_closure(closed)[-1].describe()


@pytest.mark.parametrize("tuples", [False, True], ids=["bytes", "tuples"])
def test_copies_draws_reach_the_orbit_stop_in_both_encodings(tuples):
    # the properties above must meet groups whose scan ends at the orbit bound
    def stops_early(rep):
        wide = rep.dimension * rep.root_order > 256
        return wide == tuples and stops_at_the_orbit_bound(rep)

    assert stops_early(find(copies_reps(), stops_early))


def two_orbit_rep(m, d, k):
    """mu_m wr S_d on each of two C^d: S_d alike on both, z on the first and z^k on the second.

    For k != 1 mod m the two orbits have one size and no relabelling and
    gauge between them: the diagonal generator's cycle sums differ.
    """
    perms = dict.fromkeys([(1, 0, *range(2, d)), tuple((i + 1) % d for i in range(d))])
    gens = [MonomialElement(p + tuple(d + i for i in p), (0,) * 2 * d) for p in perms]
    gens.append(MonomialElement(tuple(range(2 * d)), (1,) + (0,) * (d - 1) + (k,) + (0,) * (d - 1)))
    return MonomialRep(dimension=2 * d, root_order=m, generators=tuple(gens))


@pytest.mark.parametrize(
    "rep,want",
    [
        (materialize_rep(3, 7), Fraction(3, 2)),  # three transpositions, the least age
        (materialize_rep(5, 3), Fraction(5, 2)),
        (materialize_rep(2, 3), Fraction(1)),  # index 1: two orbits, det on one of order 2
        (copies_rep(zeta4_swap_rep(), 3), Fraction(3, 4)),  # three orbits with det of order 4
        (diag_rep(6, (5, 5, 5)), Fraction(1, 2)),  # one class of three columns 5 over 6
        (diag_rep(97, (1,) * 8), Fraction(8, 97)),
        (materialize_rep(1, 7), None),  # one orbit is a class of its own
        (diag_rep(7, (1, 2, 3)), None),
        (diag_rep(6, (1, 1, 5)), None),
        (two_orbit_rep(5, 2, 4), None),  # z and 1/z: index 1, but the bound is none
        (two_orbit_rep(5, 3, 2), None),
    ],
    ids=["S7x3", "S3x5", "S3x2", "zeta4-swap-x3", "1/6(5,5,5)", "1/97(1,...,1)",
         "S7x1", "1/7(1,2,3)", "1/6(1,1,5)", "z-and-1/z", "z-and-z^2"],
)
def test_least_possible_age_of_the_orbit_classes(rep, want):
    closed = close_group(rep)
    key = _least_possible_key(closed)
    nm = rep.dimension * rep.root_order
    assert (None if key is None else Fraction(key, 2 * nm)) == want
    if want is not None:
        assert want <= analyze_reference(closed).min_age


@pytest.mark.parametrize("n,d", [(3, 7), (3, 4), (5, 3)])
def test_odd_copies_of_s_d_stop_at_their_first_transposition_triple(monkeypatch, n, d):
    closed = close_group(materialize_rep(n, d))
    elements = decode_closure(closed)
    first = next(j for j, g in enumerate(elements) if element_age(g, 1)[0] == Fraction(n, 2))
    moved = [i for i, image in enumerate(elements[first].perm) if i != image]
    assert len(moved) == 2 * n  # a transposition in each copy
    v, walked = walks_of_analyze(monkeypatch, closed)
    forms = 2 * len(closed.generators)  # each generator for the index, then on the orbit class
    assert walked[forms:] == list(closed.flat_elements[:first + 1])
    assert first + 1 < len(elements)  # the scan ends before the last element
    assert (v.index, v.min_age, v.witness) == (2, Fraction(n, 2), elements[first].describe())


def test_a_scalar_cyclic_group_stops_at_its_generator(monkeypatch):
    closed = close_group(diag_rep(97, (1,) * 8))  # one class of 8 columns; the bound is 8/97
    v, walked = walks_of_analyze(monkeypatch, closed)
    (gen,) = closed.generators  # a diagonal class's index is read off its column, unwalked
    assert walked == [coded(gen)] + list(closed.flat_elements[:2])
    # N * m = 776, column codes: the order is the generator's, so the closure is walked on
    # demand and stops at the generator too
    assert len(closed.flat_elements._elements) <= 32
    assert (v.index, v.min_age, v.witness) == (97, Fraction(8, 97), gen.describe())


@pytest.mark.parametrize(
    "rep", [diag_rep(7, (1, 2, 3)), two_orbit_rep(5, 2, 2)], ids=["1/7(1,2,3)", "z-and-z^2"]
)
def test_groups_without_an_orbit_bound_walk_every_element(monkeypatch, rep):
    closed = close_group(rep)
    v, walked = walks_of_analyze(monkeypatch, closed)
    assert walked == [coded(g) for g in closed.generators] + list(closed.flat_elements)
    assert v.index > 1 and v == analyze_reference(closed)


def test_orbit_bound_section_holds_the_bound_to_the_full_scan():
    lines, failures = orbit_bound_section(3, 3)
    assert failures == []
    assert lines == ["orbit bound against a full eigenvalue scan: 2286 groups, 667 bounded"]


def test_orbit_bound_section_catches_a_bound_above_the_least_age(monkeypatch):
    least_possible_key = monomial._least_possible_key

    def one_step_high(rep):  # the bound plus one key step, 1/2Nm of age
        key = least_possible_key(rep)
        return None if key is None else key + 1

    monkeypatch.setattr(monomial, "_least_possible_key", one_step_high)
    _, failures = orbit_bound_section(2, 2)
    assert failures and all("is above the least age" in line for line in failures)


def test_order_section_holds_the_group_order_to_a_breadth_first_closure():
    lines, failures = order_section(4, 4)
    assert failures == []
    assert lines == ["group order against a breadth-first closure: 8 groups"]


def test_order_section_catches_a_wrong_order(monkeypatch):
    table_group_order = monomial._table_group_order

    def one_short(tables, nm, cap):
        return table_group_order(tables, nm, cap) - 1

    monkeypatch.setattr(monomial, "_table_group_order", one_short)
    _, failures = order_section(3, 3)
    assert len(failures) == 3 and all("a breadth-first closure 6" in line for line in failures)
