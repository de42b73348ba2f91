"""Group closure and the verdict engine on explicit monomial groups."""

from fractions import Fraction
from math import lcm

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
    rep_from_dict,
)
from symquot.combinatorics import partitions
from symquot.monomial import (
    DIMENSION_CAP,
    ROOT_ORDER_BITS_CAP,
    MonomialElement,
    MonomialRep,
    element_age,
)
from symquot.oracle import (
    EigenExponents,
    age,
    class_element,
    close_group_reference,
    decode_closure,
    det_turn,
    element_eigen_exponents,
    identity,
    is_quasi_reflection,
    materialize_rep,
    monomial_matrix,
    multiply,
    numeric_exponents,
    terminal_lemma,
    terminal_lemma_sweep,
)


def diag_rep(root_order, exps):
    gen = MonomialElement(tuple(range(len(exps))), tuple(exps))
    return MonomialRep(dimension=len(exps), root_order=root_order, generators=(gen,))


def zeta4_swap_rep():
    # e_1 -> zeta_4 e_2, e_2 -> e_1; the square is zeta_4 times the identity
    gen = MonomialElement((1, 0), (1, 0))
    return MonomialRep(dimension=2, root_order=4, generators=(gen,))


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


def test_closure_order_is_breadth_first_by_generator():
    # the witness reported by analyze is the first least-age element in this order
    closed = close_group(wreath_rep(2))
    assert describe_all(decode_closure(closed)) == [
        "perm[1,2,3,4] exp[0,0,0,0]",
        "perm[3,4,1,2] exp[0,0,0,0]",
        "perm[1,2,3,4] exp[1,1,0,0]",
        "perm[3,4,1,2] exp[1,1,0,0]",
        "perm[3,4,1,2] exp[0,0,1,1]",
        "perm[1,2,3,4] exp[0,0,1,1]",
        "perm[3,4,1,2] exp[1,1,1,1]",
        "perm[1,2,3,4] exp[1,1,1,1]",
    ]


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
    for t in partitions(d):
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
    for t in partitions(d):
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


# The code-tuple closure against the MonomialElement reference closure:
# same elements, in the same order, under the same cap.


def describe_all(elements):
    return [g.describe() for g in elements]


def assert_same_closure(rep, cap=None):
    try:
        reference = close_group_reference(rep, cap)
    except GroupTooLargeError:
        with pytest.raises(GroupTooLargeError):
            close_group(rep, cap)
        return
    closed = close_group(rep, cap)
    assert decode_closure(closed) == reference


@pytest.mark.parametrize("make_rep", ORACLE_GROUPS.values(), ids=ORACLE_GROUPS.keys())
def test_flat_closure_matches_reference_order(make_rep):
    assert_same_closure(make_rep())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_flat_closure_matches_reference_on_random_groups(data):
    size, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
    gens = [draw_element(data.draw, size, m) for _ in range(data.draw(st.integers(1, 3)))]
    rep = MonomialRep(dimension=size, root_order=m, generators=tuple(gens))
    assert_same_closure(rep, cap=3000)


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
        "m-2-pow-70",
    ],
)
def test_flat_closure_matches_reference_on_edge_cases(rep):
    assert_same_closure(rep)


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
    # code[i] = N * exponents[i] + perm[i]: (1 2) with exponents (1, 0) over N = 2
    closed = close_group(zeta4_swap_rep())
    assert closed.flat_elements[:2] == ((0, 1), (3, 0))
    assert decode_closure(closed)[:2] == (
        identity(2),
        MonomialElement((1, 0), (1, 0)),
    )
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
    """A monomial group on C^1..C^4 with root order m <= 12 and 1..3 generators."""
    size = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
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
