"""Every reference route that the engines are checked against, and the suite.

The engines decide age, determinant and quasi-reflections from one
integer cycle-sum rule (``monomial.element_age``, ``sympower.class_table``).
This module holds the routes the tests and ``run_selftest`` compare them with:

- exact eigenvalue exponents of one monomial element,
  ``element_eigen_exponents``, with ``age`` and ``is_quasi_reflection``
  read off the multiset, and the determinant ``det_turn`` from the
  permutation sign. The multiset is invariant under a -> k*a mod r for
  k coprime to r, so the age does not depend on which primitive root the
  exponents are written against;
- numpy eigendecompositions of the explicit complex matrix of an element,
  ``monomial_matrix``, and ``bruteforce_check``, which holds every row of
  ``sympower.class_table`` against the exact and the numpy exponents of
  ``class_element``, the canonical element of the row's class, and
  returns one ``OracleRow`` per class. An eigenvalue exp(i * theta) is
  accepted as eps^a only when theta * r / (2 pi) sits within the fixed
  ``TOLERANCE`` of the integer a;
- ``materialize_rep``, the model S_d on n blocks as an explicit group
  generated by ``class_element`` values, for ``monomial.analyze`` to
  hold against ``sympower.verdict``;
- ``multiply``, the matrix product of two ``MonomialElement`` values,
  and ``close_group_reference``, the breadth-first closure built on it,
  against which ``monomial.close_group`` (Dimino's cosets, in another
  order, with the order |P| * |A| and the cap decided before any walk) is
  held as a set, with the same length and the same cap outcome,
  through ``decode_closure``, on bytes of row codes (N * m <= 256) and on
  tuples of column codes alike. ``order_section`` holds the order that
  ``close_group`` gives to the length of the reference's closure;
- the Terminal Lemma for cyclic 3-fold quotients, ``terminal_lemma``,
  and ``terminal_lemma_sweep``, which holds ``monomial.analyze`` to it on
  the groups of ``terminal_lemma_groups``;
- ``analyze_reference``, the verdict of ``monomial.analyze`` by a full
  scan of every element on the eigenvalue route, against which the
  engine's early-stopping scan is held, and the least age it reads off
  the coordinate orbits, on groups and their gauged ``copies_rep``;
- ``invariant_dim_burnside``, the Burnside trace average that
  recomputes ``plurigenera.sym_dim`` from the class sizes of
  ``combinatorics.conjugacy_classes``, so the exact identity checks every
  size the walk yields for d <= 10;
- ``growth_degree``, the exact degree in m of the symmetric-power
  plurigenera, read off their divided differences.

The numpy eigenvalue check is the only floating-point code in the package.

The selftest is the tuple ``SELFTEST_SECTIONS``: oracle, verdict scan,
cross-engine, Terminal Lemma, full scan, orbit bound, group order,
Burnside and growth. Each section is a function of the range
``(max_dim, max_points)`` that returns ``(summary_lines,
failure_lines)``, so a test can run the one section it checks.
``run_selftest`` checks the range, runs the sections in order, prints
their lines and tallies their failures. A new check is one more
entry in the tuple. Every engine call goes through the ``monomial``
module, so a patch of ``monomial.analyze`` reaches every section. numpy is
imported inside the functions that use it, and no engine or CLI command
other than ``selftest`` imports this module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import TYPE_CHECKING

from . import monomial
from .combinatorics import CycleType, conjugacy_classes
from .errors import GroupTooLargeError, MatrixTooLargeError, PointsCapError, QuasiReflectionError
from .monomial import MonomialElement, MonomialRep, SingularityVerdict, _decode, configured_cap
from .plurigenera import sym_dim
from .sympower import TABLE_POINTS_CAP, _check_model, class_table, verdict

if TYPE_CHECKING:
    import numpy as np

TOLERANCE = 1e-6  # the worst drift seen, for n*d <= 64, is about 1e-14
MATRIX_SIZE_CAP = 64


class EigenExponents(namedtuple("EigenExponents", "order exponents")):
    """Multiset of eigenvalue exponents at a fixed order.

    Exponents are normalized to a sorted tuple and must lie in [0, order).
    """

    __slots__ = ()

    def __new__(cls, order, exponents):
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        exponents = tuple(sorted(exponents))
        if exponents and not (0 <= exponents[0] and exponents[-1] < order):
            raise ValueError(f"exponents must lie in [0, {order}): {exponents}")
        return super().__new__(cls, order, exponents)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` validates too
        return cls(*iterable)

    @property
    def dimension(self) -> int:
        return len(self.exponents)


def age(e: EigenExponents) -> tuple[int, Fraction]:
    """Exponent sum S and the age S/order, as (int, exact Fraction)."""
    s = sum(e.exponents)
    return s, Fraction(s, e.order)


def is_quasi_reflection(e: EigenExponents) -> bool:
    """True iff exactly one eigenvalue differs from 1 (fixes a hyperplane)."""
    return sum(1 for a in e.exponents if a) == 1


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        cycles.append(cycle)
    return cycles


def element_eigen_exponents(g: MonomialElement, root_order: int) -> EigenExponents:
    """Exact eigenvalue exponents of ``g`` at its own order.

    Each length-l cycle with entry-exponent sum K contributes the l-th
    roots of zeta_m^K: turn fractions (K + m*j) / (m*l) for j < l. The
    element order is the lcm of the reduced denominators, and every
    fraction rescales to an integer exponent at that order.
    """
    m = root_order
    turns: list[Fraction] = []
    for cycle in _cycles(g.perm):
        length = len(cycle)
        k_sum = sum(g.exponents[i] for i in cycle) % m
        for j in range(length):
            turns.append(Fraction(k_sum + m * j, m * length))
    order = lcm(*(f.denominator for f in turns))
    exps = tuple(int(f * order) for f in turns)
    return EigenExponents(order, exps)


def class_element(t: CycleType, n: int) -> MonomialElement:
    """The canonical permutation of cycle type ``t`` on each of n blocks of C^(n*d).

    Block b holds indices b*d .. b*d + d - 1, its cycles run over
    consecutive indices in the order of ``t.parts``, and every exponent
    is 0.
    """
    if n < 1:
        raise ValueError(f"number of copies must be positive, got {n}")
    perm = []
    for part in t.parts * n:
        base = len(perm)
        perm.extend(base + (j + 1) % part for j in range(part))
    return MonomialElement(tuple(perm), (0,) * len(perm))


def materialize_rep(n: int, d: int) -> MonomialRep:
    """The model S_d on n blocks as an explicit monomial group on C^(n*d).

    The generators are ``class_element`` of a transposition and of a
    d-cycle, which generate S_d; they coincide at d = 2, and d = 1 needs
    none. Quasi-reflection screening is left to the analyzer, so n = 1 is
    allowed here.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    types = dict.fromkeys([(2,) + (1,) * (d - 2), (d,)]) if d > 1 else {}
    gens = tuple(class_element(CycleType(t), n) for t in types)
    return MonomialRep(dimension=n * d, root_order=1, generators=gens)


def det_turn(g: MonomialElement, root_order: int) -> Fraction:
    """det(g) as an exact fraction of a full turn: det = exp(2 pi i turn).

    sign(perm) * zeta_m^{sum(exponents)}.
    """
    turn = Fraction(sum(g.exponents), root_order)
    if (len(g.perm) - len(_cycles(g.perm))) % 2:
        turn += Fraction(1, 2)
    return turn % 1


def identity(dimension: int) -> MonomialElement:
    """The identity matrix on C^dimension."""
    return MonomialElement(tuple(range(dimension)), (0,) * dimension)


def multiply(a: MonomialElement, b: MonomialElement, root_order: int) -> MonomialElement:
    """Matrix product a @ b: e_i -> zeta^{b_i} e_{pb(i)} -> ... under a."""
    size = len(b.perm)
    perm = tuple(a.perm[b.perm[i]] for i in range(size))
    exps = tuple(
        (b.exponents[i] + a.exponents[b.perm[i]]) % root_order for i in range(size)
    )
    return MonomialElement(perm, exps)


def close_group_reference(
    rep: MonomialRep, cap: int | None = None
) -> tuple[MonomialElement, ...]:
    """Breadth-first closure over ``MonomialElement`` values.

    The identity first, each element multiplied on the right by the
    generators in their given order, and GroupTooLargeError before
    element max(cap, 1) + 1, the same cap rule as ``monomial.close_group``.
    The order is not that of ``close_group``, which builds the group from
    cosets, so the two closures are compared as sets.
    """
    cap = configured_cap(cap)
    ident = identity(rep.dimension)
    seen = {ident}
    ordered = [ident]
    for current in ordered:
        for gen in rep.generators:
            product = multiply(current, gen, rep.root_order)
            if product in seen:
                continue
            if len(seen) >= cap:
                raise GroupTooLargeError(
                    f"group closure exceeded the cap of {cap} elements", cap=cap
                )
            seen.add(product)
            ordered.append(product)
    return tuple(ordered)


def decode_closure(rep: MonomialRep) -> tuple[MonomialElement, ...]:
    """The closed group's elements as ``MonomialElement`` values, in closure order."""
    if rep.flat_elements is None:
        raise ValueError("group is not closed yet; call close_group first")
    return tuple(_decode(code, rep.dimension) for code in rep.flat_elements)


def terminal_lemma(r: int, weights: tuple[int, int, int]) -> tuple[bool, bool]:
    """(terminal, Gorenstein) for 1/r(a, b, c) with every weight prime to r.

    Terminal Lemma (White 1964; Morrison-Stevens 1984): such a quotient
    is terminal iff two of the weights sum to 0 mod r. It is Gorenstein
    iff a + b + c = 0 mod r.
    """
    a, b, c = weights
    terminal = (a + b) % r == 0 or (a + c) % r == 0 or (b + c) % r == 0
    return terminal, (a + b + c) % r == 0


def terminal_lemma_groups(r_below: int) -> Iterator[tuple[int, tuple[int, int, int], MonomialRep]]:
    """Every 1/r(a, b, c) with 2 <= r < r_below and each weight in [1, r) prime to r.

    Yields (r, weights, the unclosed cyclic group on C^3), ordered triples
    included.
    """
    for r in range(2, r_below):
        units = [k for k in range(1, r) if gcd(k, r) == 1]
        for weights in ((a, b, c) for a in units for b in units for c in units):
            yield r, weights, MonomialRep(3, r, (MonomialElement((0, 1, 2), weights),))


def terminal_lemma_sweep(r_below: int) -> tuple[int, list[str]]:
    """Hold ``monomial.analyze`` to ``terminal_lemma`` on ``terminal_lemma_groups(r_below)``.

    Returns the number of cases and one line per disagreement.
    """
    cases = 0
    mismatches = []
    for r, weights, rep in terminal_lemma_groups(r_below):
        v = monomial.analyze(monomial.close_group(rep))
        want = terminal_lemma(r, weights)
        if (v.terminal, v.gorenstein) != want:
            mismatches.append(
                f"1/{r}{weights}: terminal, gorenstein = "
                f"{v.terminal}, {v.gorenstein}; the lemma gives {want[0]}, {want[1]}"
            )
        cases += 1
    return cases, mismatches


def analyze_reference(rep: MonomialRep) -> SingularityVerdict:
    """``monomial.analyze`` by the eigenvalue route, every element scanned in full.

    Walks ``decode_closure(rep)`` in closure order. Ages come from
    ``element_eigen_exponents``, quasi-reflections from
    ``is_quasi_reflection``, and the index is the order of the determinant
    character: the lcm of the ``det_turn`` denominators over the whole
    group. The witness is the first element of least age. Quasi-reflections
    raise the engine's QuasiReflectionError, with the same message and
    ``elements``.
    """
    elements = decode_closure(rep)
    quasi = []
    index = 1
    least = witness = None
    for g in elements:
        index = lcm(index, det_turn(g, rep.root_order).denominator)
        exps = element_eigen_exponents(g, rep.root_order)
        if not any(exps.exponents):  # every eigenvalue 1: the identity
            continue
        if is_quasi_reflection(exps):
            quasi.append(g.describe())
        g_age = age(exps)[1]
        if least is None or g_age < least:
            least, witness = g_age, g
    if quasi:
        raise QuasiReflectionError(
            f"group contains {len(quasi)} quasi-reflection(s): " + "; ".join(quasi),
            elements=tuple(quasi),
        )
    return SingularityVerdict(
        index=index,
        group_order=len(elements),
        min_age=least,
        witness=None if witness is None else witness.describe(),
    )


def scan_outcome(
    scan: Callable[[MonomialRep], SingularityVerdict], closed: MonomialRep
) -> SingularityVerdict | str:
    """``scan(closed)``, or the message and elements of its QuasiReflectionError."""
    try:
        return scan(closed)
    except QuasiReflectionError as exc:
        return f"QuasiReflectionError({exc}, elements={exc.elements})"


class RecoveryError(ValueError):
    """An eigenvalue argument did not land near an integer exponent."""


def monomial_matrix(g: MonomialElement, root_order: int) -> np.ndarray:
    """The complex matrix of ``g``: entry (perm[i], i) is zeta_m^{exponents[i]}."""
    import numpy as np

    size = len(g.perm)
    mat = np.zeros((size, size), dtype=complex)
    for i, (image, k) in enumerate(zip(g.perm, g.exponents)):
        mat[image, i] = np.exp(2j * np.pi * (k / root_order))
    return mat


def numeric_exponents(matrix: np.ndarray, order: int) -> tuple[int, ...]:
    """Exponents of a finite-order matrix, recovered from numpy eigenvalues.

    Returns the sorted exponent tuple at the given order. Raises
    RecoveryError when any recovered exponent misses the nearest integer
    by more than ``TOLERANCE``.
    """
    import numpy as np

    eigenvalues = np.linalg.eigvals(matrix)
    exponents = []
    for lam in eigenvalues:
        scaled = (np.angle(lam) / (2.0 * np.pi)) % 1.0 * order
        nearest = round(scaled)
        drift = abs(scaled - nearest)
        if drift > TOLERANCE:
            raise RecoveryError(
                f"eigenvalue {lam:.12g} gives exponent {scaled!r} at order "
                f"{order}, off an integer by {drift:.3g} (tolerance {TOLERANCE:g})"
            )
        exponents.append(nearest % order)
    return tuple(sorted(exponents))


# Outcome of the numeric cross-check for one conjugacy class.
OracleRow = namedtuple("OracleRow", "cycle_type passed detail", defaults=("",))


def bruteforce_check(n: int, d: int) -> tuple[OracleRow, ...]:
    """Verify every row of ``class_table(n, d)`` against the element route.

    For each row the canonical element ``class_element(t, n)`` gives the
    exact exponent multiset (``element_eigen_exponents``) and, from a
    numpy eigendecomposition of its (n*d) x (n*d) matrix, a numeric one;
    the two must agree, and the row's order, exponent sum, age and
    determinant must equal the multiset's and ``det_turn`` exactly.
    Returns one ``OracleRow`` per class, in class-table order, so a
    discrepancy is reported with its class and never silently dropped.
    """
    _check_model(n, d, TABLE_POINTS_CAP, "class-table")
    if n * d > MATRIX_SIZE_CAP:
        raise MatrixTooLargeError(
            f"brute-force matrix would be {n * d} x {n * d}, over the cap "
            f"of {MATRIX_SIZE_CAP}"
        )
    rows = []
    for row in class_table(n, d):
        t = row.cycle_type
        g = class_element(t, n)
        constructed = element_eigen_exponents(g, 1)
        try:
            numeric = numeric_exponents(monomial_matrix(g, 1), constructed.order)
        except RecoveryError as exc:
            rows.append(OracleRow(t, False, f"exponent recovery failed: {exc}"))
            continue
        want = (constructed.order, *age(constructed), det_turn(g, 1) == 0)
        got = (row.order, row.s_sum, row.age, row.det_is_plus_one)
        if numeric != constructed.exponents:
            rows.append(
                OracleRow(
                    t,
                    False,
                    f"exponent multisets differ: numeric {numeric} vs "
                    f"constructed {constructed.exponents}",
                )
            )
        elif got != want:
            rows.append(
                OracleRow(
                    t,
                    False,
                    f"closed form disagrees: (order, S, age, det +1) is {got} in the "
                    f"class table vs {want} from the multiset",
                )
            )
        else:
            rows.append(OracleRow(t, True))
    return tuple(rows)


def growth_degree(rows: list[tuple[int, int]], d: int) -> int:
    """Exact degree in m of the symmetric-power plurigenera of ``rows``.

    Maps each (m, P_m) row to P_m(sym^d) = ``sym_dim(P_m, d)`` and takes
    exact divided differences over the m values; on equally spaced m they
    are the integer finite differences divided by k! * h^k. Returns the
    degree D: the D-th differences are a nonzero constant and the
    (D+1)-th are all zero, so D + 2 rows are needed. Raises ValueError
    for a repeated m, for rows that never reach a zero difference (too
    few for their degree, or not a polynomial in m) and for all-zero
    values, which have no degree; ``sym_dim`` rejects a d below 1.
    """
    points = sorted((m, sym_dim(p_m, d)) for m, p_m in rows)
    ms = [m for m, _ in points]
    if len(set(ms)) < len(ms):
        raise ValueError(f"growth degree needs distinct m, got {ms}")
    column = [Fraction(value) for _, value in points]
    if not any(column):
        raise ValueError("no row has a nonzero plurigenus, so there is no degree")
    for degree in range(len(column) - 1):
        spans = [high - low for low, high in zip(ms, ms[degree + 1:])]
        column = [(b - a) / span for a, b, span in zip(column, column[1:], spans)]
        if not any(column):
            return degree
    raise ValueError(
        f"{len(ms)} rows never reach a zero difference: too few for their degree, "
        "or not a polynomial in m"
    )


def invariant_dim_burnside(p: int, d: int) -> int:
    """Invariant dimension of the d-fold tensor power, by trace averaging.

    (1/d!) * sum over classes of class size * p^(number of cycles), which
    ``plurigenera.sym_dim`` gives as one binomial. The sizes are those of
    ``combinatorics.conjugacy_classes``, which the identity thereby checks.
    The average is provably integral; a non-integral value would mean a
    bug, so it raises rather than rounding. The sum runs over the p(d)
    partitions of d, so d is capped at TABLE_POINTS_CAP, as for the class
    table, and PointsCapError is raised before any work.
    """
    if p < 0:
        raise ValueError(f"space dimension must be >= 0, got {p}")
    if d < 1:
        raise ValueError(f"tensor power degree must be >= 1, got {d}")
    if d > TABLE_POINTS_CAP:
        raise PointsCapError(
            f"tensor power degree {d} exceeds the Burnside-average cap of {TABLE_POINTS_CAP}",
            cap=TABLE_POINTS_CAP,
        )
    total = sum(size * p**t.num_parts for t, size, _ in conjugacy_classes(d))
    average = Fraction(total, factorial(d))
    if average.denominator != 1:
        raise ArithmeticError(
            f"Burnside average is not an integer for p={p}, d={d}: {average}"
        )
    return int(average)


CROSS_ENGINE_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
GROWTH_CASES = tuple((kappa, d) for kappa in (0, 1, 2) for d in (2, 3))
# The m of each growth case's rows (m, m**kappa): the primes below 60.
# Unequally spaced, so only differences divided by their m spans vanish
# past the degree; at least d * kappa + 2 = 8 of them for kappa = 2, d = 3.
GROWTH_LEVELS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
TERMINAL_LEMMA_R_BELOW = 20
# The groups on which the engine's scan is held to a full eigenvalue scan:
# 1/r(a,b,c) for r below 12, and S_d on n blocks for d up to 4 and n = 1
# (reflection groups) up to --max-dim. The full scan costs some 25 us an
# element: r below 12 is 16 034 elements and 0.4 s, r below 20 would be
# 242 000 elements and 6 s.
FULL_SCAN_R_BELOW = 12
FULL_SCAN_MAX_POINTS = 4
# The orbit bound is held to the full scan on the full-scan groups and on
# two and three copies of those with m below 8: 1/r(a,b,c) for r < 8 and
# every S_d model.
ORBIT_BOUND_M_BELOW = 8
ORBIT_BOUND_COPIES = (2, 3)


def oracle_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """numpy and exact eigenvalues of one element per class vs the class table."""
    lines, failures = [], []
    for n in range(2, max_dim + 1):
        checked = 0
        for d in range(1, max_points + 1):
            rows = bruteforce_check(n, d)
            checked += len(rows)
            failures.extend(
                f"oracle n={n} d={d} class {row.cycle_type}: {row.detail}"
                for row in rows if not row.passed
            )
        lines.append(f"oracle n={n}, d=1..{max_points}: {checked} classes")
    return lines, failures


def verdict_scan_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """Closed-form verdict against a scan of the class table."""
    models, failures = 0, []
    for n in range(2, max_dim + 1):
        for d in range(2, max_points + 1):
            models += 1
            v = verdict(n, d)
            rows = class_table(n, d)
            least = min((r for r in rows if not r.cycle_type.is_identity()),
                        key=lambda r: r.age)
            scanned = (least.age, str(least.cycle_type), least.age >= 1, least.age > 1,
                       1 if all(r.det_is_plus_one for r in rows) else 2)
            got = (v.min_age, v.witness, v.canonical, v.terminal, v.index)
            if got != scanned:
                failures.append(f"verdict n={n} d={d}: {got} but the scan gives {scanned}")
            if v.min_age * 2 != n or v.index != 1 + n % 2:
                failures.append(
                    f"verdict n={n} d={d}: min age {v.min_age}, index {v.index}, "
                    f"expected {n}/2 and {1 + n % 2}"
                )
    return [f"verdict scan n=2..{max_dim}, d=2..{max_points}: {models} models"], failures


def cross_engine_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """The generic monomial engine against the closed-form engine."""
    groups, failures = 0, []
    for n, d in CROSS_ENGINE_PAIRS:
        if n > max_dim or d > max_points:
            continue
        groups += 1
        via_group = monomial.analyze(monomial.close_group(materialize_rep(n, d)))
        via_classes = verdict(n, d)
        # the witnesses differ in kind: an element against a cycle type
        if via_group._replace(witness=None) != via_classes._replace(witness=None):
            failures.append(f"cross-engine n={n} d={d}: {via_group} but {via_classes}")
    return [f"cross-engine agreement on materialized groups: {groups} groups"], failures


def terminal_lemma_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """The monomial engine against the Terminal Lemma for cyclic 3-folds; the range is unused."""
    cases, mismatches = terminal_lemma_sweep(TERMINAL_LEMMA_R_BELOW)
    return (
        [f"Terminal Lemma 1/r(a,b,c), r=2..{TERMINAL_LEMMA_R_BELOW - 1}: {cases} cases"],
        [f"terminal lemma {line}" for line in mismatches],
    )


def full_scan_groups(max_dim: int, max_points: int) -> list[tuple[str, MonomialRep]]:
    """The labelled groups of ``full_scan_section``: 1/r(a,b,c), then S_d on n blocks."""
    groups = [
        (f"1/{r}{weights}", rep) for r, weights, rep in terminal_lemma_groups(FULL_SCAN_R_BELOW)
    ]
    return groups + [
        (f"n={n} d={d}", materialize_rep(n, d))
        for n in range(1, max_dim + 1)
        for d in range(1, min(max_points, FULL_SCAN_MAX_POINTS) + 1)
    ]


def full_scan_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """The monomial engine, whose scan stops early, against a full eigenvalue scan."""
    groups = full_scan_groups(max_dim, max_points)
    failures = []
    for label, rep in groups:
        closed = monomial.close_group(rep)
        got = scan_outcome(monomial.analyze, closed)
        want = scan_outcome(analyze_reference, closed)
        if got != want:
            failures.append(f"full scan {label}: analyze gives {got}, the full scan {want}")
    return [f"analyze against a full eigenvalue scan: {len(groups)} groups"], failures


def copies_rep(rep: MonomialRep, k: int) -> MonomialRep:
    """k copies of ``rep`` on C^(k * N), each gauged by a diagonal and interleaved.

    Coordinate i of copy j is k * i + j, and copy j is conjugated by the
    diagonal zeta^(j * i), which turns exponent e_i into e_i + j * (g(i) - i).
    The copies are one class of orbits for every orbit of ``rep``.
    """
    n, m = rep.dimension, rep.root_order
    gens = []
    for g in rep.generators:
        perm, exps = [0] * (k * n), [0] * (k * n)
        for j in range(k):
            for i, (image, e) in enumerate(zip(g.perm, g.exponents)):
                perm[k * i + j] = k * image + j
                exps[k * i + j] = (e + j * (image - i)) % m
        gens.append(MonomialElement(tuple(perm), tuple(exps)))
    return MonomialRep(dimension=k * n, root_order=m, generators=tuple(gens))


def orbit_bound_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """The least age the monomial engine reads off coordinate orbits, against a full scan.

    On the full-scan groups, and on ``ORBIT_BOUND_COPIES`` copies of those
    of root order below ``ORBIT_BOUND_M_BELOW``, each group with generators
    that ``monomial._least_possible_key`` bounds must have no
    quasi-reflection and no element of a smaller age.
    """
    groups = full_scan_groups(max_dim, max_points)
    groups += [
        (f"{k} copies of {label}", copies_rep(rep, k))
        for label, rep in groups if rep.root_order < ORBIT_BOUND_M_BELOW
        for k in ORBIT_BOUND_COPIES
    ]
    bounded, failures = 0, []
    for label, rep in groups:
        if not rep.generators:  # the trivial group has no element to bound
            continue
        closed = monomial.close_group(rep)
        key = monomial._least_possible_key(closed)
        if key is None:
            continue
        bounded += 1
        bound = Fraction(key, 2 * closed.dimension * closed.root_order)
        want = scan_outcome(analyze_reference, closed)
        if isinstance(want, str):
            failures.append(f"orbit bound {label}: the bound is {bound}, but the full scan {want}")
        elif want.min_age is not None and bound > want.min_age:
            failures.append(
                f"orbit bound {label}: the bound {bound} is above the least age {want.min_age}"
            )
    return [f"orbit bound against a full eigenvalue scan: {len(groups)} groups, "
            f"{bounded} bounded"], failures


def order_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """The group order of ``monomial.close_group`` against the length of a breadth-first closure.

    On the full-scan and cross-engine groups with two generators or more,
    on row codes (N * m <= 256), and, once ``max_dim`` reaches its N = 4,
    on mu_65 wr S_2 on (C^2)^2, the block swap and diag(zeta, 1/zeta, 1, 1),
    whose 8 450 elements are on column codes (N * m = 260).
    ``close_group`` takes the order as |P| * |A| before any walk;
    ``close_group_reference`` walks every element.
    """
    pairs = [(n, d) for n, d in CROSS_ENGINE_PAIRS if n <= max_dim and d <= max_points]
    labelled = full_scan_groups(max_dim, max_points) + [
        (f"n={n} d={d}", materialize_rep(n, d)) for n, d in pairs
    ]
    if max_dim >= 4:
        wreath = MonomialRep(4, 65, (MonomialElement((2, 3, 0, 1), (0, 0, 0, 0)),
                                     MonomialElement((0, 1, 2, 3), (1, 64, 0, 0))))
        labelled.append(("mu_65 wr S_2", wreath))
    groups = {rep: label for label, rep in labelled if len(rep.generators) > 1}
    failures = []
    for rep, label in groups.items():
        got = len(monomial.close_group(rep).flat_elements)
        want = len(close_group_reference(rep))
        if got != want:
            failures.append(
                f"order {label}: close_group gives {got}, a breadth-first closure {want}"
            )
    return [f"group order against a breadth-first closure: {len(groups)} groups"], failures


def burnside_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """The symmetric-power dimension identity by two independent routes; the range is unused."""
    failures = [
        f"burnside p={p} d={d}: routes disagree"
        for p in range(0, 11)
        for d in range(1, 11)
        if sym_dim(p, d) != invariant_dim_burnside(p, d)
    ]
    return ["Burnside identity p=0..10, d=1..10"], failures


def growth_section(max_dim: int, max_points: int) -> tuple[list[str], list[str]]:
    """Plurigenus growth: P_m(sym^d) has degree exactly d * kappa in m; the range is unused."""
    failures = []
    for kappa, d in GROWTH_CASES:
        try:
            degree = growth_degree([(m, m**kappa) for m in GROWTH_LEVELS], d)
        except ValueError as exc:  # the rows are exact polynomials, so this is a fault
            failures.append(f"growth kappa={kappa} d={d}: {exc}")
            continue
        if degree != d * kappa:
            failures.append(f"growth kappa={kappa} d={d}: degree {degree}, expected {d * kappa}")
    return ["plurigenus growth exponents"], failures


# The selftest sections, in the order they print.
SELFTEST_SECTIONS = (
    oracle_section,
    verdict_scan_section,
    cross_engine_section,
    terminal_lemma_section,
    full_scan_section,
    orbit_bound_section,
    order_section,
    burnside_section,
    growth_section,
)


def run_selftest(max_dim: int, max_points: int) -> int:
    """Run ``SELFTEST_SECTIONS`` over a range; returns 0 when clean, 1 on any discrepancy.

    Prints each section's summary lines as it finishes, then every failure
    line, then the verdict. The range is checked before any output: a range
    with nothing to check raises ValueError, and a range past the
    brute-force matrix cap raises MatrixTooLargeError.
    """
    if max_dim < 2 or max_points < 1:
        raise ValueError(
            f"selftest needs --max-dim >= 2 and --max-points >= 1, got {max_dim} and {max_points}"
        )
    if max_dim * max_points > MATRIX_SIZE_CAP:
        raise MatrixTooLargeError(
            f"selftest range needs brute-force matrices of size --max-dim * --max-points "
            f"= {max_dim} * {max_points}, over the cap of {MATRIX_SIZE_CAP}"
        )
    failures: list[str] = []
    for section in SELFTEST_SECTIONS:
        lines, found = section(max_dim, max_points)
        for line in lines:
            print(f"selftest: {line}")
        failures += found
    if failures:
        for line in failures:
            print(f"selftest FAILURE: {line}")
        print(f"selftest: FAILED with {len(failures)} discrepancies")
        return 1
    print("selftest: OK")
    return 0
