"""Every reference route that the engines are checked against.

The engines decide age, determinant and quasi-reflections from one
integer cycle-sum rule (``monomial.element_age``, ``sympower.class_table``).
This module holds the routes the tests and ``selftest`` compare them with:

- exact eigenvalue exponents of one monomial element,
  ``element_eigen_exponents``, with ``age`` and ``is_quasi_reflection``
  read off the multiset, and the determinant ``det_turn`` from the
  permutation sign. The multiset is invariant under a -> k*a mod r for
  k coprime to r, so the age does not depend on which primitive root the
  exponents are written against;
- numpy eigendecompositions of the explicit complex matrix of an element,
  ``monomial_matrix``, and ``bruteforce_check``, which holds every row of
  ``sympower.class_table`` against the exact and the numpy exponents of
  ``class_element``, the canonical element of the row's class. An
  eigenvalue exp(i * theta) is accepted as eps^a only when
  theta * r / (2 pi) sits within the tolerance of the integer a;
- ``multiply``, the matrix product of two ``MonomialElement`` values,
  and ``close_group_reference``, the breadth-first closure built on it,
  against which the code-tuple ``monomial.close_group`` is held element
  by element through ``decode_closure``;
- the Terminal Lemma for cyclic 3-fold quotients, ``terminal_lemma``,
  and ``terminal_lemma_sweep``, which holds ``monomial.analyze`` to it;
- ``growth_exponent_check``, a log-log fit of the plurigenus growth
  exponent. With the numpy routes it is the only floating-point code in
  the package.

numpy is imported inside the functions that use it, and no engine or
CLI command other than ``selftest`` imports this module.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm, log
from typing import TYPE_CHECKING

from .combinatorics import CycleType
from .errors import GroupTooLargeError, InsufficientDataError, MatrixTooLargeError
from .monomial import (
    MonomialElement,
    MonomialRep,
    _decode,
    analyze,
    close_group,
    configured_cap,
)
from .plurigenera import sym_dim
from .sympower import TABLE_POINTS_CAP, _check_model, class_table

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOLERANCE = 1e-6
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

    Same order and cap rule as ``monomial.close_group``: the identity
    first, each element multiplied on the right by the generators in
    their given order, and GroupTooLargeError before element cap + 1.
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


def terminal_lemma_sweep(r_below: int) -> tuple[int, list[str]]:
    """Hold ``analyze`` to ``terminal_lemma`` on every 1/r(a, b, c), r < r_below.

    Weights run over [1, r) prime to r, ordered triples included.
    Returns the number of cases and one line per disagreement.
    """
    cases = 0
    mismatches = []
    for r in range(2, r_below):
        units = [k for k in range(1, r) if gcd(k, r) == 1]
        for weights in ((a, b, c) for a in units for b in units for c in units):
            gen = MonomialElement((0, 1, 2), weights)
            v = analyze(close_group(MonomialRep(3, r, (gen,))))
            want = terminal_lemma(r, weights)
            if (v.terminal, v.gorenstein) != want:
                mismatches.append(
                    f"1/{r}{weights}: terminal, gorenstein = "
                    f"{v.terminal}, {v.gorenstein}; the lemma gives {want[0]}, {want[1]}"
                )
            cases += 1
    return cases, mismatches


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


def numeric_exponents(
    matrix: np.ndarray, order: int, tolerance: float = DEFAULT_TOLERANCE
) -> tuple[int, ...]:
    """Exponents of a finite-order matrix, recovered from numpy eigenvalues.

    Returns the sorted exponent tuple at the given order. Raises
    RecoveryError when any recovered exponent misses the nearest integer
    by more than ``tolerance``.
    """
    import numpy as np

    eigenvalues = np.linalg.eigvals(matrix)
    exponents = []
    for lam in eigenvalues:
        scaled = (np.angle(lam) / (2.0 * np.pi)) % 1.0 * order
        nearest = round(scaled)
        drift = abs(scaled - nearest)
        if drift > tolerance:
            raise RecoveryError(
                f"eigenvalue {lam:.12g} gives exponent {scaled!r} at order "
                f"{order}, off an integer by {drift:.3g} (tolerance {tolerance:g})"
            )
        exponents.append(nearest % order)
    return tuple(sorted(exponents))


# Outcome of the numeric cross-check for one conjugacy class.
OracleRow = namedtuple("OracleRow", "cycle_type passed detail", defaults=("",))


class OracleReport(namedtuple("OracleReport", "rows")):
    """The ``OracleRow`` of every class that ``bruteforce_check`` checked."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[OracleRow]:
        return [row for row in self.rows if not row.passed]


def check_tolerance(tolerance: float) -> None:
    """ValueError unless 0 < tolerance < 0.5 (nan fails both comparisons)."""
    if not 0 < tolerance < 0.5:
        raise ValueError(f"tolerance must lie strictly between 0 and 0.5, got {tolerance!r}")


def bruteforce_check(
    n: int, d: int, tolerance: float = DEFAULT_TOLERANCE
) -> OracleReport:
    """Verify every row of ``class_table(n, d)`` against the element route.

    For each row the canonical element ``class_element(t, n)`` gives the
    exact exponent multiset (``element_eigen_exponents``) and, from a
    numpy eigendecomposition of its (n*d) x (n*d) matrix, a numeric one;
    the two must agree, and the row's order, exponent sum, age and
    determinant must equal the multiset's and ``det_turn`` exactly.
    Discrepancies are reported per class, never silently dropped.

    A recovered exponent never drifts by more than 0.5 from its nearest
    integer, so a tolerance outside (0, 0.5), nan included, would switch
    the recovery check off; it raises ValueError before any work.
    """
    check_tolerance(tolerance)
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
            numeric = numeric_exponents(monomial_matrix(g, 1), constructed.order, tolerance)
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
    return OracleReport(rows=tuple(rows))


def growth_exponent_check(rows: Sequence[tuple[int, int]], d: int) -> float:
    """Fitted growth exponent of the symmetric-power plurigenera.

    Maps each (m, P_m) row to P_m(symmetric power) and fits a log-log
    least-squares line. The exponent being estimated is asymptotic, so
    the fit uses the large-m half of the usable rows; the small-m head
    still bends the log-log line through lower-order terms. Returns the
    slope.
    """
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    usable = []
    for m, p_m in rows:
        p_sigma = sym_dim(p_m, d)
        if m >= 1 and p_sigma >= 1:
            usable.append((m, p_sigma))
    usable.sort()
    if len(usable) < 3:
        raise InsufficientDataError(
            f"growth fit needs at least 3 valid rows, got {len(usable)}"
        )
    tail = usable[-max(3, len(usable) // 2):]
    if len({m for m, _ in tail}) < 2:
        raise InsufficientDataError("growth fit needs at least 2 distinct m values")
    # log accepts arbitrary-size ints, so huge binomials are fine
    xs = [log(m) for m, _ in tail]
    ys = [log(p) for _, p in tail]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    covariance = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return covariance / sum((x - x_mean) ** 2 for x in xs)
