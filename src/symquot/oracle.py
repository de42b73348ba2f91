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
  against which the code-tuple ``monomial.close_group`` is held element
  by element through ``decode_closure``;
- the Terminal Lemma for cyclic 3-fold quotients, ``terminal_lemma``,
  and ``terminal_lemma_sweep``, which holds ``monomial.analyze`` to it;
- ``invariant_dim_burnside``, the Burnside trace average that
  recomputes ``plurigenera.sym_dim``;
- ``growth_exponent_check``, a log-log fit of the plurigenus growth
  exponent. With the numpy routes it is the only floating-point code in
  the package.

``run_selftest`` runs all of them over a range of models and prints one
line per section. numpy is imported inside the functions that use it,
and no engine or CLI command other than ``selftest`` imports this module.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import factorial, gcd, lcm, log
from typing import TYPE_CHECKING

from . import monomial
from .combinatorics import CycleType, class_size, partitions
from .errors import GroupTooLargeError, InsufficientDataError, MatrixTooLargeError, PointsCapError
from .monomial import MonomialElement, MonomialRep, _decode, analyze, close_group, configured_cap
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


def invariant_dim_burnside(p: int, d: int) -> int:
    """Invariant dimension of the d-fold tensor power, by trace averaging.

    (1/d!) * sum over classes of class_size * p^(number of cycles), which
    ``plurigenera.sym_dim`` gives as one binomial. The average is provably
    integral; a non-integral value would mean a bug, so it raises rather
    than rounding. The sum runs over the p(d) partitions of d, so d is
    capped at TABLE_POINTS_CAP, as for the class table, and
    PointsCapError is raised before any work.
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
    d_factorial = factorial(d)
    total = sum(class_size(t, d_factorial) * p**t.num_parts for t in partitions(d))
    average = Fraction(total, d_factorial)
    if average.denominator != 1:
        raise ArithmeticError(
            f"Burnside average is not an integer for p={p}, d={d}: {average}"
        )
    return int(average)


CROSS_ENGINE_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
GROWTH_CASES = tuple((kappa, d) for kappa in (0, 1, 2) for d in (2, 3))
TERMINAL_LEMMA_R_BELOW = 20


def run_selftest(max_dim: int, max_points: int) -> int:
    """Cross-check suite, printed to stdout; returns 0 when clean, 1 on any discrepancy.

    The range is checked before any output: a range with nothing to check
    raises ValueError, and a range past the brute-force matrix cap raises
    MatrixTooLargeError.
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
    started = time.monotonic()

    # numpy and exact eigenvalues of one element per class vs the class table
    for n in range(2, max_dim + 1):
        checked = 0
        for d in range(1, max_points + 1):
            rows = bruteforce_check(n, d)
            checked += len(rows)
            failures.extend(
                f"oracle n={n} d={d} class {row.cycle_type}: {row.detail}"
                for row in rows if not row.passed
            )
        print(f"selftest: oracle n={n}, d=1..{max_points}: {checked} classes")

    # closed-form verdict against a scan of the class table
    for n in range(2, max_dim + 1):
        for d in range(2, max_points + 1):
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
    print(f"selftest: verdict scan n=2..{max_dim}, d=2..{max_points}")

    # generic monomial engine against the closed-form engine; the engine is
    # called through its module, so that a test can patch it
    for n, d in CROSS_ENGINE_PAIRS:
        if n > max_dim or d > max_points:
            continue
        via_group = monomial.analyze(monomial.close_group(materialize_rep(n, d)))
        via_classes = verdict(n, d)
        # the witnesses differ in kind: an element against a cycle type
        if via_group._replace(witness=None) != via_classes._replace(witness=None):
            failures.append(f"cross-engine n={n} d={d}: {via_group} but {via_classes}")
    print("selftest: cross-engine agreement on materialized groups")

    # the monomial engine against the Terminal Lemma for cyclic 3-folds
    cases, mismatches = terminal_lemma_sweep(TERMINAL_LEMMA_R_BELOW)
    failures.extend(f"terminal lemma {line}" for line in mismatches)
    print(f"selftest: Terminal Lemma 1/r(a,b,c), r=2..{TERMINAL_LEMMA_R_BELOW - 1}: "
          f"{cases} cases")

    # symmetric-power dimension identity, two independent routes
    for p in range(0, 11):
        for d in range(1, 11):
            if sym_dim(p, d) != invariant_dim_burnside(p, d):
                failures.append(f"burnside p={p} d={d}: routes disagree")
    print("selftest: Burnside identity p=0..10, d=1..10")

    # asymptotic plurigenus growth
    for kappa, d in GROWTH_CASES:
        rows = [(m, m**kappa) for m in range(2, 61, 2)]
        slope = growth_exponent_check(rows, d)
        allowed = 0.05 if kappa == 0 else 0.2
        if abs(slope - d * kappa) > allowed:
            failures.append(
                f"growth kappa={kappa} d={d}: slope {slope:.4f} vs {d * kappa}"
            )
    print("selftest: plurigenus growth exponents")

    elapsed = time.monotonic() - started
    if failures:
        for line in failures:
            print(f"selftest FAILURE: {line}")
        print(f"selftest: FAILED with {len(failures)} discrepancies ({elapsed:.1f}s)")
        return 1
    print(f"selftest: OK ({elapsed:.1f}s)")
    return 0
