"""Closed-form analysis of the local model of d-th symmetric powers.

The model near a maximal-diagonal point is C^(n*d) / S_d with S_d
permuting n blocks of coordinates, i.e. n copies of the permutation
action on C^d. By the cycle-sum rule of ``monomial`` with all exponents
zero, an element of cycle type t has age n * (d - #parts(t)) / 2. The
least non-identity age is therefore n/2, reached only at the
transpositions (2,1^{d-2}); they generate S_d, so the index is the
denominator of n/2. ``verdict`` returns this without a scan.
``class_table`` lists one row per cycle type, ``materialize_rep`` builds
the same group explicitly for cross-checking against the generic
monomial engine, and ``bruteforce_check`` verifies the constructions
against numpy eigendecompositions class by class.

Two caps on d are checked before any work: ``VERDICT_POINTS_CAP`` keeps
d! printable, and ``TABLE_POINTS_CAP`` bounds the p(d) rows of a class
table.

Stabilizers at non-maximal points are products of smaller symmetric
groups, so their local models are products of smaller instances of this
one and need no separate scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import oracle
from .ages import (
    AgeRecord,
    age,
    age_closed_form,
    age_record,
    cycle_eigen_exponents,
    nfold,
)
from .combinatorics import CycleType, element_order, partitions
from .errors import MatrixTooLargeError, PointsCapError, UnsupportedDimensionError
from .monomial import MonomialElement, MonomialRep, SingularityVerdict

MATRIX_SIZE_CAP = 64
VERDICT_POINTS_CAP = 1000  # d! stays far below Python's 4300-digit int->str limit
TABLE_POINTS_CAP = 50  # p(50) = 204226 classes


def _check_model(n: int, d: int, cap: int, what: str) -> None:
    """Validate (n, d) for the model before any work, with d capped at ``cap``."""
    if n < 2:
        raise UnsupportedDimensionError(
            f"dim {n} is unsupported: with dim < 2 the transpositions act as "
            "quasi-reflections, so the age criterion does not apply"
        )
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    if d > cap:
        raise PointsCapError(f"{d} points exceed the {what} cap of {cap}", cap=cap)


def verdict(n: int, d: int) -> SingularityVerdict:
    """Singularity verdict for n copies of the S_d permutation action.

    No scan: the least age n/2 sits at the transpositions, which generate
    S_d, so the index is the denominator of n/2.
    """
    _check_model(n, d, VERDICT_POINTS_CAP, "verdict")
    if d == 1:
        # trivial group: a smooth point
        return SingularityVerdict(
            canonical=True,
            terminal=True,
            gorenstein=True,
            index=1,
            group_order=1,
            min_age=None,
            witness=None,
        )
    min_age = Fraction(n, 2)
    return SingularityVerdict(
        canonical=min_age >= 1,
        terminal=min_age > 1,
        gorenstein=min_age.denominator == 1,
        index=min_age.denominator,
        group_order=factorial(d),
        min_age=min_age,
        witness=str(CycleType((2,) + (1,) * (d - 2))),
    )


def class_table(n: int, d: int) -> list[AgeRecord]:
    """One AgeRecord per conjugacy class, in canonical partition order."""
    _check_model(n, d, TABLE_POINTS_CAP, "class-table")
    return [age_record(t, n) for t in partitions(d)]


def materialize_rep(n: int, d: int) -> MonomialRep:
    """The model as an explicit monomial group on C^(n*d).

    Generators are the adjacent transpositions of S_d acting on all n
    coordinate blocks at once. Quasi-reflection screening is left to the
    analyzer, so n = 1 is allowed here.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    size = n * d
    gens = []
    for i in range(d - 1):
        perm = list(range(size))
        for block in range(n):
            a, b = block * d + i, block * d + i + 1
            perm[a], perm[b] = perm[b], perm[a]
        gens.append(MonomialElement(tuple(perm), (0,) * size))
    return MonomialRep(dimension=size, root_order=1, generators=tuple(gens))


@dataclass(frozen=True)
class OracleRow:
    """Outcome of the numeric cross-check for one conjugacy class."""

    cycle_type: CycleType
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class OracleReport:
    n: int
    d: int
    tolerance: float
    rows: tuple[OracleRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[OracleRow]:
        return [row for row in self.rows if not row.passed]


def bruteforce_check(
    n: int, d: int, tolerance: float = oracle.DEFAULT_TOLERANCE
) -> OracleReport:
    """Verify every class against the numeric eigenvalue oracle.

    For each partition the explicit (n*d) x (n*d) permutation matrix is
    eigendecomposed numerically; the recovered exponent multiset must
    equal the per-cycle construction, and the exponent sum must equal the
    closed form exactly. Discrepancies are reported per class, never
    silently dropped.
    """
    _check_model(n, d, TABLE_POINTS_CAP, "class-table")
    if n * d > MATRIX_SIZE_CAP:
        raise MatrixTooLargeError(
            f"brute-force matrix would be {n * d} x {n * d}, over the cap "
            f"of {MATRIX_SIZE_CAP}"
        )
    rows = []
    for t in partitions(d):
        r = element_order(t)
        constructed = nfold(cycle_eigen_exponents(t), n)
        s_multiset, age_multiset = age(constructed)
        s_closed, age_closed = age_closed_form(t, n)
        try:
            numeric = oracle.numeric_exponents(oracle.nfold_matrix(t, n), r, tolerance)
        except oracle.RecoveryError as exc:
            rows.append(OracleRow(t, False, f"exponent recovery failed: {exc}"))
            continue
        if numeric != constructed.exponents:
            rows.append(
                OracleRow(
                    t,
                    False,
                    f"exponent multisets differ: numeric {numeric} vs "
                    f"constructed {constructed.exponents}",
                )
            )
        elif (s_multiset, age_multiset) != (s_closed, age_closed):
            rows.append(
                OracleRow(
                    t,
                    False,
                    f"closed form disagrees: multiset S={s_multiset} vs "
                    f"closed S={s_closed}",
                )
            )
        else:
            rows.append(OracleRow(t, True))
    return OracleReport(n=n, d=d, tolerance=tolerance, rows=tuple(rows))
