"""Closed-form analysis of the local model of d-th symmetric powers.

The model near a maximal-diagonal point is C^(n*d) / S_d with S_d
permuting n blocks of coordinates, i.e. n copies of the permutation
action on C^d. By the cycle-sum rule of ``monomial`` with all exponents
zero, an element of cycle type t has age n * (d - #parts(t)) / 2. The
least non-identity age is therefore n/2, reached only at the
transpositions (2,1^{d-2}); they generate S_d, so the index is the
denominator of n/2. ``verdict`` returns this without a scan, and
``class_table`` lists one row per cycle type; no group is ever built.
The explicit group is ``oracle.materialize_rep``, for cross-checking
against the generic monomial engine.

A permutation of cycle type t has order r = lcm(parts), and its
eigenvalues on C^d are r-th roots of unity eps^a with 0 <= a < r. A
cycle of length ri contributes the exponents {j * (r/ri) : 0 <= j < ri},
which total r * (ri-1) / 2; this gives the closed form
S = n * (d - #parts) * r / 2 of the ``s_sum`` column of ``class_table``,
and the age S/r. The determinant is exp(2 pi i age), so it is +1 exactly
when the age is an integer. ``class_table`` is the one producer of
per-class data for S_d. ``oracle.bruteforce_check`` verifies its rows
class by class against the eigenvalues of one element of each class.

Two caps on d are checked before any work: ``VERDICT_POINTS_CAP`` keeps
d! printable, and ``TABLE_POINTS_CAP`` bounds the p(d) rows of a class
table. ``DIM_BITS_CAP`` on n keeps n * d and every ``s_sum`` printable.

Stabilizers at non-maximal points are products of smaller symmetric
groups, so their local models are products of smaller instances of this
one and need no separate scan.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .combinatorics import CycleType, class_size, element_order, partitions
from .errors import MatrixTooLargeError, PointsCapError, UnsupportedDimensionError
from .monomial import SingularityVerdict

VERDICT_POINTS_CAP = 1000  # d! stays far below Python's 4300-digit int->str limit
TABLE_POINTS_CAP = 50  # p(50) = 204226 classes
# n < 2^13900 keeps every integer an accepted model prints below 10^4300,
# Python's int->str limit (10^4300 > 2^14284): the matrix size n * d with
# d <= 1000 < 2^10, and s_sum <= n * 49 * 180180 / 2 < n * 2^23, where
# 180180 = g(50) is the largest element order in S_50 (Landau's function).
DIM_BITS_CAP = 13900


# One class-table row: a conjugacy class of S_d acting on n blocks.
AgeRecord = namedtuple("AgeRecord", "cycle_type class_size order s_sum age det_is_plus_one")


def _check_model(n: int, d: int, cap: int, what: str) -> None:
    """Validate (n, d) before any work: d at most ``cap``, n at most ``DIM_BITS_CAP`` bits."""
    if n < 2:
        raise UnsupportedDimensionError(n)
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    if d > cap:
        raise PointsCapError(f"{d} points exceed the {what} cap of {cap}", cap=cap)
    if n.bit_length() > DIM_BITS_CAP:
        raise MatrixTooLargeError(
            f"--dim has {n.bit_length()} bits, over the cap of {DIM_BITS_CAP}"
        )


def verdict(n: int, d: int) -> SingularityVerdict:
    """Singularity verdict for n copies of the S_d permutation action.

    No scan: the least age n/2 sits at the transpositions, which generate
    S_d, so the index is the denominator of n/2.
    """
    _check_model(n, d, VERDICT_POINTS_CAP, "verdict")
    if d == 1:
        # trivial group: a smooth point
        return SingularityVerdict(index=1, group_order=1, min_age=None, witness=None)
    min_age = Fraction(n, 2)
    return SingularityVerdict(
        index=min_age.denominator,
        group_order=factorial(d),
        min_age=min_age,
        witness=str(CycleType((2,) + (1,) * (d - 2))),
    )


def class_table(n: int, d: int) -> list[AgeRecord]:
    """One AgeRecord per conjugacy class, in canonical partition order.

    A cycle of length ri adds (r/ri) * ri * (ri - 1) / 2 = r * (ri - 1) / 2
    to S, so S = n * (d - #parts) * r / 2. It is an integer: odd r makes
    every part odd and d - #parts = sum(ri - 1) even. The age S/r is
    n * (d - #parts) / 2, so one Fraction per distinct part count serves
    every class with that count; d! is computed once.
    """
    _check_model(n, d, TABLE_POINTS_CAP, "class-table")
    d_factorial = factorial(d)
    ages: dict[int, Fraction] = {}
    out = []
    for t in partitions(d):
        r = element_order(t)
        moved = d - t.num_parts
        age = ages.get(moved)
        if age is None:
            age = ages[moved] = Fraction(n * moved, 2)
        out.append(AgeRecord(
            t, class_size(t, d_factorial), r, n * moved * r // 2, age, age.denominator == 1
        ))
    return out

