"""Eigenvalue exponents and ages for copies of the permutation action.

A permutation of order r acting on C^d has eigenvalues that are r-th
roots of unity. Writing each eigenvalue as eps^a with 0 <= a < r, this
module tracks only the integer exponents a, so sums and ages come out
as exact integers and Fractions with no complex arithmetic anywhere.

Per cycle of length ri the exponents are {j * (r/ri) : 0 <= j < ri}; the
total over a cycle is r * (ri-1) / 2, which gives the closed form
S = n * (d - #parts) * r / 2 of ``age_closed_form``. The multiset route
(``cycle_eigen_exponents``, ``nfold``, ``age``, ``is_quasi_reflection``)
is kept as the reference that tests and ``bruteforce_check`` compare the
closed form against. The exponent multiset is invariant under
a -> k*a mod r for k coprime to r, so the age does not depend on which
primitive root the exponents are written against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import CycleType, class_size, element_order, perm_sign


@dataclass(frozen=True)
class EigenExponents:
    """Multiset of eigenvalue exponents at a fixed order.

    Exponents are normalized to sorted order and must lie in [0, order).
    """

    order: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be positive, got {self.order}")
        object.__setattr__(self, "exponents", tuple(sorted(self.exponents)))
        if self.exponents and not (
            0 <= self.exponents[0] and self.exponents[-1] < self.order
        ):
            raise ValueError(
                f"exponents must lie in [0, {self.order}): {self.exponents}"
            )

    @property
    def dimension(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class AgeRecord:
    """Per-class age data for n copies of the permutation action."""

    cycle_type: CycleType
    n: int
    class_size: int
    order: int
    s_sum: int
    age: Fraction
    det_is_plus_one: bool


def cycle_eigen_exponents(t: CycleType) -> EigenExponents:
    """Exponent multiset of one copy of the permutation action on C^d.

    Each cycle of length ri contributes one exponent 0 and the nonzero
    multiples of r/ri below r, i.e. the ri-th roots of unity rewritten to
    the common order r = lcm(parts).
    """
    r = element_order(t)
    exps = []
    for part in t.parts:
        step = r // part
        exps.extend(j * step for j in range(part))
    return EigenExponents(r, tuple(exps))


def nfold(e: EigenExponents, n: int) -> EigenExponents:
    """Exponents of the direct sum of n copies: multiplicities scale by n."""
    if n < 1:
        raise ValueError(f"number of copies must be positive, got {n}")
    return EigenExponents(e.order, e.exponents * n)


def age(e: EigenExponents) -> tuple[int, Fraction]:
    """Exponent sum S and the age S/order, as (int, exact Fraction)."""
    s = sum(e.exponents)
    return s, Fraction(s, e.order)


def age_closed_form(t: CycleType, n: int) -> tuple[int, Fraction]:
    """Closed form for the age of n copies, bypassing the multiset.

    A cycle of length ri adds (r/ri) * ri * (ri - 1) / 2 = r * (ri - 1) / 2
    to S, so S = n * (d - #parts) * r / 2. It is an integer: odd r makes
    every part odd and d - #parts = sum(ri - 1) even.
    """
    if n < 1:
        raise ValueError(f"number of copies must be positive, got {n}")
    r = element_order(t)
    s = n * (t.d - t.num_parts) * r // 2
    return s, Fraction(s, r)


def det_sign(t: CycleType, n: int) -> int:
    """Determinant of the n-fold permutation matrix: sign^n, so +1 or -1."""
    return perm_sign(t) ** n


def is_quasi_reflection(e: EigenExponents) -> bool:
    """True iff exactly one eigenvalue differs from 1 (fixes a hyperplane)."""
    return sum(1 for a in e.exponents if a) == 1


def age_record(t: CycleType, n: int) -> AgeRecord:
    """Assemble the per-class record from the closed form."""
    s, a = age_closed_form(t, n)
    return AgeRecord(
        cycle_type=t,
        n=n,
        class_size=class_size(t),
        order=element_order(t),
        s_sum=s,
        age=a,
        det_is_plus_one=det_sign(t, n) == 1,
    )
