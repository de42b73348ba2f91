"""Plurigenus and Kodaira-dimension bookkeeping for symmetric powers.

Every dimension formula here reduces to one binomial: a d-th symmetric
power of a p-dimensional space of sections has dimension C(p + d - 1, d),
with the convention that the binomial vanishes when p = 0. The Burnside
average over S_d conjugacy classes recomputes the same number by a
genuinely different route and is kept as a permanent cross-check.

Plurigenus rows are only asserted by the underlying isomorphism when
m * n is even; odd-parity rows are still computed but carry a False
validity flag, since nothing is claimed about them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .combinatorics import class_size, partitions
from .errors import InsufficientDataError, PointsCapError
from .sympower import TABLE_POINTS_CAP

REGIME_NONNEGATIVE = "nonnegative-kodaira"
REGIME_GENERAL_TYPE = "general-type"
PLURIGENUS_BITS_CAP = 14000  # 2^14000 < 10^4215: prints within the 4300-digit limit


class KodairaDim(namedtuple("KodairaDim", "value")):
    """Kodaira dimension: minus infinity (value None) or an integer >= 0."""

    __slots__ = ()

    def __new__(cls, value):
        if value is not None and value < 0:
            raise ValueError(f"finite Kodaira dimension cannot be negative: {value}")
        return super().__new__(cls, value)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` validates too
        return cls(*iterable)

    @classmethod
    def minus_infinity(cls) -> "KodairaDim":
        return cls(None)

    @classmethod
    def finite(cls, value: int, ambient_dim: int | None = None) -> "KodairaDim":
        if ambient_dim is not None and value > ambient_dim:
            raise ValueError(
                f"Kodaira dimension {value} exceeds the ambient dimension {ambient_dim}"
            )
        return cls(value)

    @property
    def is_minus_infinity(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "-inf" if self.value is None else str(self.value)


PlurigenusRow = namedtuple("PlurigenusRow", "m p_m_x p_m_sigma valid")
PlurigenusTable = namedtuple("PlurigenusTable", "n d rows")  # rows: tuple of PlurigenusRow


def sym_dim(p: int, d: int) -> int:
    """Dimension of the d-th symmetric power of a p-dimensional space.

    C(p + d - 1, d); zero when p = 0.
    """
    if p < 0:
        raise ValueError(f"space dimension must be >= 0, got {p}")
    if d < 1:
        raise ValueError(f"symmetric power degree must be >= 1, got {d}")
    return math.comb(p + d - 1, d)


def invariant_dim_burnside(p: int, d: int) -> int:
    """Invariant dimension of the d-fold tensor power, by trace averaging.

    (1/d!) * sum over classes of class_size * p^(number of cycles). The
    average is provably integral; a non-integral value would mean a bug,
    so it raises rather than rounding. The sum runs over the p(d)
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
    d_factorial = math.factorial(d)
    total = sum(class_size(t, d_factorial) * p**t.num_parts for t in partitions(d))
    average = Fraction(total, d_factorial)
    if average.denominator != 1:
        raise ArithmeticError(
            f"Burnside average is not an integer for p={p}, d={d}: {average}"
        )
    return int(average)


def plurigenus_table(
    n: int, d: int, rows: Iterable[tuple[int, int]]
) -> PlurigenusTable:
    """Fill the plurigenus column for the symmetric power.

    Each (m, P_m) row gets C(d + P_m - 1, d) and a validity flag for the
    parity condition m * n even. Invalid-parity rows are computed anyway
    so the two parities can be compared side by side. The binomial is
    below (P_m + d - 1)^min(d, P_m - 1); a row whose bound passes
    2^PLURIGENUS_BITS_CAP raises PointsCapError before it is computed.
    """
    if n < 2:
        raise ValueError(f"base dimension must be >= 2, got {n}")
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    out = []
    for m, p_m in rows:
        if m < 1:
            raise ValueError(f"plurigenus level must be >= 1, got {m}")
        bits = min(d, p_m - 1) * (p_m + d - 1).bit_length()
        if bits > PLURIGENUS_BITS_CAP:
            raise PointsCapError(
                f"--points {d} with --pm {m}={p_m} bounds P_m(sym^d) by {bits} bits, "
                f"over the cap of {PLURIGENUS_BITS_CAP}",
                cap=PLURIGENUS_BITS_CAP,
            )
        out.append(
            PlurigenusRow(
                m=m,
                p_m_x=p_m,
                p_m_sigma=sym_dim(p_m, d),
                valid=(m * n) % 2 == 0,
            )
        )
    return PlurigenusTable(n=n, d=d, rows=tuple(out))


def _within_bits_cap(value: int, what: str) -> int:
    """``value`` itself, or PointsCapError when it passes 2^PLURIGENUS_BITS_CAP."""
    bits = value.bit_length()
    if bits > PLURIGENUS_BITS_CAP:
        raise PointsCapError(
            f"{what} has {bits} bits, over the cap of {PLURIGENUS_BITS_CAP}",
            cap=PLURIGENUS_BITS_CAP,
        )
    return value


def kodaira_scale(kappa: KodairaDim, d: int) -> KodairaDim:
    """Kodaira dimension of the d-th symmetric power: d * kappa.

    A result of more than PLURIGENUS_BITS_CAP bits raises PointsCapError.
    """
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    if kappa.is_minus_infinity:
        return KodairaDim.minus_infinity()
    return KodairaDim(
        _within_bits_cap(d * kappa.value, "the scaled Kodaira dimension --points * --kappa")
    )


def genus_bound(regime: str, d: int) -> int:
    """Minimal genus of a curve through d general points.

    d in the nonnegative-Kodaira regime; d + 1 in general type. A result
    of more than PLURIGENUS_BITS_CAP bits raises PointsCapError.
    """
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    if regime == REGIME_NONNEGATIVE:
        return _within_bits_cap(d, "the genus bound for --points")
    if regime == REGIME_GENERAL_TYPE:
        return _within_bits_cap(d + 1, "the genus bound for --points")
    raise ValueError(
        f"regime must be {REGIME_NONNEGATIVE!r} or {REGIME_GENERAL_TYPE!r}, got {regime!r}"
    )


def growth_exponent_check(rows: Sequence[tuple[int, int]], d: int) -> float:
    """Fitted growth exponent of the symmetric-power plurigenera.

    Maps each (m, P_m) row to P_m(symmetric power) and fits a log-log
    least-squares line. The exponent being estimated is asymptotic, so
    the fit uses the large-m half of the usable rows; the small-m head
    still bends the log-log line through lower-order terms. Returns the slope,
    the only floating-point quantity this package produces.
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
    # math.log accepts arbitrary-size ints, so huge binomials are fine
    xs = [math.log(m) for m, _ in tail]
    ys = [math.log(p) for _, p in tail]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    covariance = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return covariance / sum((x - x_mean) ** 2 for x in xs)
