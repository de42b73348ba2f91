"""Plurigenus and Kodaira-dimension bookkeeping for symmetric powers.

Every dimension formula here reduces to one binomial: a d-th symmetric
power of a p-dimensional space of sections has dimension C(p + d - 1, d),
with the convention that the binomial vanishes when p = 0.

Plurigenus rows are only asserted by the underlying isomorphism when
m * n is even; odd-parity rows are still computed but carry a False
validity flag, since nothing is claimed about them.

Everything here is exact integer arithmetic. The checks on these
numbers live in ``oracle``: ``invariant_dim_burnside`` recomputes the
binomial as a Burnside average over the S_d conjugacy classes, and
``growth_degree`` reads off the exact degree in m of the plurigenera.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable

from .errors import PointsCapError, UnsupportedDimensionError

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


def plurigenus_table(
    n: int, d: int, rows: Iterable[tuple[int, int]]
) -> PlurigenusTable:
    """Fill the plurigenus column for the symmetric power.

    Each (m, P_m) row gets C(d + P_m - 1, d) and a validity flag for the
    parity condition m * n even. Invalid-parity rows are computed anyway
    so the two parities can be compared side by side. A level m given
    twice raises ValueError. The binomial is below
    (P_m + d - 1)^min(d, P_m - 1); a row whose bound passes
    2^PLURIGENUS_BITS_CAP raises PointsCapError before it is computed.
    """
    if n < 2:
        raise UnsupportedDimensionError(n)
    if d < 1:
        raise ValueError(f"number of points must be >= 1, got {d}")
    out, levels = [], set()
    for m, p_m in rows:
        if m < 1:
            raise ValueError(f"plurigenus level must be >= 1, got {m}")
        if m in levels:
            raise ValueError(f"plurigenus level m={m} is given twice")
        levels.add(m)
        if p_m < 0:
            raise ValueError(f"plurigenus P_{m} must be >= 0, got {p_m}")
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
        return kappa
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
