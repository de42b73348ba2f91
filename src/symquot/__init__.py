"""Exact classification of quotient singularities by the age criterion.

The package decides canonical / terminal / Gorenstein and computes the
index for finite monomial groups, with a closed-form fast path for the
symmetric-power model (n copies of the S_d permutation action), plus
plurigenus tables, Kodaira-dimension scaling, and genus bounds for
symmetric powers. All group-theoretic results are exact; floating point
only appears in the numeric verification oracle and the growth fit.

The top level holds the names the README's library surface documents and
the error classes. Everything else is reached through its module:
``symquot.sympower``, ``symquot.monomial``, ``symquot.combinatorics``,
and ``symquot.oracle`` for every reference route.
"""

from ._version import __version__
from .errors import (
    DomainError,
    GroupTooLargeError,
    InsufficientDataError,
    MatrixTooLargeError,
    PointsCapError,
    QuasiReflectionError,
    UnsupportedDimensionError,
)
from .monomial import analyze, close_group, rep_from_dict
from .plurigenera import (
    KodairaDim,
    genus_bound,
    growth_exponent_check,
    invariant_dim_burnside,
    kodaira_scale,
    plurigenus_table,
    sym_dim,
)
from .sympower import verdict

__all__ = [
    "__version__",
    "DomainError",
    "GroupTooLargeError",
    "InsufficientDataError",
    "KodairaDim",
    "MatrixTooLargeError",
    "PointsCapError",
    "QuasiReflectionError",
    "UnsupportedDimensionError",
    "analyze",
    "close_group",
    "genus_bound",
    "growth_exponent_check",
    "invariant_dim_burnside",
    "kodaira_scale",
    "plurigenus_table",
    "rep_from_dict",
    "sym_dim",
    "verdict",
]
