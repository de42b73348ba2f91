"""Exact classification of quotient singularities by the age criterion.

The package decides canonical / terminal / Gorenstein and computes the
index for finite monomial groups, with a closed-form fast path for the
symmetric-power model (n copies of the S_d permutation action), plus
plurigenus tables, Kodaira-dimension scaling, and genus bounds for
symmetric powers. Every result is exact; floating point appears only in
``symquot.oracle``, in the numeric eigenvalue check and the growth fit.

The top level holds the names the README's library surface documents and
the error classes. Everything else is reached through its module:
``symquot.sympower``, ``symquot.monomial``, ``symquot.combinatorics``,
and ``symquot.oracle`` for every reference route and check.
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
    "kodaira_scale",
    "plurigenus_table",
    "rep_from_dict",
    "sym_dim",
    "verdict",
]
