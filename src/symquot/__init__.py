"""Exact classification of quotient singularities by the age criterion.

The package decides canonical / terminal / Gorenstein and computes the
index for finite monomial groups, with a closed-form fast path for the
symmetric-power model (n copies of the S_d permutation action), plus
plurigenus tables, Kodaira-dimension scaling, and genus bounds for
symmetric powers. All group-theoretic results are exact; floating point
only appears in the numeric verification oracle and the growth fit.
"""

from ._version import __version__
from .ages import (
    AgeRecord,
    EigenExponents,
    age,
    age_closed_form,
    cycle_eigen_exponents,
    det_sign,
    is_quasi_reflection,
    nfold,
)
from .combinatorics import (
    ClassInfo,
    CycleType,
    class_size,
    conjugacy_classes,
    element_order,
    partitions,
)
from .errors import (
    DomainError,
    GroupTooLargeError,
    InsufficientDataError,
    MatrixTooLargeError,
    PointsCapError,
    QuasiReflectionError,
    UnsupportedDimensionError,
)
from .monomial import (
    MonomialElement,
    MonomialRep,
    SingularityVerdict,
    analyze,
    close_group,
    element_eigen_exponents,
    load_rep_file,
    rep_from_dict,
)
from .plurigenera import (
    KodairaDim,
    PlurigenusTable,
    genus_bound,
    growth_exponent_check,
    invariant_dim_burnside,
    kodaira_scale,
    plurigenus_table,
    sym_dim,
)
from .sympower import bruteforce_check, class_table, materialize_rep, verdict

__all__ = [
    "__version__",
    "AgeRecord",
    "ClassInfo",
    "CycleType",
    "DomainError",
    "EigenExponents",
    "GroupTooLargeError",
    "InsufficientDataError",
    "KodairaDim",
    "MatrixTooLargeError",
    "MonomialElement",
    "MonomialRep",
    "PlurigenusTable",
    "PointsCapError",
    "QuasiReflectionError",
    "SingularityVerdict",
    "UnsupportedDimensionError",
    "age",
    "age_closed_form",
    "analyze",
    "bruteforce_check",
    "class_size",
    "class_table",
    "close_group",
    "conjugacy_classes",
    "cycle_eigen_exponents",
    "det_sign",
    "element_eigen_exponents",
    "element_order",
    "genus_bound",
    "growth_exponent_check",
    "invariant_dim_burnside",
    "is_quasi_reflection",
    "kodaira_scale",
    "load_rep_file",
    "materialize_rep",
    "nfold",
    "partitions",
    "plurigenus_table",
    "rep_from_dict",
    "sym_dim",
    "verdict",
]
