"""Numeric cross-check: recover exponents from explicit matrices.

This path is deliberately independent of the exact constructions in
``ages``: it builds 0/1 permutation matrices, runs numpy's
eigendecomposition, and reads exponents off the eigenvalue arguments.
An eigenvalue exp(i * theta) is accepted as eps^a only when
theta * r / (2 pi) sits within the tolerance of the integer a. numpy is
imported inside the functions that use it, so ``import symquot`` does
not load it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .combinatorics import CycleType

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOLERANCE = 1e-6


class RecoveryError(ValueError):
    """An eigenvalue argument did not land near an integer exponent."""


def permutation_matrix(t: CycleType) -> np.ndarray:
    """d x d matrix of the canonical permutation with cycle type ``t``.

    Cycles occupy consecutive index blocks; column i carries a single 1
    in the row the permutation sends i to.
    """
    import numpy as np

    d = t.d
    mat = np.zeros((d, d))
    base = 0
    for part in t.parts:
        for j in range(part):
            mat[base + (j + 1) % part, base + j] = 1.0
        base += part
    return mat


def nfold_matrix(t: CycleType, n: int) -> np.ndarray:
    """Block-diagonal direct sum of n copies of ``permutation_matrix(t)``."""
    if n < 1:
        raise ValueError(f"number of copies must be positive, got {n}")
    import numpy as np

    return np.kron(np.eye(n), permutation_matrix(t))


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
