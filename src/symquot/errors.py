"""Shared exception types.

DomainError covers inputs that are syntactically fine but outside the
supported geometric regime; the CLI maps it to exit code 3 and prints a
one-line reason of the form ``error: <code>: <message>``. Malformed
input (bad flags, unparseable files) stays on ValueError and exits 2.
"""


def shown(text: str) -> str:
    """``repr(text)``, cut to its first 20 characters and its length past 40."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


class DomainError(Exception):
    """Valid input, unsupported regime."""

    code = "domain"


class QuasiReflectionError(DomainError):
    """The group contains quasi-reflections, so no quotient verdict is taken."""

    code = "quasi-reflection"

    def __init__(self, message: str, elements: tuple[str, ...] = ()):
        super().__init__(message)
        self.elements = tuple(elements)


class UnsupportedDimensionError(DomainError):
    """Base dimension n < 2: the model acquires quasi-reflections."""

    code = "unsupported-dimension"

    def __init__(self, n: int):
        super().__init__(
            f"dim {n} is unsupported: with dim < 2 the transpositions act as "
            "quasi-reflections, so the age criterion does not apply"
        )


class GroupTooLargeError(DomainError):
    """Multiplicative closure exceeded the configured cap."""

    code = "group-too-large"

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class PointsCapError(GroupTooLargeError):
    """Number of points d, or a plurigenus row, over a symmetric-power cap."""

    code = "too-many-points"


class MatrixTooLargeError(DomainError):
    """A matrix size cap was exceeded: brute-force matrices or a file's dimension."""

    code = "matrix-too-large"


class InsufficientDataError(DomainError):
    """Not enough usable rows for a growth fit."""

    code = "insufficient-data"
