"""Conjugacy-class data for the symmetric group S_d.

Conjugacy classes of S_d are indexed by integer partitions of d (cycle
types). Everything is exact: class sizes are Python big integers and the
partition stream has a fixed reverse-lexicographic order so that tables
and golden files are byte-stable. All values are immutable and all
functions pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lcm
from typing import Iterator


@dataclass(frozen=True)
class CycleType:
    """Cycle type of a permutation: parts in non-increasing order.

    Fixed points are kept as explicit parts of size 1, so ``sum(parts)``
    is always the full degree d and the acting space keeps dimension d.
    """

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = self.parts  # once sorted, a positive last part makes every part positive
        if not parts or parts[-1] < 1 or list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"parts must be positive and non-increasing, got {parts}")

    @property
    def d(self) -> int:
        return sum(self.parts)

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    def is_identity(self) -> bool:
        return self.parts[0] == 1

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def partitions(d: int) -> Iterator[CycleType]:
    """Yield every partition of d exactly once, reverse-lexicographically.

    The stream starts at (d) and ends at (1, ..., 1); its length is the
    partition number p(d).
    """
    if d < 1:
        raise ValueError(f"degree must be a positive integer, got {d}")
    current = [d]
    while True:
        yield CycleType(tuple(current))
        # rightmost part that can still shrink
        k = len(current) - 1
        while k >= 0 and current[k] == 1:
            k -= 1
        if k < 0:
            return
        # shrink it by one and refill the freed amount greedily
        freed = len(current) - k
        current[k] -= 1
        cap = current[k]
        del current[k + 1:]
        while freed > 0:
            nxt = min(cap, freed)
            current.append(nxt)
            freed -= nxt


def class_size(t: CycleType, d_factorial: int | None = None) -> int:
    """Number of permutations in S_d with cycle type ``t``.

    Centralizer formula: d! / z_t with z_t = prod(i^{m_i} m_i!) over part
    multiplicities. A part that is the j-th of its run of equal parts i
    contributes the factor i * j, so one walk over the sorted parts gives
    z_t. A caller sizing many classes of one S_d passes ``d_factorial``
    so that d! is computed once.
    """
    z = 1
    run = prev = 0
    for part in t.parts:
        run = run + 1 if part == prev else 1
        prev = part
        z *= part * run
    return (factorial(t.d) if d_factorial is None else d_factorial) // z


def element_order(t: CycleType) -> int:
    """Order of any permutation with cycle type ``t``: lcm of the parts."""
    return lcm(*t.parts)
