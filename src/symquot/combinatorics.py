"""Conjugacy-class data for the symmetric group S_d.

Conjugacy classes of S_d are indexed by integer partitions of d (cycle
types). ``conjugacy_classes(d)`` walks them in one recursion and yields
each class with its size and element order: a class of cycle type t with
m_i parts equal to i has centralizer order z_t = prod(i^{m_i} * m_i!)
and size d! / z_t, and its elements have order lcm(parts). The walk
chooses the parts run by run, largest first, so it multiplies z_t by
p^j * j! and takes the lcm with p once per run of j parts p, and fills
what is left with 1s; each class costs a few integer operations beyond
its tuple. Everything is exact: sizes are Python big integers, and the
classes come in a fixed reverse-lexicographic order so that tables and
golden files are byte-stable. ``partitions`` is the same stream without
the sizes and orders. All values are immutable and all functions pure,
so concurrent use needs no coordination.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import lcm


class CycleType(namedtuple("CycleType", "parts")):
    """Cycle type of a permutation: ``parts``, a tuple in non-increasing order.

    Fixed points are kept as explicit parts of size 1, so ``sum(parts)``
    is always the full degree d and the acting space keeps dimension d.
    """

    __slots__ = ()

    def __new__(cls, parts):
        # once sorted, a positive last part makes every part positive
        if not parts or parts[-1] < 1 or list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"parts must be positive and non-increasing, got {parts}")
        return super().__new__(cls, parts)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` validates too
        return cls(*iterable)

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


def conjugacy_classes(d: int) -> Iterator[tuple[CycleType, int, int]]:
    """Yield ``(cycle type, class size, element order)`` for every class of S_d.

    The classes come in reverse-lexicographic order of their cycle types,
    from (d) to (1, ..., 1); there are p(d) of them. d is checked here,
    before the walk starts.
    """
    if d < 1:
        raise ValueError(f"degree must be a positive integer, got {d}")
    factorials = [1]
    for i in range(1, d + 1):
        factorials.append(factorials[-1] * i)
    return _walk(d, d, (), 1, 1, factorials)


def _walk(rest, cap, prefix, z, order, factorials):
    """Classes of S_d whose cycle type is ``prefix`` followed by parts summing to ``rest``.

    ``prefix`` holds the parts >= 2 chosen so far, in non-increasing
    order, and every further part is at most ``cap``, which lies below
    them. ``z`` is the centralizer order of ``prefix`` and ``order`` the
    lcm of its parts. Each part value p, from the largest down to 2, is
    taken j times, from the most copies down to one: a run of j parts p
    multiplies z by p^j * j!, and p enters the lcm. What is left after
    the parts >= 2 is filled with 1s, whose run of length r multiplies z
    by r!, so every class comes with its exact centralizer order z_t and
    its size d! / z_t. ``factorials`` lists 0! to d!. A module-level
    generator rather than a nested closure: a closure that calls itself
    is a reference cycle, which keeps each finished walk alive until the
    cyclic garbage collector runs.
    """
    for p in range(min(cap, rest), 1, -1):
        p_order = lcm(order, p)
        for j in range(rest // p, 0, -1):
            yield from _walk(
                rest - p * j, p - 1, prefix + (p,) * j, z * p**j * factorials[j],
                p_order, factorials,
            )
    # the walk builds only valid partitions, so skip CycleType's check
    yield (
        tuple.__new__(CycleType, (prefix + (1,) * rest,)),
        factorials[-1] // (z * factorials[rest]),
        order,
    )


def partitions(d: int) -> Iterator[CycleType]:
    """The cycle types of ``conjugacy_classes(d)``: every partition of d once, in its order."""
    return (t for t, _, _ in conjugacy_classes(d))
