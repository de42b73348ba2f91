"""Conjugacy-class data for the symmetric group S_d.

Conjugacy classes of S_d are indexed by integer partitions of d (cycle
types). A class of cycle type t with m_i parts equal to i has centralizer
order z_t = prod(i^{m_i} * m_i!) and size d! / z_t, and its elements
have order lcm(parts). ``conjugacy_classes(d)`` yields every class with
its size and order from one flat loop, algorithm ZS1 of Zoghbi and
Stojmenovic ("Fast algorithms for generating integer partitions", Int.
J. Comput. Math. 70 (1998)). From one partition to the next it rewrites
only the tail of its part array, and it keeps z and the lcm of the parts
per position, refreshed from the lowest place a step rewrote. Sizes are
exact big integers; the fixed reverse-lexicographic order keeps tables
byte-stable. All values are immutable and all functions pure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import factorial, lcm


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
    return _zs1(d)


def _zs1(d):
    """The classes of ``conjugacy_classes(d)``, by algorithm ZS1.

    ``x[1..m]`` is the partition, ``h`` the place of its last part >= 2,
    and x holds 1s past h. ``z[k]`` and ``order[k]`` are the centralizer
    order and lcm of ``x[1..k]``; ``run[k]`` counts the parts equal to
    ``x[k]`` up to k, as a run of p that grows to length j multiplies z
    by p * j.
    """
    factorials = [factorial(i) for i in range(d + 1)]
    x, z, order, run = [1] * (d + 1), [1] * (d + 1), [1] * (d + 1), [0] * (d + 1)
    x[0], x[1], z[1], order[1], run[1] = 0, d, d, d, 1  # place 0 matches no part
    h = m = 1
    while True:
        # the loop builds only valid partitions, so skip CycleType's check
        yield (tuple.__new__(CycleType, (tuple(x[1:m + 1]),)),
               factorials[d] // (z[h] * factorials[m - h]), order[h])
        if x[1] == 1:
            return
        if x[h] == 2:  # (..., 2, 1, ...) -> (..., 1, 1, ...): no prefix up to h - 1 moves
            x[h] = 1
            h, m = h - 1, m + 1
            continue
        low, r, rest = h, x[h] - 1, m - h + 1  # lower x[h] by one, refill behind it
        x[h] = r
        while rest >= r:
            h += 1
            x[h] = r
            rest -= r
        m = h + (rest > 0)
        if rest > 1:
            h += 1
            x[h] = rest
        for k in range(low, h + 1):
            p = x[k]
            if p == x[k - 1]:
                j = run[k] = run[k - 1] + 1
                order[k] = order[k - 1]
            else:
                j = run[k] = 1
                order[k] = lcm(order[k - 1], p)
            z[k] = z[k - 1] * p * j
