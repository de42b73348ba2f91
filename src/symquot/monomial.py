"""Finite monomial matrix groups and the age-criterion verdict engine.

A monomial matrix is a permutation matrix with root-of-unity entries.
The element (perm, exponents) over root order m is the matrix that sends
basis vector e_i to zeta_m^{exponents[i]} * e_{perm[i]}, i.e. the entry
at (perm[i], i) is zeta_m^{exponents[i]}. Permutations are stored
0-based internally; the on-disk form uses 1-based images.

Verdicts come from one integer rule. For g = (sigma, e) on C^N, let
K_c = sum of e_i over a cycle c of sigma, reduced mod m. A cycle of
length l contributes the l-th roots of zeta_m^{K_c}, whose turns sum to
K_c/m + (l - 1)/2 and of which exactly one is 1 when K_c = 0, none
otherwise. Hence

    age(g) = sum_c K_c/m + (N - #cycles(sigma))/2,
    #(eigenvalues != 1) = N - #{c : K_c = 0},

and g is a quasi-reflection iff that count is 1. The determinant is
exp(2 pi i age(g)) and a character, so the index is the lcm of the age
denominators of the generators. The eigenvalue-multiset route
(``element_eigen_exponents``, ``det_turn``), the full scan built on it
(``analyze_reference``) and the ``MonomialElement`` product and closure
(``multiply``, ``close_group_reference``) live in ``oracle`` as the
references that tests and the selftest compare against.

Every cycle adds to both sums above, never subtracts, so ``analyze``
stops an element's walk as soon as its age reaches the least age found
so far and two eigenvalues are known to differ from 1: past that point
the element can neither become the witness nor be a quasi-reflection.

``analyze`` reads the index off the generators before the scan, and for
index 1 it stops the whole scan at the first element of age 1. A group
of index 1 lies in SL(N): every determinant exp(2 pi i age(g)) is 1, so
every non-identity age is a whole number >= 1, and no element is a
quasi-reflection, whose determinant is its one eigenvalue != 1. No later
element can have a smaller age or be reported, so that first age-1
element is the witness and the verdict is settled.

A group also gets a proven least age from the orbits of its
coordinates (``_least_possible_key``). Orbits that one relabelling
and one diagonal gauge carry onto each other, for every generator at
once, form a class C, and an element moves either every orbit of C or
none. On each orbit it moves, its age is a positive multiple of
1/index_C, the order of the determinant there. So every g != 1 has age
at least the least |C| / index_C, and when every class holds two orbits
or more, it has two eigenvalues != 1 and is no quasi-reflection. The
scan then stops at its first element of that age, as at age 1 in SL(N),
and in SL(N) at the first element of the larger of the two ages: n
copies of S_d, the model of d coincident points on an n-fold, have index
2 for odd n and stop at their first element that is a transposition in
every copy, of age n/2, and index 1 for even n, where the stop is the
same element, of age n/2 >= 1. A group with a class of one orbit (such
as 1/7(1,2,3)) and no age-1 stop, and a group without an element at its
bound, are scanned in full.

The closure order is that of Dimino's coset method: generators in
decreasing order of their element order, the powers of the first, then
for each later generator whole right cosets of the subgroup found so
far. It fixes the witness and the order of the quasi-reflection list.
``close_group`` states it in full, with the closure contract: the group
order comes first and decides the cap, and the elements are walked
(``_dimino``, a generator) only as far as a reader reads them
(``_Closure``), so a scan that stops early walks only a prefix of the
group.

The closure and the scan work on one code per matrix entry, which holds
the entry's place and its exponent in one int, in one of two encodings:

- when N * m <= 256 every code fits in a byte, and an element is a
  ``bytes`` of row codes, ``code[j] = N * e + i`` for the entry zeta^e
  at row j, column i. Right multiplication by g sends row code
  N * e + k to N * (e + g.exponents[i] mod m) + i for i = g^-1(k),
  whatever the row, so a product is one ``bytes.translate`` through a
  256-byte table (``_row_table``), and the table of a product x y is
  x's table translated through y's. The tables permute the N * m row
  codes, faithfully, since g's table carries the identity's codes to
  g's: ``_table_group_order`` counts G on that action;
- otherwise an element is an N-tuple of column codes,
  ``code[i] = N * exponents[i] + perm[i]``: the image of e_i and its
  exponent. Right multiplication by x gathers the codes by x's
  ``code % N`` and adds ``code - code % N`` mod N * m.

A coset is one C-level ``map`` over the subgroup for bytes; for tuples
it is one ``map`` per shifted column of the subgroup, transposed once
per generator. The scan needs no change for the encoding:
``_cycle_sums`` follows ``i -> code[i] % N``, the permutation for column
codes and its inverse for row codes, so it meets the same cycles in the
same order, and along a cycle the sum of ``code[i] - i`` is N * K_c
either way, since the places telescope. ``MonomialElement`` appears
only at the edges: the generators and the reported witness and
quasi-reflections, decoded by ``_decode``.

Every produced value is immutable, or, for a closure, read-only with
its walk advanced under a lock; the analysis scan is read-only, so
verdicts and closed groups can be shared freely across threads.
"""

from __future__ import annotations

import json
import os
import sys
from _thread import allocate_lock
from collections import Counter, deque, namedtuple
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, itemgetter, mod

from .errors import GroupTooLargeError, MatrixTooLargeError, QuasiReflectionError, shown

DEFAULT_CLOSURE_CAP = 20000
CLOSURE_CAP_ENV = "QC_CLOSURE_CAP"
DIMENSION_CAP = 256  # for files read by rep_from_dict; every element holds N codes
ROOT_ORDER_BITS_CAP = 128  # for files too; each element code N * e + i grows with m
GENERATORS_CAP = 64  # for files too; a taken one costs a product per coset representative
REP_FILE_CHARS_CAP = 1 << 24  # characters read from a file, checked before decoding
_BYTES = bytes(range(256))  # the identity translate table


class MonomialElement(namedtuple("MonomialElement", "perm exponents")):
    """One monomial matrix: 0-based permutation images plus entry exponents."""

    __slots__ = ()

    def describe(self) -> str:
        """Stable 1-based descriptor used in reports and error messages."""
        images = ",".join(str(i + 1) for i in self.perm)
        exps = ",".join(str(k) for k in self.exponents)
        return f"perm[{images}] exp[{exps}]"


def _decode(code: bytes | tuple[int, ...], n: int) -> MonomialElement:
    if type(code) is bytes:  # row codes: code[j] = N * e + i, zeta^e at (j, i)
        perm, exps = [0] * n, [0] * n
        for j, c in enumerate(code):
            e, i = divmod(c, n)
            perm[i], exps[i] = j, e
        return MonomialElement(tuple(perm), tuple(exps))
    return MonomialElement(tuple(c % n for c in code), tuple(c // n for c in code))


class MonomialRep(
    namedtuple("MonomialRep", "dimension root_order generators flat_elements", defaults=(None,))
):
    """A monomial group given by generators, closed or not.

    ``generators`` is a tuple of ``MonomialElement``. ``flat_elements``
    is None until ``close_group`` fills it with the group's codes in
    closure order, a read-only sequence (``_Closure``) whose length is
    the group order; ``close_group`` states what it holds.
    When N * m <= 256 each element is a ``bytes`` of row codes,
    ``code[j] = N * e + i`` for the entry zeta^e at (j, i); otherwise it
    is the N-tuple of column codes ``N * exponents[i] + perm[i]``.
    ``analyze`` reads either alike.
    """

    __slots__ = ()

    def __new__(cls, dimension, root_order, generators, flat_elements=None):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if root_order < 1:
            raise ValueError(f"root order must be >= 1, got {root_order}")
        for g in generators:
            if sorted(g.perm) != list(range(dimension)):
                raise ValueError(f"not a permutation of 0..{dimension - 1}: {g.perm}")
            if len(g.exponents) != dimension:
                raise ValueError(f"need {dimension} exponents, got {len(g.exponents)}")
            if any(not 0 <= k < root_order for k in g.exponents):
                raise ValueError(f"exponents must lie in [0, {root_order}): {g.exponents}")
        return super().__new__(cls, dimension, root_order, generators, flat_elements)

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` validates too
        return cls(*iterable)


class SingularityVerdict(
    namedtuple("SingularityVerdict", "index group_order min_age witness")
):
    """Outcome of the age-criterion scan over one finite group.

    ``min_age`` (a Fraction) and ``witness`` (a descriptor) are None for
    the trivial group, which has no witnesses.
    """

    __slots__ = ()

    @property
    def canonical(self) -> bool:
        return self.min_age is None or self.min_age >= 1

    @property
    def terminal(self) -> bool:
        return self.min_age is None or self.min_age > 1

    @property
    def gorenstein(self) -> bool:
        return self.index == 1


def configured_cap(cap: int | None = None) -> int:
    """Resolve the closure cap: explicit argument, else env, else default.

    An environment value that is not an integer >= 1 in the ASCII digits
    0-9, within Python's limit for integer strings, raises ValueError.
    """
    if cap is not None:
        return cap
    env = os.environ.get(CLOSURE_CAP_ENV)
    if not env:
        return DEFAULT_CLOSURE_CAP
    digits = env.strip()
    try:  # int() would also read other scripts' digits; it refuses past the limit
        value = int(digits) if digits.isascii() and digits.isdigit() else 0
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{CLOSURE_CAP_ENV} must be an integer >= 1, got {shown(env)}")
    return value


def _row_table(g: MonomialElement, n: int, nm: int) -> bytes:
    """The ``bytes.translate`` table of right multiplication by ``g`` on row codes.

    Row code N * e + k, the entry zeta^e in column k, goes to
    N * (e + g.exponents[i] mod m) + i for i = g^-1(k), wherever it sits.
    So the m codes of column k, taken at stride N, become column i's
    codes rotated by g.exponents[i]: one slice per column, where a
    table built entry by entry would cost one step per code. Only the
    first N * m entries are ever read; the rest keep their own value.
    """
    table = bytearray(_BYTES)
    for i, (k, shift) in enumerate(zip(g.perm, g.exponents)):
        column = _BYTES[i:nm:n]  # N * e + i for e = 0..m-1
        table[k:nm:n] = column[shift:] + column[:shift]
    return bytes(table)


class _RowCodes:
    """Elements as ``bytes`` of row codes; the step of x, its right multiplication, is a table."""

    times = staticmethod(bytes.translate)  # (x, step of y) -> x y

    def __init__(self, n: int, nm: int):
        self.n, self.nm = n, nm
        self.identity, self.identity_step = bytes(range(n)), _BYTES

    def generator(self, g: MonomialElement) -> tuple[bytes, bytes]:
        table = _row_table(g, self.n, self.nm)
        return self.identity.translate(table), table

    @staticmethod
    def compose(x_step: bytes, t_step: bytes, y: bytes) -> bytes:  # the step of y = x t
        return x_step.translate(t_step)

    @staticmethod
    def cosets(subgroup: list[bytes]):  # x's step -> the right coset H x
        return lambda table: list(map(bytes.translate, subgroup, repeat(table)))


class _ColumnCodes:
    """Elements as N-tuples of column codes; the step of x is a gather and shifts.

    a x has the codes a[c % N] + (c - c % N) mod N * m over x's codes c. The
    gather is an ``itemgetter``, or ``tuple`` for the identity permutation,
    where an itemgetter of one index would return a scalar; it reorders an
    element's codes, or a list of columns alike. Shifts all 0 are None.
    """

    def __init__(self, n: int, nm: int):
        self.n, self.mods = n, repeat(nm)
        self.identity = tuple(range(n))
        self.identity_step = (tuple, None)

    def generator(self, g: MonomialElement) -> tuple[tuple[int, ...], tuple]:
        code = _column_code(g, self.n)
        return code, self.compose(None, None, code)

    def compose(self, x_step, t_step, y: tuple[int, ...]) -> tuple:  # read off y's codes
        perm = tuple(c % self.n for c in y)
        shifts = tuple(c - p for c, p in zip(y, perm))
        gather = tuple if perm == self.identity else itemgetter(*perm)
        return gather, shifts if any(shifts) else None

    def times(self, x: tuple[int, ...], step: tuple) -> tuple[int, ...]:
        gather, shifts = step
        x = gather(x)
        return x if shifts is None else tuple(map(mod, map(add, x, shifts), self.mods))

    def cosets(self, subgroup: list[tuple[int, ...]]):
        """x's step -> the right coset H x.

        H is transposed once, here, so a coset is one C-level ``map`` per
        shifted column and a ``zip``; an unshifted column is H's own.
        """
        cols, mods = list(zip(*subgroup)), self.mods

        def coset(step):
            gather, shifts = step
            new = gather(cols)
            if shifts is not None:
                new = [map(mod, map(add, col, repeat(s)), mods) if s else col
                       for col, s in zip(new, shifts)]
            return list(zip(*new))

        return coset


def _over_cap(cap: int) -> GroupTooLargeError:
    return GroupTooLargeError(f"group closure exceeded the cap of {cap} elements", cap=cap)


def _dimino(codes, generators: list[tuple], elements: list, cap: int):
    """Dimino's walk: extend ``elements``, which holds the identity, to the closure in order.

    A generator function that yields after each power and each coset it
    appends, so a reader walks no further than it reads. ``generators``
    are (code, step) pairs in the order ``close_group`` takes them.
    Raises GroupTooLargeError before ``elements`` would hold more than
    max(cap, 1) codes.
    """
    limit = max(cap, 1)  # a cap below 1 still holds the identity
    ident = codes.identity
    seen = {ident}
    taken = []  # the steps of the generators taken so far
    for code, step in generators:
        if code in seen:
            continue
        taken.append(step)
        if len(elements) == 1:  # the first generator: its powers
            while code != ident:
                if len(elements) >= limit:
                    raise _over_cap(cap)
                elements.append(code)
                seen.add(code)
                yield
                code = codes.times(code, step)
            continue
        size = len(elements)
        coset = codes.cosets(elements[:])  # of H, the subgroup closed so far
        # H = H 1 comes first: its walk meets H s as the first new coset, since the
        # generators taken before s lie in H
        reps = deque([(ident, codes.identity_step)])
        while reps:  # new representatives join as they are met; walked ones are let go
            x, x_step = reps.popleft()
            for t_step in taken:
                y = codes.times(x, t_step)
                if y in seen:
                    continue
                if len(elements) + size > limit:
                    raise _over_cap(cap)
                y_step = codes.compose(x_step, t_step, y)
                new = coset(y_step)
                elements += new
                seen.update(new)
                yield
                reps.append((y, y_step))


class _Level:
    """One level of a stabilizer chain: a base point, its strong generators and their orbit.

    ``gens`` holds (table, inverse table) pairs; ``orbit`` maps each point
    p of the orbit to (u, the table of u^-1), where u is a product of the
    generators, as a ``bytes`` of the first N * m images, with u[point] = p.
    ``tested`` holds the (p, j) whose Schreier generator u_p s_j u_q^-1,
    q = s_j[p], is known to lie in the group of the levels below.
    """

    __slots__ = ("point", "gens", "orbit", "tested")

    def __init__(self, point: int, ident: bytes):
        self.point, self.gens, self.orbit, self.tested = point, [], {point: (ident, _BYTES)}, set()


def _table_group_order(tables: list[bytes], nm: int, cap: int) -> int:
    """The order of the group that ``bytes.translate`` tables generate, by Schreier–Sims.

    A table t sends the point p < N * m to t[p], and x.translate(y) is x,
    then y. The run is deterministic (Sims 1970; Seress, *Permutation
    Group Algorithms*, 2003). It keeps a stabilizer chain: a base
    b_0, b_1, ... and, at level l, strong generators that fix b_0 ..
    b_{l-1} and the orbit of b_l under them (``_Level``). A table joins
    the chain unless it sifts through the transversals to the identity,
    which skips a generator already in the group. Level l is complete when
    every Schreier generator u_p s u_{s[p]}^-1 sifts through the levels
    below it to the identity; one that does not joins those levels, or
    starts a new one, and the run goes on at the level where it stopped.
    When every level is complete, |G| is the product of the orbit lengths.

    That product never exceeds |G| while the run goes on, since the group
    of level l + 1 fixes b_l inside the group of level l. So
    GroupTooLargeError is raised as soon as it passes max(cap, 1).
    """
    limit = max(cap, 1)
    ident = _BYTES[:nm]
    levels: list[_Level] = []

    def sift(h: bytes, start: int) -> tuple[bytes, int]:
        """``h`` stripped by the transversals from level ``start`` on; the level it stopped at."""
        for depth in range(start, len(levels)):
            level = levels[depth]
            p = h[level.point]
            if p != level.point:
                known = level.orbit.get(p)
                if known is None:
                    return h, depth
                h = h.translate(known[1])
        return h, len(levels)

    def extend(h: bytes, first: int, stop: int) -> None:
        """``h``, sifted from ``first`` to ``stop``, joins those levels; the last may be new."""
        if stop == len(levels):
            levels.append(_Level(next(p for p, q in enumerate(h) if p != q), ident))
        pair = h + _BYTES[nm:], bytes.maketrans(h, ident)
        for level in levels[first:stop + 1]:
            gens, orbit, tested = level.gens, level.orbit, level.tested
            gens.append(pair)
            grown = list(orbit)
            for p in grown:  # the list takes in the points its walk meets
                u, u_inv = orbit[p]
                for j, (s, s_inv) in enumerate(gens):
                    q = s[p]
                    if q not in orbit:  # u_q = u_p s: its Schreier generator is 1
                        orbit[q] = u.translate(s), s_inv.translate(u_inv)
                        tested.add((p, j))
                        grown.append(q)
        if prod(len(level.orbit) for level in levels) > limit:
            raise _over_cap(cap)

    def complete(depth: int) -> None:
        while depth >= 0:
            level = levels[depth]
            orbit, tested = level.orbit, level.tested
            found = None
            for p, (u, _) in orbit.items():  # neither changes until a generator is found
                for j, (s, _) in enumerate(level.gens):
                    if (p, j) in tested:
                        continue
                    tested.add((p, j))
                    h, stop = sift(u.translate(s).translate(orbit[s[p]][1]), depth + 1)
                    if stop < len(levels) or h != ident:
                        found = h, stop
                        break
                if found:
                    break
            if found is None:
                depth -= 1
                continue
            h, stop = found
            extend(h, depth + 1, stop)
            depth = stop

    for t in tables:
        h, stop = sift(t[:nm], 0)
        if stop < len(levels) or h != ident:
            extend(h, 0, stop)
            complete(stop)
    return prod(len(level.orbit) for level in levels)


class _Closure:
    """The ``flat_elements`` of a closed group, as ``close_group`` states them.

    Indexing, slicing and iteration advance the Dimino walk (``_dimino``)
    a power or a coset at a time; iteration walks ahead by at most what
    it has read, or 32 codes. Once the walk reaches the order it is
    dropped, and with it its set of codes.
    """

    __slots__ = ("_order", "_elements", "_walk", "_lock")

    def __init__(self, order: int, elements: list, walk):
        self._order, self._elements, self._walk = order, elements, walk
        self._lock = allocate_lock()

    def _fill(self, count: int) -> None:
        """Walk until at least ``count`` codes are known."""
        elements = self._elements
        if len(elements) >= count:
            return
        with self._lock:
            while len(elements) < count:
                next(self._walk)
            if len(elements) == self._order:
                self._walk = None

    def __len__(self) -> int:
        return self._order

    def __getitem__(self, index):
        picked = range(self._order)[index]  # an int for an index, a range for a slice
        if type(picked) is int:
            self._fill(picked + 1)
            return self._elements[picked]
        if picked:
            self._fill(max(picked[0], picked[-1]) + 1)
        return tuple(map(self._elements.__getitem__, picked))

    def __iter__(self):
        elements, done = self._elements, 0
        while done < self._order:
            self._fill(min(2 * done + 32, self._order))  # ahead by at most what was read, or 32
            known = elements[done:]
            done += len(known)
            yield from known

    def __eq__(self, other):
        if isinstance(other, _Closure):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"<closure of {self._order} elements>"


def close_group(rep: MonomialRep, cap: int | None = None) -> MonomialRep:
    """The group the generators generate: its order first, its elements on demand.

    The closure order, which fixes the witness and the order of the
    quasi-reflection list, is that of Dimino's coset method:

    - generators are taken in decreasing order of their element order,
      ties in input order; one already in the group at its turn is skipped;
    - the list starts with the identity, then the powers g, g^2, ... of
      the first generator;
    - at each later generator s, with H the list so far, the right coset
      H s is appended; then the coset representatives are walked in order,
      and for each representative x and each generator t taken so far,
      H (x t) is appended if x t is new.

    The list is then a union of right cosets of H that right
    multiplication by every generator maps into itself, so it is the
    group (Butler, *Fundamental Algorithms for Permutation Groups*, LNCS
    559, 1991). Each element costs one product; each representative costs
    one product and one lookup per generator taken. With one generator
    the order is that of the powers, as in a breadth-first closure.

    The elements are ``bytes`` of row codes (``_RowCodes``) when
    N * m <= 256, else N-tuples of column codes (``_ColumnCodes``). The
    order comes first: a group with one distinct generator besides the
    identity has that generator's order; any other group on row codes
    the order that Schreier–Sims gives on the faithful action of G on the
    N * m row codes (``_table_group_order``), and any other group on
    column codes the length of the whole walk.

    ``flat_elements`` is then a ``_Closure``, a read-only sequence whose
    length is the order and whose indexing, slicing and iteration walk
    the list above only as far as they read, under a lock, so one closure
    can be read from several threads. Its equality and hash are those of
    the tuple of its codes. A group of fewer than 32 elements costs less
    walked whole than on demand, so it is walked whole here, as is a
    group whose order is the length of the walk.

    Raises GroupTooLargeError iff the group has more than max(cap, 1)
    elements: before any element is walked when the order comes before
    the walk, else before the list would hold more than max(cap, 1)
    elements. A cap below 1 still holds the identity.
    """
    cap = configured_cap(cap)
    n, nm = rep.dimension, rep.dimension * rep.root_order
    codes = (_RowCodes if nm <= 256 else _ColumnCodes)(n, nm)
    # sorted keeps equal keys in input order, with reverse=True too
    ranked = sorted(
        ((_cycle_sums(_column_code(g, n), n, nm, order=True)[2], g) for g in rep.generators),
        key=itemgetter(0), reverse=True,
    )
    generators = [codes.generator(g) for _, g in ranked]
    elements = [codes.identity]
    walk = _dimino(codes, generators, elements, cap)
    distinct = dict(generators)
    distinct.pop(codes.identity, None)
    if len(distinct) <= 1:
        order = ranked[0][0] if distinct else 1
        if order > max(cap, 1):
            raise _over_cap(cap)
    elif nm <= 256:
        order = _table_group_order(list(distinct.values()), nm, cap)
    else:
        order = 0  # column codes: the whole walk gives the order
    if order < 32:  # a small group costs less walked whole than on demand
        deque(walk, maxlen=0)
        order, walk = len(elements), None
    return rep._replace(flat_elements=_Closure(order, elements, walk))


def _column_code(g: MonomialElement, n: int) -> tuple[int, ...]:
    """``g`` as an N-tuple of column codes, ``N * exponents[i] + perm[i]``."""
    return tuple(n * k + p for p, k in zip(g.perm, g.exponents))


def _cycle_sums(
    code: tuple[int, ...], n: int, nm: int, bound: int | None = None, *, order: bool = False
) -> tuple[int, ...] | None:
    """2Nm * age and the number of eigenvalues != 1 of a coded element; its order on request.

    Summing ``c - i`` along a cycle of ``i -> c % N``, mod N * m, leaves
    N * K_c: a cycle of length l adds 2N * K_c + Nm * (l - 1) to 2Nm * age,
    and l - [K_c = 0] to the count. Both running sums only grow, so once
    the key reaches ``bound`` and the count is at least 2 the walk stops
    and returns None: the element's age is at least bound / 2Nm and it is
    neither the identity nor a quasi-reflection.

    With ``order`` and no bound, the walk also returns the element's
    order, as a third value: the lcm over cycles of l * m / gcd(K_c, m),
    which is l * Nm / gcd(N * K_c, Nm), since g^l is zeta^K_c times the
    identity on the l coordinates of the cycle.
    """
    seen = [False] * n
    key = moved = 0
    period = 1
    for start in range(n):
        if seen[start]:
            continue
        k_sum = length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            c = code[i]
            k_sum += c - i
            i = c % n
            length += 1
        k_sum %= nm
        key += 2 * k_sum + nm * (length - 1)
        moved += length - (k_sum == 0)  # a cycle with K_c = 0 has exactly one eigenvalue 1
        if bound is not None:
            if key >= bound and moved >= 2:
                return None
        elif order:
            period = lcm(period, length * nm // gcd(k_sum, nm))
    return (key, moved, period) if order else (key, moved)


def element_age(g: MonomialElement, root_order: int) -> tuple[Fraction, int]:
    """Age of ``g`` and its number of eigenvalues != 1, from cycle sums."""
    n = len(g.perm)
    key, moved = _cycle_sums(_column_code(g, n), n, n * root_order)
    return Fraction(key, 2 * n * root_order), moved


def _orbit_form(
    gens: tuple[MonomialElement, ...], base: int, m: int
) -> tuple[list[int], tuple[MonomialElement, ...]]:
    """The orbit of ``base`` and the generators on it, relabelled and gauged from ``base``.

    A breadth-first walk from ``base`` along the generators, in their
    order, meets the orbit's points in an order that labels them 0, 1, ...
    Conjugating by the diagonal zeta^{c_i} turns g's exponent e_i into
    e_i + c_{g(i)} - c_i; the gauge c is 0 at ``base`` and makes the
    exponent of each edge of the walk's tree 0. So the form depends on the
    action on the orbit and on the base alone: two orbits are carried onto
    each other by a relabelling and a diagonal gauge, for every generator
    at once, iff the form of one from its first point is the form of the
    other from some point.
    """
    orbit, gauge = [base], {base: 0}
    for v in orbit:  # the orbit grows as the walk meets new points
        for g in gens:
            w = g.perm[v]
            if w not in gauge:
                gauge[w] = gauge[v] - g.exponents[v]
                orbit.append(w)
    label = {v: j for j, v in enumerate(orbit)}
    return orbit, tuple(
        MonomialElement(
            tuple(label[g.perm[v]] for v in orbit),
            tuple((g.exponents[v] + gauge[g.perm[v]] - gauge[v]) % m for v in orbit),
        )
        for g in gens
    )


def _least_possible_key(rep: MonomialRep) -> int | None:
    """2Nm times a least age of the non-identity elements, read off the generators.

    The coordinates fall into orbits O of the generators' permutations, and
    each span V_O of e_i, i in O, is invariant. Orbits that a relabelling
    and a diagonal gauge carry onto each other (``_orbit_form``) form a
    class C; on its orbits an element has one kernel and one age. A g != 1
    moves some V_O, so it moves every orbit of O's class C, and on each its
    age is a positive multiple of 1/index_C, the order of the determinant
    on one orbit of C: that age is the determinant's turn plus a whole
    number. So age(g) >= min over C of |C| / index_C, and index_C divides
    2m, so the bound is a whole key. When every class has two orbits or
    more, every g != 1 also has two eigenvalues != 1: the group has no
    quasi-reflection. Returns None when some class has one orbit, or when
    matching the orbits would cost more than an eighth of a full scan.
    ``analyze`` calls it only for a group with a generator.

    Diagonal groups have one orbit per coordinate, and its form is the
    coordinate's column of exponents; index_C is the lcm of their orders.
    """
    n, m = rep.dimension, rep.root_order
    gens = rep.generators
    diagonal = {g.perm for g in gens} == {tuple(range(n))}
    if diagonal:
        columns = list(zip(*[g.exponents for g in gens]))
        if 2 * len(set(columns)) > n:  # a cheap early out: some column has no equal
            return None
        classes = Counter(columns)
    else:
        classes, placed = Counter(), [False] * n
        # a form costs some eight scan steps per point and generator; a full scan takes at
        # most |G| * N steps, and the search for a matching base may spend an eighth of that
        budget = len(rep.flat_elements) * n // 8
        for start in range(n):
            if placed[start]:
                continue
            orbit, form = _orbit_form(gens, start, m)
            for v in orbit:
                placed[v] = True
            if form not in classes and any(len(f[0].perm) == len(orbit) for f in classes):
                for base in orbit[1:]:
                    budget -= len(orbit) * len(gens)
                    if budget < 0:
                        return None
                    other = _orbit_form(gens, base, m)[1]
                    if other in classes:
                        form = other
                        break
            classes[form] += 1
    if min(classes.values()) < 2:
        return None

    def index(form):  # the order of the determinant on an orbit of this form
        if diagonal:
            return lcm(1, *(m // gcd(k, m) for k in form))
        return lcm(1, *(element_age(h, m)[0].denominator for h in form))

    return min(2 * n * m * count // index(form) for form, count in classes.items())


def analyze(rep: MonomialRep) -> SingularityVerdict:
    """Age-criterion verdict for a closed monomial group, in one pass.

    canonical: every non-identity element has age >= 1; terminal: strictly
    greater. gorenstein: the determinant character is trivial; the index
    is that character's order, the lcm of the generators' age
    denominators. The witness is the first element of minimal age in
    closure order, the order ``close_group`` states; the quasi-reflections
    are reported in that order too. Quasi-reflections abort the analysis: the quotient is
    not taken in that regime.

    Each element's cycle walk gets the least key so far as its bound. An
    element whose walk stops there has a key at least that large, and only
    a strictly smaller key replaces the witness, so the witness stays the
    first least-age element; it has two eigenvalues != 1 already, so it is
    neither the identity nor a quasi-reflection, and the quasi-reflections
    are still every one in closure order.

    The index comes first. ``_least_possible_key`` may prove a least age
    from the classes of coordinate orbits, and with it that no element is
    a quasi-reflection; the scan then ends at the first element of that
    age: it is the witness, and nothing after it can change the verdict.
    When the index is 1 the group lies in SL(N), where every non-identity
    age is an integer >= 1 and no element is a quasi-reflection (its
    determinant would be its one eigenvalue != 1), so the scan ends at the
    first element whose age is the larger of 1 and that bound; the orbits
    are not read when a generator has age 1, since the least age is 1. Other
    groups, and groups with no element at their bound, are scanned to the
    end. The closure is walked only as far as the scan reads it.
    """
    if rep.flat_elements is None:
        raise ValueError("group is not closed yet; call close_group first")
    n, m, nm = rep.dimension, rep.root_order, rep.dimension * rep.root_order
    ages = [element_age(g, m)[0] for g in rep.generators]
    index = lcm(1, *(a.denominator for a in ages))
    # No non-identity key is below this one, so the first element that reaches it ends the scan:
    # the bound of the coordinate orbits, if any, and in SL(N) at least 2Nm (age 1). A generator
    # of age 1 in SL(N) is such an element, so there the orbits cannot raise the bound
    least_possible = None
    if index > 1 or (rep.generators and 1 not in ages):
        least_possible = _least_possible_key(rep)
    if index == 1:
        least_possible = max(2 * nm, least_possible or 0)
    quasi = []
    min_key: int | None = None  # 2Nm * age, so keys compare as ages do
    witness = None
    for g in rep.flat_elements:
        sums = _cycle_sums(g, n, nm, min_key)
        if sums is None:  # no smaller age and no quasi-reflection: it changes nothing
            continue
        key, moved = sums
        if moved == 0:  # only the identity has every eigenvalue 1
            continue
        if moved == 1:
            quasi.append(_decode(g, n).describe())
        if min_key is None or key < min_key:
            min_key, witness = key, g
            if key == least_possible:
                break
    if quasi:
        raise QuasiReflectionError(
            f"group contains {len(quasi)} quasi-reflection(s): " + "; ".join(quasi),
            elements=tuple(quasi),
        )

    return SingularityVerdict(
        index=index,
        group_order=len(rep.flat_elements),
        min_age=None if min_key is None else Fraction(min_key, 2 * nm),
        witness=None if witness is None else _decode(witness, n).describe(),
    )


def _int_field(value, what: str) -> int:
    if type(value) is not int:  # JSON true/false load as bool, an int subclass
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return [_int_field(k, f"{what} entry") for k in value]


def rep_from_dict(data: dict) -> MonomialRep:
    """Build a representation from the canonical JSON form.

    Expected shape::

        {"dimension": N, "root_order": M,
         "generators": [{"perm": [1-based images], "exponents": [k_1..k_N]}]}

    ``exponents`` may be omitted per generator and defaults to zeros.
    Numbers must be JSON integers; anything else raises ValueError, which
    names a faulty generator by its 1-based place in the list. A
    dimension above ``DIMENSION_CAP``, or a root order of more than
    ``ROOT_ORDER_BITS_CAP`` bits, raises MatrixTooLargeError; more than
    ``GENERATORS_CAP`` generators raise GroupTooLargeError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"the top level must hold a JSON object, got {type(data).__name__}")
    try:
        dimension = _int_field(data["dimension"], "dimension")
        root_order = _int_field(data["root_order"], "root_order")
        raw_gens = data["generators"]
    except KeyError as exc:
        raise ValueError(f"missing field: {exc}") from exc
    if root_order < 1:
        raise ValueError(f"root order must be >= 1, got {root_order}")
    if root_order.bit_length() > ROOT_ORDER_BITS_CAP:
        raise MatrixTooLargeError(
            f"root_order has {root_order.bit_length()} bits, over the cap of "
            f"{ROOT_ORDER_BITS_CAP}"
        )
    if dimension > DIMENSION_CAP:
        raise MatrixTooLargeError(f"dimension {dimension} exceeds the cap of {DIMENSION_CAP}")
    if not isinstance(raw_gens, list):
        raise ValueError(f"generators must be a list, got {raw_gens!r}")
    if len(raw_gens) > GENERATORS_CAP:
        raise GroupTooLargeError(
            f"{len(raw_gens)} generators exceed the cap of {GENERATORS_CAP}", cap=GENERATORS_CAP
        )
    generators = []
    for number, entry in enumerate(raw_gens, 1):  # 1-based, as a reader counts the file
        where = f"generator {number}"
        if not isinstance(entry, dict) or "perm" not in entry:
            raise ValueError(f"{where}: malformed entry {entry!r}")
        images = _int_list(entry["perm"], f"{where}: perm")
        if len(images) != dimension or sorted(images) != list(range(1, dimension + 1)):
            raise ValueError(
                f"{where}: perm must list each of 1..{dimension} exactly once: {images}"
            )
        exps = _int_list(entry.get("exponents", [0] * dimension), f"{where}: exponents")
        if len(exps) != dimension:
            raise ValueError(f"{where}: need {dimension} exponents, got {len(exps)}")
        perm = tuple(i - 1 for i in images)
        generators.append(MonomialElement(perm, tuple(k % root_order for k in exps)))
    return MonomialRep(
        dimension=dimension, root_order=root_order, generators=tuple(generators)
    )


def load_rep_file(path: str | os.PathLike) -> MonomialRep:
    """Read a representation from a JSON file (see ``rep_from_dict``).

    A file longer than ``REP_FILE_CHARS_CAP`` characters raises
    MatrixTooLargeError before any decoding. A path that cannot be opened
    or read (missing, a directory, no permission), text that is not UTF-8,
    invalid JSON, JSON nested too deeply for the decoder, and integer
    literals longer than Python's limit for integer strings raise
    ValueError; so do the faults of ``rep_from_dict``, after the path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read(REP_FILE_CHARS_CAP + 1)
    except UnicodeDecodeError as exc:
        raise ValueError(f"representation file {path} is not UTF-8: {exc}") from exc
    except OSError as exc:  # missing, a directory, no permission
        raise ValueError(f"representation file {path} cannot be read: {exc.strerror}") from exc
    if len(text) > REP_FILE_CHARS_CAP:
        raise MatrixTooLargeError(
            f"representation file {path} is longer than the cap of {REP_FILE_CHARS_CAP} characters"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"representation file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"representation file {path} is nested too deeply: {exc}") from exc
    except ValueError as exc:  # the decoder's only other error: int() past the digit limit
        raise ValueError(
            f"representation file {path} has an integer longer than the "
            f"{sys.get_int_max_str_digits()}-digit limit for integer strings"
        ) from exc
    try:
        return rep_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"representation file {path}: {exc}") from exc
