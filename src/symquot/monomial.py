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
element is the witness and the verdict is settled. A group of index 1
without an age-1 element (terminal, such as 1/2(1,1,1,1)) and every
group of index > 1 are scanned in full.

The closure and the scan work on one code per matrix entry, which holds
the entry's place and its exponent in one int, in one of two encodings:

- when N * m <= 256 every code fits in a byte, and an element is a
  ``bytes`` of row codes, ``code[j] = N * e + i`` for the entry zeta^e
  at row j, column i. Right multiplication by g sends row code
  N * e + k to N * (e + g.exponents[i] mod m) + i for i = g^-1(k),
  whatever the row, so a product is one ``bytes.translate`` through a
  256-byte table built once per generator (``_row_table``);
- otherwise an element is an N-tuple of column codes,
  ``code[i] = N * exponents[i] + perm[i]``: the image of e_i and its
  exponent. Right multiplication by a generator gathers the codes by
  its permutation and, when it has nonzero exponents, adds
  N * exponents mod N * m.

``close_group`` does this for a whole slice of its queue at once, in
C-level ``map`` and ``zip`` calls, and drops the products it has seen
before in C too (``itertools.filterfalse``). The scan needs no change for
the encoding: ``_cycle_sums`` follows ``i -> code[i] % N``, the
permutation for column codes and its inverse for row codes, so it meets
the same cycles in the same order, and along a cycle the sum of
``code[i] - i`` is N * K_c either way, since the places telescope.
``MonomialElement`` appears only at the edges: the generators and the
reported witness and quasi-reflections, decoded by ``_decode``.

Closure construction is single-writer; every produced value is
immutable, and the analysis scan is read-only, so verdicts and closed
groups can be shared freely across threads.
"""

from __future__ import annotations

import json
import os
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, filterfalse, repeat
from math import lcm
from operator import add, itemgetter, mod

from .errors import GroupTooLargeError, MatrixTooLargeError, QuasiReflectionError, shown

DEFAULT_CLOSURE_CAP = 20000
CLOSURE_CAP_ENV = "QC_CLOSURE_CAP"
DIMENSION_CAP = 256  # for files read by rep_from_dict; every element holds N codes
ROOT_ORDER_BITS_CAP = 128  # for files too; each element code N * e + i grows with m
GENERATORS_CAP = 64  # for files too; closure work is |G| times the generator count
REP_FILE_CHARS_CAP = 1 << 24  # characters read from a file, checked before decoding
# Queue elements that close_group multiplies in one step. A step on row
# codes holds its distinct products at once: at most 256 * 64 of at most
# 256 bytes each, about 5 MB. A wide step on column codes copies its
# slice into N column tuples; the bound keeps that copy at N * 256
# references. Unbounded, it lifted the traced peak of S_8 on C^256, which
# runs over the default cap, from 42.6 to 51.3 MB when that group was
# closed on column codes. 256 elements still pay for the transpose and
# the per-column maps at N up to DIMENSION_CAP.
_QUEUE_SLICE = 256
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
    is None until ``close_group`` fills it with the closure in closure
    order; its length is the group order. When N * m <= 256 each element
    is a ``bytes`` of row codes, ``code[j] = N * e + i`` for the entry
    zeta^e at (j, i); otherwise it is the N-tuple of column codes
    ``N * exponents[i] + perm[i]``. ``analyze`` reads either alike.
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


def close_group(rep: MonomialRep, cap: int | None = None) -> MonomialRep:
    """Multiplicative closure of the generators, in breadth-first order.

    The identity comes first; each frontier element is multiplied on the
    right by the generators in their given order, which fixes the element
    ordering used for witness reporting. Raises GroupTooLargeError as
    soon as the closure would exceed the cap, holding exactly ``cap``
    elements.

    The queue is walked in slices of up to ``_QUEUE_SLICE`` elements;
    new elements are only appended, so slicing keeps the order of the
    one-element-at-a-time walk, and with it the witness. The products of
    a slice are interleaved per element in generator order, and known
    ones are dropped in C.

    When N * m <= 256 every element is a ``bytes`` of row codes and a
    product is one ``bytes.translate`` by the generator's ``_row_table``.
    A slice's products are deduplicated by ``dict.fromkeys``, filtered
    against ``seen`` and appended at once; at the cap only the first new
    elements up to it are kept before the error is raised.

    Otherwise every element is an N-tuple of column codes. A slice of at
    least N elements is transposed once into N columns: a generator's
    gather is a reordering of the columns, its shift one ``map`` per
    column with a nonzero exponent, and ``zip`` rebuilds the products.
    A thinner slice, such as every level of a cyclic group, gathers
    element by element (``itemgetter``), which costs less than N columns
    of a few entries each. The cap is checked on each new element as it
    comes, so the error is raised at the same element as in the
    one-by-one walk.
    """
    cap = configured_cap(cap)
    n, nm = rep.dimension, rep.dimension * rep.root_order
    ident = tuple(range(n))
    if nm <= 256:  # row codes fit in a byte
        tables = [_row_table(g, n, nm) for g in rep.generators]
        ordered = [bytes(ident)]
        seen = set(ordered)
        start = 0
        while start < len(ordered):  # the list is the BFS queue, walked a slice at a time
            chunk = ordered[start : start + _QUEUE_SLICE]
            start += len(chunk)
            # zip interleaves the generators per element: the order of the one-by-one walk
            products = chain.from_iterable(
                zip(*[map(bytes.translate, chunk, repeat(t)) for t in tables])
            )
            new = list(filterfalse(seen.__contains__, dict.fromkeys(products)))
            room = max(cap - len(seen), 0)  # a cap below 1 still holds the identity
            over = len(new) > room
            del new[room:]  # past the cap, keep what the one-by-one walk holds
            seen.update(new)
            ordered += new
            if over:
                raise GroupTooLargeError(
                    f"group closure exceeded the cap of {cap} elements", cap=cap
                )
        return rep._replace(flat_elements=tuple(ordered))
    # a @ g: a's codes gathered by g.perm, then N * g.exponents added mod N * m.
    # tuple(t) is t, where an itemgetter of one index would return a scalar.
    # A gather reorders an element's codes, or a slice's columns alike.
    steps = [
        (
            tuple if g.perm == ident else itemgetter(*g.perm),
            tuple(n * k for k in g.exponents) if any(g.exponents) else None,
        )
        for g in rep.generators
    ]
    mods = repeat(nm)
    seen = {ident}
    ordered = [ident]
    start = 0
    while start < len(ordered):  # the list is the BFS queue, walked a slice at a time
        chunk = ordered[start : start + _QUEUE_SLICE]
        start += len(chunk)
        products = []
        if len(chunk) >= n:  # wide: one C-level map per column of the slice
            cols = list(zip(*chunk))
            for gather, shifts in steps:
                new = gather(cols)
                if shifts is not None:
                    new = [
                        map(mod, map(add, col, repeat(s)), mods) if s else col
                        for col, s in zip(new, shifts)
                    ]
                products.append(zip(*new))
        else:  # thin: one C-level map per element, no column overhead
            for gather, shifts in steps:
                gathered = map(gather, chunk)
                if shifts is not None:
                    summed = map(map, repeat(add), gathered, repeat(shifts))
                    gathered = map(tuple, map(map, repeat(mod), summed, repeat(mods)))
                products.append(gathered)
        # zip interleaves the generators per element: the order of the one-by-one walk.
        # filterfalse reads ``seen`` lazily, so a repeat within the slice is dropped too.
        for product in filterfalse(seen.__contains__, chain.from_iterable(zip(*products))):
            if len(seen) >= cap:
                raise GroupTooLargeError(
                    f"group closure exceeded the cap of {cap} elements", cap=cap
                )
            seen.add(product)
            ordered.append(product)
    return rep._replace(flat_elements=tuple(ordered))


def _cycle_sums(
    code: tuple[int, ...], n: int, nm: int, bound: int | None = None
) -> tuple[int, int] | None:
    """2Nm * age and the number of eigenvalues != 1 of a coded element.

    Summing ``c - i`` along a cycle of ``i -> c % N``, mod N * m, leaves
    N * K_c: a cycle of length l adds 2N * K_c + Nm * (l - 1) to 2Nm * age,
    and l - [K_c = 0] to the count. Both running sums only grow, so once
    the key reaches ``bound`` and the count is at least 2 the walk stops
    and returns None: the element's age is at least bound / 2Nm and it is
    neither the identity nor a quasi-reflection.
    """
    seen = [False] * n
    key = moved = 0
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
        if bound is not None and key >= bound and moved >= 2:
            return None
    return key, moved


def element_age(g: MonomialElement, root_order: int) -> tuple[Fraction, int]:
    """Age of ``g`` and its number of eigenvalues != 1, from cycle sums."""
    n = len(g.perm)
    code = tuple(n * k + i for i, k in zip(g.perm, g.exponents))
    key, moved = _cycle_sums(code, n, n * root_order)
    return Fraction(key, 2 * n * root_order), moved


def analyze(rep: MonomialRep) -> SingularityVerdict:
    """Age-criterion verdict for a closed monomial group, in one pass.

    canonical: every non-identity element has age >= 1; terminal: strictly
    greater. gorenstein: the determinant character is trivial; the index
    is that character's order, the lcm of the generators' age
    denominators. The witness is the first element of minimal age in
    closure order. Quasi-reflections abort the analysis: the quotient is
    not taken in that regime.

    Each element's cycle walk gets the least key so far as its bound. An
    element whose walk stops there has a key at least that large, and only
    a strictly smaller key replaces the witness, so the witness stays the
    first least-age element; it has two eigenvalues != 1 already, so it is
    neither the identity nor a quasi-reflection, and the quasi-reflections
    are still every one in closure order.

    The index comes first. When it is 1 the group lies in SL(N), where
    every non-identity age is an integer >= 1 and no element is a
    quasi-reflection (its determinant would be its one eigenvalue != 1),
    so the scan ends at the first element of age 1: it is the witness, and
    nothing after it can change the verdict. Other groups, and SL groups
    with no age-1 element, are scanned to the end.
    """
    if rep.flat_elements is None:
        raise ValueError("group is not closed yet; call close_group first")
    n, m, nm = rep.dimension, rep.root_order, rep.dimension * rep.root_order
    index = lcm(1, *(element_age(g, m)[0].denominator for g in rep.generators))
    # In SL(N) every non-identity key is at least 2Nm (age 1), so one equal to it ends the scan.
    least_possible = 2 * nm if index == 1 else None
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
