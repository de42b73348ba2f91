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
(``element_eigen_exponents``, ``det_turn``) and the ``MonomialElement``
product and closure (``multiply``, ``close_group_reference``) live in
``oracle`` as the references that tests and the selftest compare against.

The closure and the scan work on one N-tuple of integer codes per
element, ``code[i] = N * exponents[i] + perm[i]``: the image of e_i and
its exponent in one int. Right multiplication by a generator is one
C-level gather of the codes (``operator.itemgetter``) followed, when the
generator has nonzero exponents, by adding N * exponents mod N * m.
``MonomialElement`` appears only at the edges: the generators and the
reported witness and quasi-reflections, decoded as ``c % N``, ``c // N``.

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
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mod

from .errors import GroupTooLargeError, MatrixTooLargeError, QuasiReflectionError, shown

DEFAULT_CLOSURE_CAP = 20000
CLOSURE_CAP_ENV = "QC_CLOSURE_CAP"
DIMENSION_CAP = 256  # for files read by rep_from_dict; every element is an N-tuple
ROOT_ORDER_BITS_CAP = 128  # for files too; each element code N * e + i grows with m
GENERATORS_CAP = 64  # for files too; closure work is |G| times the generator count
REP_FILE_CHARS_CAP = 1 << 24  # characters read from a file, checked before decoding


class MonomialElement(namedtuple("MonomialElement", "perm exponents")):
    """One monomial matrix: 0-based permutation images plus entry exponents."""

    __slots__ = ()

    def describe(self) -> str:
        """Stable 1-based descriptor used in reports and error messages."""
        images = ",".join(str(i + 1) for i in self.perm)
        exps = ",".join(str(k) for k in self.exponents)
        return f"perm[{images}] exp[{exps}]"


def _decode(code: tuple[int, ...], n: int) -> MonomialElement:
    return MonomialElement(tuple(c % n for c in code), tuple(c // n for c in code))


class MonomialRep(
    namedtuple("MonomialRep", "dimension root_order generators flat_elements", defaults=(None,))
):
    """A monomial group given by generators, closed or not.

    ``generators`` is a tuple of ``MonomialElement``. ``flat_elements``
    is None until ``close_group`` fills it with the closure in closure
    order, each element as the N-tuple of codes ``N * exponents[i] +
    perm[i]``; its length is the group order.
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


def close_group(rep: MonomialRep, cap: int | None = None) -> MonomialRep:
    """Multiplicative closure of the generators, in breadth-first order.

    The identity comes first; each frontier element is multiplied on the
    right by the generators in their given order, which fixes the element
    ordering used for witness reporting. Raises GroupTooLargeError as
    soon as the closure would exceed the cap.
    """
    cap = configured_cap(cap)
    n, nm = rep.dimension, rep.dimension * rep.root_order
    ident = tuple(range(n))
    # a @ g: a's codes gathered by g.perm, then N * g.exponents added mod N * m.
    # tuple(t) is t, where an itemgetter of one index would return a scalar.
    steps = [
        (
            tuple if g.perm == ident else itemgetter(*g.perm),
            tuple(n * k for k in g.exponents) if any(g.exponents) else None,
        )
        for g in rep.generators
    ]
    seen = {ident}
    ordered = [ident]
    for current in ordered:  # grows while it is walked: the list is the BFS queue
        for gather, shifts in steps:
            product = gather(current)
            if shifts is not None:
                product = tuple(map(mod, map(add, product, shifts), repeat(nm)))
            if product in seen:
                continue
            if len(seen) >= cap:
                raise GroupTooLargeError(
                    f"group closure exceeded the cap of {cap} elements", cap=cap
                )
            seen.add(product)
            ordered.append(product)
    return rep._replace(flat_elements=tuple(ordered))


def _cycle_sums(code: tuple[int, ...], n: int, nm: int) -> tuple[int, int]:
    """2Nm * age and the number of eigenvalues != 1 of a coded element.

    Summing ``c - i`` along a cycle of ``i -> c % N``, mod N * m, leaves
    N * K_c: 2Nm * age = 2N * sum K_c + Nm * (N - #cycles).
    """
    seen = [False] * n
    k_total = cycles = fixed = 0
    for start in range(n):
        if seen[start]:
            continue
        cycles += 1
        k_sum = 0
        i = start
        while not seen[i]:
            seen[i] = True
            c = code[i]
            k_sum += c - i
            i = c % n
        k_sum %= nm
        k_total += k_sum
        fixed += k_sum == 0  # a cycle with K_c = 0 has exactly one eigenvalue 1
    return 2 * k_total + nm * (n - cycles), n - fixed


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
    """
    if rep.flat_elements is None:
        raise ValueError("group is not closed yet; call close_group first")
    n, m, nm = rep.dimension, rep.root_order, rep.dimension * rep.root_order
    quasi = []
    min_key: int | None = None  # 2Nm * age, so keys compare as ages do
    witness = None
    for g in rep.flat_elements:
        key, moved = _cycle_sums(g, n, nm)
        if moved == 0:  # only the identity has every eigenvalue 1
            continue
        if moved == 1:
            quasi.append(_decode(g, n).describe())
        if min_key is None or key < min_key:
            min_key, witness = key, g
    if quasi:
        raise QuasiReflectionError(
            f"group contains {len(quasi)} quasi-reflection(s): " + "; ".join(quasi),
            elements=tuple(quasi),
        )

    index = lcm(1, *(element_age(g, m)[0].denominator for g in rep.generators))
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
    Numbers must be JSON integers; anything else raises ValueError. A
    dimension above ``DIMENSION_CAP``, or a root order of more than
    ``ROOT_ORDER_BITS_CAP`` bits, raises MatrixTooLargeError; more than
    ``GENERATORS_CAP`` generators raise GroupTooLargeError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"representation file must hold a JSON object, got {type(data).__name__}")
    try:
        dimension = _int_field(data["dimension"], "dimension")
        root_order = _int_field(data["root_order"], "root_order")
        raw_gens = data["generators"]
    except KeyError as exc:
        raise ValueError(f"representation file is missing field: {exc}") from exc
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
    for entry in raw_gens:
        if not isinstance(entry, dict) or "perm" not in entry:
            raise ValueError(f"malformed generator entry {entry!r}")
        images = _int_list(entry["perm"], "perm")
        if len(images) != dimension or sorted(images) != list(range(1, dimension + 1)):
            raise ValueError(
                f"perm must list each of 1..{dimension} exactly once: {images}"
            )
        exps = _int_list(entry.get("exponents", [0] * dimension), "exponents")
        perm = tuple(i - 1 for i in images)
        generators.append(MonomialElement(perm, tuple(k % root_order for k in exps)))
    return MonomialRep(
        dimension=dimension, root_order=root_order, generators=tuple(generators)
    )


def load_rep_file(path: str | os.PathLike) -> MonomialRep:
    """Read a representation from a JSON file (see ``rep_from_dict``).

    A file longer than ``REP_FILE_CHARS_CAP`` characters raises
    MatrixTooLargeError before any decoding. Invalid JSON, JSON nested
    too deeply for the decoder, and integer literals longer than Python's
    limit for integer strings raise ValueError.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read(REP_FILE_CHARS_CAP + 1)
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
    return rep_from_dict(data)
