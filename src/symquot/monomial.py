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

The closure and the scan work on one flat tuple per element,
``perm + exponents`` of length 2N. Right multiplication by a generator
is one C-level gather of that tuple (``operator.itemgetter``) followed,
when the generator has nonzero exponents, by adding them mod m on the
exponent half. ``MonomialElement`` appears only at the edges: the
generators, the reported witness and quasi-reflections, and
``MonomialRep.elements``, which is built from the flat tuples the first
time it is read.

Closure construction is single-writer; every produced value is
immutable, and the analysis scan is read-only, so verdicts and closed
groups can be shared freely across threads.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mod
from pathlib import Path

from .errors import GroupTooLargeError, MatrixTooLargeError, QuasiReflectionError

DEFAULT_CLOSURE_CAP = 20000
CLOSURE_CAP_ENV = "QC_CLOSURE_CAP"
DIMENSION_CAP = 256  # for files read by rep_from_dict; every element is an N-tuple


@dataclass(frozen=True)
class MonomialElement:
    """One monomial matrix: 0-based permutation images plus entry exponents."""

    perm: tuple[int, ...]
    exponents: tuple[int, ...]

    def describe(self) -> str:
        """Stable 1-based descriptor used in reports and error messages."""
        images = ",".join(str(i + 1) for i in self.perm)
        exps = ",".join(str(k) for k in self.exponents)
        return f"perm[{images}] exp[{exps}]"


@dataclass(frozen=True)
class MonomialRep:
    """A monomial group given by generators, with an optional closure cache.

    ``flat_elements`` holds the closure as flat ``perm + exponents``
    tuples, in closure order; ``elements`` is the same sequence as
    ``MonomialElement`` values, built on first access.
    """

    dimension: int
    root_order: int
    generators: tuple[MonomialElement, ...]
    flat_elements: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.root_order < 1:
            raise ValueError(f"root order must be >= 1, got {self.root_order}")
        for gen in self.generators:
            self._check_element(gen)

    def _check_element(self, g: MonomialElement) -> None:
        if sorted(g.perm) != list(range(self.dimension)):
            raise ValueError(f"not a permutation of 0..{self.dimension - 1}: {g.perm}")
        if len(g.exponents) != self.dimension:
            raise ValueError(
                f"need {self.dimension} exponents, got {len(g.exponents)}"
            )
        if any(not 0 <= k < self.root_order for k in g.exponents):
            raise ValueError(
                f"exponents must lie in [0, {self.root_order}): {g.exponents}"
            )

    @cached_property
    def elements(self) -> tuple[MonomialElement, ...] | None:
        if self.flat_elements is None:
            return None
        n = self.dimension
        return tuple(MonomialElement(g[:n], g[n:]) for g in self.flat_elements)

    @property
    def order(self) -> int:
        if self.flat_elements is None:
            raise ValueError("group is not closed yet; call close_group first")
        return len(self.flat_elements)


@dataclass(frozen=True)
class SingularityVerdict:
    """Outcome of the age-criterion scan over one finite group."""

    index: int
    group_order: int
    min_age: Fraction | None  # None for the trivial group (no witnesses)
    witness: str | None

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

    An environment value that is not an integer >= 1 raises ValueError.
    """
    if cap is not None:
        return cap
    env = os.environ.get(CLOSURE_CAP_ENV)
    if not env:
        return DEFAULT_CLOSURE_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{CLOSURE_CAP_ENV} must be an integer >= 1, got {env!r}")
    return int(env)


def close_group(rep: MonomialRep, cap: int | None = None) -> MonomialRep:
    """Multiplicative closure of the generators, in breadth-first order.

    The identity comes first; each frontier element is multiplied on the
    right by the generators in their given order, which fixes the element
    ordering used for witness reporting. Raises GroupTooLargeError as
    soon as the closure would exceed the cap.
    """
    cap = configured_cap(cap)
    n, m = rep.dimension, rep.root_order
    # (a @ b) has perm a.perm[b.perm[i]] and exponents
    # (b.exponents[i] + a.exponents[b.perm[i]]) % m: a gather of a's flat
    # tuple by b.perm on both halves, then b's exponents added mod m.
    steps = [
        (
            itemgetter(*g.perm, *(n + j for j in g.perm)),
            g.exponents if any(g.exponents) else None,
        )
        for g in rep.generators
    ]
    ident = tuple(range(n)) + (0,) * n
    seen = {ident}
    ordered = [ident]
    for current in ordered:  # grows while it is walked: the list is the BFS queue
        for gather, exps in steps:
            product = gather(current)
            if exps is not None:
                product = product[:n] + tuple(
                    map(mod, map(add, product[n:], exps), repeat(m))
                )
            if product in seen:
                continue
            if len(seen) >= cap:
                raise GroupTooLargeError(
                    f"group closure exceeded the cap of {cap} elements", cap=cap
                )
            seen.add(product)
            ordered.append(product)
    return replace(rep, flat_elements=tuple(ordered))


def _cycle_sums(flat: tuple[int, ...], n: int, m: int) -> tuple[int, int]:
    """2m * age and the number of eigenvalues != 1 of a flat element.

    One walk over the cycles of ``flat[:n]`` sums the exponents
    ``flat[n:]`` along each cycle: 2m * age = 2 * sum K_c + m * (N - #cycles).
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
            k_sum += flat[n + i]
            i = flat[i]
        k_sum %= m
        k_total += k_sum
        fixed += k_sum == 0  # a cycle with K_c = 0 has exactly one eigenvalue 1
    return 2 * k_total + m * (n - cycles), n - fixed


def element_age(g: MonomialElement, root_order: int) -> tuple[Fraction, int]:
    """Age of ``g`` and its number of eigenvalues != 1, from cycle sums."""
    key, moved = _cycle_sums(g.perm + g.exponents, len(g.perm), root_order)
    return Fraction(key, 2 * root_order), moved


def _describe(flat: tuple[int, ...], n: int) -> str:
    return MonomialElement(flat[:n], flat[n:]).describe()


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
    n, m = rep.dimension, rep.root_order
    quasi = []
    min_key: int | None = None  # 2m * age, so keys compare as ages do
    witness = None
    for g in rep.flat_elements:
        key, moved = _cycle_sums(g, n, m)
        if moved == 0:  # only the identity has every eigenvalue 1
            continue
        if moved == 1:
            quasi.append(_describe(g, n))
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
        min_age=None if min_key is None else Fraction(min_key, 2 * m),
        witness=None if witness is None else _describe(witness, n),
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
    dimension above ``DIMENSION_CAP`` raises MatrixTooLargeError.
    """
    try:
        dimension = _int_field(data["dimension"], "dimension")
        root_order = _int_field(data["root_order"], "root_order")
        raw_gens = data["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"representation file is missing field: {exc}") from exc
    if root_order < 1:
        raise ValueError(f"root order must be >= 1, got {root_order}")
    if dimension > DIMENSION_CAP:
        raise MatrixTooLargeError(f"dimension {dimension} exceeds the cap of {DIMENSION_CAP}")
    if not isinstance(raw_gens, list):
        raise ValueError(f"generators must be a list, got {raw_gens!r}")
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


def load_rep_file(path: str | Path) -> MonomialRep:
    """Read a representation from a JSON file (see ``rep_from_dict``).

    Invalid JSON, JSON nested too deeply for the decoder, and integer
    literals longer than Python's limit for integer strings raise
    ValueError.
    """
    text = Path(path).read_text(encoding="utf-8")
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
