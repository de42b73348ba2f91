"""The output corpus: rewrite ``tests/golden/cli.json`` and ``outcomes.json``; print what moved.

Each entry of the corpus is one ``symquot`` command line, run in-process
through ``cli.run``: its argv, its exit code and the SHA-256 of its
stdout and of its stderr. An argv entry ``{rep}`` names a representation
file; the entry carries that file's text inline (``rep``, written
``repeat`` times over) and the replay writes it to a temporary
directory. Without ``rep`` the path names a directory (``rep_dir``) or
nothing at all. Before hashing, the replay maps that path back to
``{rep}`` in stdout and stderr, so the hashes do not depend on where the
file was written. ``env`` sets the closure cap; without it the cap is
the default. ``tests/test_golden.py`` replays every entry and compares.

The second manifest, ``outcomes.json``, holds one SHA-256 per entry of
``DIGESTS``: ``analyze-outcomes`` over the outcome of ``monomial.analyze``
on each group of ``outcome_groups``, a seeded draw, and
``class-table-payloads`` over the JSON and markdown renderings of the
``sympower --table`` payload over a range of models.

The cases are defined here, in ``CASES`` and ``DIGESTS``. Rewrite the
manifests with::

    PYTHONPATH=src python tests/golden/regen.py

after adding a case, and after any change that moves an output on
purpose. Every JSON payload carries ``meta.version``, so a version bump
regenerates the manifests too. The script prints each entry whose exit
code or hashes moved; a change that moves one says which and why.

The CI workflow writes its ``analyze`` inputs from ``DETERMINISM`` and
``CASES``, so each input has one definition, here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from symquot import cli, report, sympower
from symquot.errors import GroupTooLargeError
from symquot.monomial import (
    CLOSURE_CAP_ENV,
    REP_FILE_CHARS_CAP,
    MonomialElement,
    MonomialRep,
    analyze,
    close_group,
    element_age,
)
from symquot.oracle import scan_outcome

MANIFEST = Path(__file__).with_name("cli.json")
OUTCOMES = Path(__file__).with_name("outcomes.json")
N = 256  # the dimension cap


def _rep(dimension, root_order, generators):
    return json.dumps({"dimension": dimension, "root_order": root_order, "generators": generators})


# the inputs of the CI step "Two runs print the same bytes": multi-generator groups on
# row codes (bytes) and on column codes (tuples), and the cyclic worst in-cap input
DETERMINISM = {
    "sl-64": _rep(3, 64, [
        {"perm": [1, 2, 3], "exponents": [1, 63, 0]},
        {"perm": [1, 2, 3], "exponents": [0, 1, 63]},
        {"perm": [2, 3, 1]}]),
    "wreath-65": _rep(4, 65, [
        {"perm": [3, 4, 1, 2]},
        {"perm": [1, 2, 3, 4], "exponents": [1, 64, 0, 0]}]),
    "worst": _rep(N, 19999, [{"perm": list(range(1, N + 1)), "exponents": [1] * N}]),
    "wreath-4-4": _rep(8, 4, [
        {"perm": [3, 4, 1, 2, 5, 6, 7, 8], "exponents": [1, 3, 0, 0, 0, 0, 0, 0]},
        {"perm": [1, 2, 5, 6, 3, 4, 7, 8]},
        {"perm": [1, 2, 3, 4, 7, 8, 5, 6]}]),
    "copies-s5": _rep(15, 1, [
        {"perm": [b + j for b in (0, 5, 10) for j in (2, 1, 3, 4, 5)]},
        {"perm": [b + j % 5 + 1 for b in (0, 5, 10) for j in range(1, 6)]}]),
    "wreath-3-4": _rep(N, 3, [
        {"perm": [(i + 64) % N + 1 for i in range(N)]},
        {"perm": [(i + 64) % 128 + 1 if i < 128 else i + 1 for i in range(N)]},
        {"perm": list(range(1, N + 1)), "exponents": [1] * 64 + [0] * 192}]),
}


def _wreath(m, d):
    """mu_m wr S_d on (C^(N/d))^d with zeta scalar on the first block: the block d-cycle, for
    d > 2 the swap of the first two blocks, and the scalar."""
    b = N // d
    gens = [{"perm": [(i + b) % N + 1 for i in range(N)]}]
    if d > 2:
        gens.append({"perm": [(i + b) % (2 * b) + 1 if i < 2 * b else i + 1 for i in range(N)]})
    gens.append({"perm": list(range(1, N + 1)), "exponents": [1] * b + [0] * (N - b)})
    return _rep(N, m, gens)


SWAP = _rep(2, 1, [{"perm": [2, 1]}])  # a quasi-reflection
S8 = _rep(8, 1, [{"perm": [2, 1, 3, 4, 5, 6, 7, 8]}, {"perm": [2, 3, 4, 5, 6, 7, 8, 1]}])
ANALYZE = ["analyze", "--rep", "{rep}"]
PLURIGENERA = ["plurigenera", "--dim"]
JSON = ["--format", "json"]

CASES = {
    "version": {"argv": ["--version"]},
    "no-command": {"argv": []},
    "unknown-command": {"argv": ["frobnicate"]},
    "sympower-md": {"argv": ["sympower", "--dim", "2", "--points", "3"]},
    "sympower-json": {"argv": ["sympower", "--dim", "2", "--points", "3", *JSON]},
    "sympower-table-md": {"argv": ["sympower", "--dim", "3", "--points", "4", "--table"]},
    "sympower-table-json": {"argv": ["sympower", "--dim", "3", "--points", "4", "--table", *JSON]},
    "sympower-large-points": {"argv": ["sympower", "--dim", "2", "--points", "100"]},
    "sympower-dim-1": {"argv": ["sympower", "--dim", "1", "--points", "3"]},
    "sympower-zero-points": {"argv": ["sympower", "--dim", "2", "--points", "0"]},
    "sympower-points-cap": {"argv": ["sympower", "--dim", "2", "--points", "1001"]},
    "sympower-table-cap": {"argv": ["sympower", "--dim", "2", "--points", "51", "--table"]},
    "sympower-dim-bits-cap": {"argv": ["sympower", "--dim", str(1 << 13900), "--points", "3"]},
    "plurigenera-md": {"argv": [*PLURIGENERA, "2", "--points", "3", "--pm", "1=2,2=5"]},
    "plurigenera-json": {"argv": [*PLURIGENERA, "3", "--points", "4", "--pm", "1=2,2=5,3=9",
                                  "--kappa", "3", *JSON]},
    "plurigenera-kappa-inf": {"argv": [*PLURIGENERA, "2", "--points", "3", "--pm", "1=0",
                                       "--kappa=-inf"]},
    "plurigenera-negative-pm": {"argv": [*PLURIGENERA, "2", "--points", "3", "--pm", "1=-1"]},
    "plurigenera-repeated-pm": {"argv": [*PLURIGENERA, "2", "--points", "3", "--pm", "1=2,1=3"]},
    "plurigenera-bits-cap": {"argv": [*PLURIGENERA, "2", "--points", "1000", "--pm", "1=20000"]},
    "genus-bound-nonneg": {"argv": ["genus-bound", "--regime", "nonneg", "--points", "4"]},
    "genus-bound-general": {"argv": ["genus-bound", "--regime", "general", "--points", "4"]},
    "genus-bound-bits-cap": {"argv": ["genus-bound", "--regime", "general",
                                      "--points", str(1 << 14001)]},
    # a full selftest run takes most of two seconds whatever its range; CI compares its bytes
    "selftest-empty-range": {"argv": ["selftest", "--max-dim", "1", "--max-points", "3"]},
    "selftest-matrix-cap": {"argv": ["selftest", "--max-dim", "9", "--max-points", "8"]},
    **{f"analyze-{name}-json": {"argv": [*ANALYZE, *JSON], "rep": rep}
       for name, rep in DETERMINISM.items()},
    **{f"analyze-{name}-md": {"argv": ANALYZE, "rep": DETERMINISM[name]}
       for name in ("sl-64", "wreath-65", "wreath-3-4")},
    # mu_100 wr S_2 on (C^128)^2 with zeta on the first block: 20 000 elements on column
    # codes, at the cap, walked on demand
    "analyze-worst-wreath-json": {"argv": [*ANALYZE, *JSON], "rep": _wreath(100, 2)},
    # mu_101 wr S_2, the same with m = 101: 20 402 elements, over the cap, though its generator
    # orders 202 and 2 are not; it exits 3 before any walk
    "analyze-over-cap-wreath": {"argv": ANALYZE, "rep": _wreath(101, 2)},
    # mu_5 wr S_4 on (C^64)^4: 15 000 elements on column codes, scanned in full, since no
    # element has the orbits' least possible age; the worst in-cap analyze input
    "analyze-worst-scanned-wreath-json": {"argv": [*ANALYZE, *JSON], "rep": _wreath(5, 4)},
    "analyze-trivial": {"argv": ANALYZE, "rep": _rep(3, 5, [])},
    "analyze-quasi-reflection": {"argv": ANALYZE, "rep": SWAP},
    "analyze-closure-cap": {"argv": ANALYZE, "rep": S8},  # 40 320 elements, on row codes
    # caps at the order and one below it, on row codes (6 144 elements) and on column codes (8 450)
    **{f"analyze-{name}-cap-{at}": {"argv": ANALYZE + JSON * (at == "order"),
                                    "rep": DETERMINISM[name], "env": {CLOSURE_CAP_ENV: str(cap)}}
       for name, order in (("wreath-4-4", 6144), ("wreath-65", 8450))
       for at, cap in (("order", order), ("below", order - 1))},
    "analyze-cap-env-malformed": {"argv": ANALYZE, "rep": SWAP, "env": {CLOSURE_CAP_ENV: "ten"}},
    "analyze-dimension-cap": {"argv": ANALYZE, "rep": _rep(N + 1, 1, [])},
    "analyze-root-order-cap": {"argv": ANALYZE, "rep": _rep(2, 1 << 128, [])},
    "analyze-generators-cap": {"argv": ANALYZE, "rep": _rep(2, 1, [{"perm": [1, 2]}] * 65)},
    "analyze-file-chars-cap": {"argv": ANALYZE, "rep": " ", "repeat": REP_FILE_CHARS_CAP + 1},
    "analyze-malformed-json": {"argv": ANALYZE, "rep": '{"dimension": 2,'},
    "analyze-top-level-list": {"argv": ANALYZE, "rep": "[1, 2]"},
    "analyze-bad-perm": {"argv": ANALYZE, "rep": _rep(2, 1, [{"perm": [1, 1]}])},
    "analyze-missing-file": {"argv": ANALYZE},
    "analyze-directory": {"argv": ANALYZE, "rep_dir": True},
}


OUTCOME_SEED = 30
OUTCOME_GROUPS = 3000
OUTCOME_CAP = 3000


def _element(rng: random.Random, n: int, m: int) -> MonomialElement:
    perm = list(range(n))
    rng.shuffle(perm)
    return MonomialElement(tuple(perm), tuple(rng.randrange(m) for _ in range(n)))


def _into_sl(g: MonomialElement, m: int) -> MonomialElement:
    """``g`` moved into SL(N): an odd permutation over an odd m first swaps two images to
    become even, since its determinant -zeta^k is no power of zeta; then the first exponent
    is shifted so that the determinant sign(perm) * zeta^(sum of exponents) is 1."""
    perm, exps = list(g.perm), list(g.exponents)
    if element_age(g, m)[0] * m % 1:
        perm[0], perm[1] = perm[1], perm[0]
    turn = element_age(MonomialElement(tuple(perm), exps), m)[0] % 1
    exps[0] = (exps[0] - int(turn * m)) % m
    return MonomialElement(tuple(perm), tuple(exps))


def _quasi_reflection(rng: random.Random, n: int, m: int) -> MonomialElement | None:
    """A diagonal zeta^k on one coordinate, or a transposition with exponents k and -k."""
    kinds = ["diagonal"] * (m > 1) + ["transposition"] * (n > 1)
    if not kinds:  # C^1 with m = 1 has no quasi-reflection
        return None
    perm, exps = list(range(n)), [0] * n
    if rng.choice(kinds) == "diagonal":
        exps[rng.randrange(n)] = rng.randrange(1, m)
    else:  # e_i -> zeta^k e_j -> e_i: eigenvalues 1 and -1
        i, j = rng.sample(range(n), 2)
        perm[i], perm[j] = j, i
        exps[i] = rng.randrange(m)
        exps[j] = -exps[i] % m
    return MonomialElement(tuple(perm), tuple(exps))


def outcome_groups() -> list[MonomialRep]:
    """``OUTCOME_GROUPS`` groups drawn from ``random.Random(OUTCOME_SEED)``.

    Seven draws in eight are on C^1..C^8 with m <= 9, on row codes; the
    eighth is on C^2..C^4 with N * m > 256, on column codes. Each has 0-5
    generators. Every third group has each generator moved into SL(N),
    and every third from the second on has a quasi-reflection added at a
    drawn place.
    """
    rng = random.Random(OUTCOME_SEED)
    groups = []
    for number in range(OUTCOME_GROUPS):
        if rng.randrange(8):
            n, m = rng.randint(1, 8), rng.randint(1, 9)
        else:
            n = rng.randint(2, 4)
            m = rng.randint(256 // n + 1, 256 // n + 64)
        gens = [_element(rng, n, m) for _ in range(rng.randint(0, 5))]
        if number % 3 == 1:
            gens = [_into_sl(g, m) for g in gens]
        elif number % 3 == 2 and (quasi := _quasi_reflection(rng, n, m)) is not None:
            gens.insert(rng.randint(0, len(gens)), quasi)
        groups.append(MonomialRep(dimension=n, root_order=m, generators=tuple(gens)))
    return groups


def _analyze_outcomes() -> str:
    """One line per group of ``outcome_groups``: the group, then its verdict or error."""
    lines = []
    for rep in outcome_groups():
        try:
            outcome = scan_outcome(analyze, close_group(rep, cap=OUTCOME_CAP))
        except GroupTooLargeError as exc:
            outcome = f"GroupTooLargeError({exc})"
        gens = "; ".join(g.describe() for g in rep.generators)
        lines.append(f"C^{rep.dimension} m={rep.root_order} [{gens}]: {outcome!r}\n")
    return "".join(lines)


def _class_table_payloads() -> str:
    """The ``sympower --table`` payload of each model n = 2..6, d = 1..14, as JSON and markdown."""
    texts = []
    for n in range(2, 7):
        for d in range(1, 15):
            payload = report.sympower_payload(
                n, d, sympower.verdict(n, d), sympower.class_table(n, d)
            )
            texts += [report.render(payload, "json"), report.render(payload, "md")]
    return "".join(texts)


DIGESTS = {"analyze-outcomes": _analyze_outcomes, "class-table-payloads": _class_table_payloads}


def outcome_digest(name: str) -> str:
    """The SHA-256 of the text that ``DIGESTS[name]`` builds."""
    return hashlib.sha256(DIGESTS[name]().encode()).hexdigest()


def replay(entry: dict, tmp: str | os.PathLike) -> dict:
    """Run one entry in-process; its exit code and the SHA-256 of its stdout and stderr."""
    path = os.path.join(tmp, "rep.json")
    if "rep" in entry:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(entry["rep"] * entry.get("repeat", 1))
    elif entry.get("rep_dir"):
        os.mkdir(path)
    argv = [path if arg == "{rep}" else arg for arg in entry["argv"]]
    env = {CLOSURE_CAP_ENV: None, **entry.get("env", {})}
    saved = {key: os.environ.get(key) for key in env}
    out, err = io.StringIO(), io.StringIO()
    try:
        for key, value in env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    def digest(text: str) -> str:
        return hashlib.sha256(text.replace(path, "{rep}").encode()).hexdigest()

    return {"exit": code, "stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}


def _rewrite(path: Path, new: dict) -> None:
    """Write ``new`` to ``path`` and print each entry that moved, was added or removed."""
    old = json.loads(path.read_text()) if path.exists() else {}
    for name in new:
        if old.get(name) != new[name]:
            print(f"moved: {name}" if name in old else f"added: {name}")
    for name in old.keys() - new.keys():
        print(f"removed: {name}")
    path.write_text(json.dumps(new, indent=1) + "\n")


def main() -> int:
    corpus = {}
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            corpus[name] = {**case, **replay(case, tmp)}
    _rewrite(MANIFEST, corpus)
    _rewrite(OUTCOMES, {name: outcome_digest(name) for name in DIGESTS})
    return 0


if __name__ == "__main__":
    sys.exit(main())
