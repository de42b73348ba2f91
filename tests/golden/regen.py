"""The CLI corpus: rewrite ``tests/golden/cli.json`` and print the entries that moved.

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

The cases are defined here, in ``CASES``. Rewrite the manifest with::

    PYTHONPATH=src python tests/golden/regen.py

after adding a case, and after any change that moves an output on
purpose. Every JSON payload carries ``meta.version``, so a version bump
regenerates the manifest too. The script prints each entry whose exit
code or hashes moved; a change that moves one says which and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from symquot import cli
from symquot.monomial import CLOSURE_CAP_ENV, REP_FILE_CHARS_CAP

MANIFEST = Path(__file__).with_name("cli.json")
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
    # the worst in-cap analyze input: mu_100 wr S_2 on (C^128)^2 with zeta on the first block,
    # 20 000 elements on column codes, walked whole
    "analyze-worst-wreath-json": {"argv": [*ANALYZE, *JSON], "rep": _rep(N, 100, [
        {"perm": [(i + N // 2) % N + 1 for i in range(N)]},
        {"perm": list(range(1, N + 1)), "exponents": [1] * (N // 2) + [0] * (N // 2)}])},
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


def main() -> int:
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    new = {}
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            new[name] = {**case, **replay(case, tmp)}
        if old.get(name) != new[name]:
            print(f"moved: {name}" if name in old else f"added: {name}")
    for name in old.keys() - new.keys():
        print(f"removed: {name}")
    MANIFEST.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
