"""The three workloads: seeded inputs, one item's calls into symquot, its check.

Every workload serves one item at a time from one client (a closed
loop), in whole rounds made from the seed: ``round(i)`` is the same for
the same seed and i, and every round has the same mix, so each run has
it too. Items within a workload are chosen to cost alike, so that the
median and the tail describe one kind of work rather than a mix of sizes.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from math import ceil, gcd
from pathlib import Path
from types import SimpleNamespace

import checks
from spans import NullTracer


class Workload:
    name = ""
    tail_pct = 50  # highest percentile with ten samples beyond it at min_items
    # Check answers in a forked child, so that the checker's imports and
    # allocations stay out of the worker's peak RSS. Not for cli-oneshot,
    # whose peak_rss_mb is the largest child of the worker.
    check_apart = False

    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.pool: list = []
        self.round_size = 1

    @property
    def min_items(self) -> int:
        return ceil(10 / (1 - self.tail_pct / 100))

    def round(self, index: int) -> list:
        """Round ``index``: by default a slice of a fixed pool, taken in turn."""
        rounds = len(self.pool) // self.round_size
        start = (index % rounds) * self.round_size
        return self.pool[start:start + self.round_size]

    def known_fault(self, op) -> bool:
        return False

    def sample(self):
        """A small fixed op: the warm-up item, and the self-check's right answer."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def verdict_copy(v, **changes):
    """A plain copy of a verdict's fields, for feeding the checker wrong answers."""
    fields = checks.verdict_of(v)
    fields["witness"] = v.witness
    fields.update(changes)
    return SimpleNamespace(**fields)


def off_by_one(v):
    return verdict_copy(v, index=v.index + 1, gorenstein=False)


def flipped(v):
    return verdict_copy(v, terminal=not v.terminal)


# ---- sympower-table --------------------------------------------------------


class SympowerTable(Workload):
    """One (n, d) request as ``symquot sympower --table`` serves it.

    d is fixed at 26 (2436 classes): a band of several d mixes items whose
    costs differ by p(d), so the median jumps between clusters. The round
    is every n in 2..6 once, in a seeded order, served again and again: a
    run repeats these five requests, so a cache keyed on (n, d) would hit
    on all items after the first round.
    """

    name = "sympower-table"
    tail_pct = 90
    check_apart = True
    POINTS = 26
    DIMS = (2, 3, 4, 5, 6)

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from symquot import report, sympower

        self.sympower, self.report = sympower, report
        self.pool = [(n, self.POINTS) for n in self.DIMS]
        self.rng.shuffle(self.pool)
        self.round_size = len(self.pool)

    def run(self, op, tr):
        n, d = op
        with tr.span("sympower.verdict"):
            v = self.sympower.verdict(n, d)
        with tr.span("sympower.class_table"):
            rows = self.sympower.class_table(n, d)
        tr.count("classes", len(rows))
        with tr.span("report.json"):
            with tr.span("report.json.payload"):
                payload = self.report.sympower_payload(n, d, v, rows)
            with tr.span("report.json.encode"):
                js = self.report.canonical_json(payload)
        with tr.span("report.md"):
            md = self.report.sympower_markdown(n, d, v, rows)
        return v, rows, js, md

    def check(self, op, out):
        return checks.check_sympower(*op, *out)

    def sample(self):
        return (3, 6)

    def corruptions(self, op, out):
        v, rows, js, md = out
        return [
            ("flipped terminal", op, (flipped(v), rows, js, md)),
            ("index off by one", op, (off_by_one(v), rows, js, md)),
            ("one class age in the JSON", op,
             (v, rows, js.replace('"age": "3/2"', '"age": "1/2"', 1), md)),
        ]


# ---- monomial-large --------------------------------------------------------


def sl_group(m):
    """(Z/m)^2 x| Z/3 on C^3: diag(1, -1, 0), diag(0, 1, -1), the 3-cycle."""
    ident = (0, 1, 2)
    return 3, m, [(ident, (1, m - 1, 0)), (ident, (0, 1, m - 1)), ((1, 2, 0), (0, 0, 0))]


def sym_group(n, d):
    """n copies of S_d on C^{nd}: adjacent transpositions on every block."""
    size = n * d
    gens = []
    for i in range(d - 1):
        perm = list(range(size))
        for block in range(n):
            a = block * d + i
            perm[a], perm[a + 1] = perm[a + 1], perm[a]
        gens.append((tuple(perm), (0,) * size))
    return size, 1, gens


def wreath_group(m, d):
    """mu_m wr S_d on (C^2)^d: adjacent block swaps and diag(z, 1/z) on block 0."""
    size = 2 * d
    gens = []
    for b in range(d - 1):
        perm = list(range(size))
        perm[2 * b], perm[2 * b + 2] = 2 * b + 2, 2 * b
        perm[2 * b + 1], perm[2 * b + 3] = 2 * b + 3, 2 * b + 1
        gens.append((tuple(perm), (0,) * size))
    diag = [0] * size
    diag[0], diag[1] = 1, m - 1
    gens.append((tuple(range(size)), tuple(diag)))
    return size, m, gens


def multiply(a, b, m):
    """Monomial product a @ b (same convention as the representation files)."""
    (pa, ea), (pb, eb) = a, b
    return (tuple(pa[pb[i]] for i in range(len(pb))),
            tuple((eb[i] + ea[pb[i]]) % m for i in range(len(pb))))


def disguise(rng, size, m, gens):
    """Relabel coordinates by a seeded permutation; add one redundant generator."""
    pi = list(range(size))
    rng.shuffle(pi)
    out = []
    for perm, exps in gens:
        new_perm, new_exps = [0] * size, [0] * size
        for i in range(size):
            new_perm[pi[i]] = pi[perm[i]]
            new_exps[pi[i]] = exps[i]
        out.append((tuple(new_perm), tuple(new_exps)))
    a, b = rng.sample(range(len(out)), 2)
    out.insert(rng.randrange(len(out) + 1), multiply(out[a], out[b], m))
    return out


def monomial_case(rng, family, params):
    size, m, gens = {"sl": lambda p: sl_group(p["m"]),
                     "sym": lambda p: sym_group(p["n"], p["d"]),
                     "wreath": lambda p: wreath_group(p["m"], p["d"])}[family](params)
    gens = disguise(rng, size, m, gens)
    text = json.dumps({
        "dimension": size,
        "root_order": m,
        "generators": [{"perm": [i + 1 for i in p], "exponents": list(e)} for p, e in gens],
    })
    order = checks.monomial_expected(family, params)["group_order"]
    return {"family": family, "params": params, "dimension": size, "root_order": m,
            "generators": gens, "order": order, "text": text}


class MonomialLarge(Workload):
    """One group of 5 040 to 13 068 elements, given as JSON text.

    A round holds two SL-diagonal groups, two wreath products and the two
    materialized symmetric-power models, in a seeded order. Their
    parameters are fixed, so rounds cost the same whatever the seed, and
    chosen so that five of the six cost alike (0.55-0.65 s on a 2.1 GHz
    core); n = 3, d = 7 costs about 0.85 s and sits above the tail.
    Round i is made from (seed, i) when it starts: every group is freshly
    relabelled and gets a fresh redundant generator. A draw whose text
    an earlier round of the run already served is drawn again, so no
    input repeats within a run.
    """

    name = "monomial-large"
    tail_pct = 75
    check_apart = True
    GROUPS = (
        ("sl", {"m": 64}),
        ("sl", {"m": 66}),
        ("wreath", {"m": 11, "d": 3}),
        ("wreath", {"m": 4, "d": 4}),
        ("sym", {"n": 2, "d": 7}),
        ("sym", {"n": 3, "d": 7}),
    )

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from symquot import monomial, report

        self.monomial, self.report = monomial, report
        self.seed = seed
        self.made: set[str] = set()

    def round(self, index):
        rng = random.Random(f"{self.seed}/{index}")
        groups = list(self.GROUPS)
        rng.shuffle(groups)
        cases = []
        for family, params in groups:
            case = monomial_case(rng, family, params)
            while case["text"] in self.made:
                case = monomial_case(rng, family, params)
            self.made.add(case["text"])
            cases.append(case)
        return cases

    def run(self, case, tr):
        with tr.span("monomial.parse"):
            rep = self.monomial.rep_from_dict(json.loads(case["text"]))
        with tr.span("monomial.close"):
            closed = self.monomial.close_group(rep)
        tr.count("elements", case["order"])
        with tr.span("monomial.analyze"):
            v = self.monomial.analyze(closed)
        with tr.span("report.json"):
            js = self.report.canonical_json(self.report.analyze_payload(closed, v))
        return v, js

    def check(self, case, out):
        return checks.check_monomial(case, *out)

    def sample(self):
        return monomial_case(random.Random(0), "sym", {"n": 3, "d": 4})

    def corruptions(self, op, out):
        v, js = out
        return [("flipped terminal", op, (flipped(v), js)),
                ("index off by one", op, (off_by_one(v), js))]


# ---- cli-oneshot -----------------------------------------------------------


def cyclic_text(r, weights):
    """The representation file of the cyclic quotient 1/r(weights) on C^3."""
    return json.dumps({"dimension": 3, "root_order": r,
                       "generators": [{"perm": [1, 2, 3], "exponents": list(weights)}]})


# Malformed representation files. The four "fault" files end in a
# traceback and exit 1 at the time of writing; the documented outcome is
# one "error: usage:" line and exit 2.
MALFORMED = {
    "malformed-json": '{"dimension": 2, "root_order": 2,',
    "malformed-perm": '{"dimension": 2, "root_order": 2, "generators": [{"perm": [1, 1]}]}',
    "malformed-missing": '{"dimension": 2, "root_order": 2}',
    "malformed-fault-root-order-0":
        '{"dimension": 2, "root_order": 0, "generators": [{"perm": [2, 1], "exponents": [1, 1]}]}',
    "malformed-fault-perm-str":
        '{"dimension": 2, "root_order": 2, "generators": [{"perm": ["a", 2], "exponents": [1, 1]}]}',
    "malformed-fault-perm-float":
        '{"dimension": 2, "root_order": 2, "generators": [{"perm": [1.0, 2], "exponents": [1, 1]}]}',
    "malformed-fault-generators-int": '{"dimension": 2, "root_order": 2, "generators": 5}',
}


class CliOneshot(Workload):
    """One ``python -m symquot ...`` child process.

    A round is eight small valid calls (sympower, analyze, plurigenera in
    both formats, genus-bound in both regimes) with seeded arguments, and
    the seven malformed files above. Four of the fifteen fail today, in
    every round, whatever the seed.
    """

    name = "cli-oneshot"
    tail_pct = 80
    ROUNDS = 3

    def __init__(self, seed, root):
        super().__init__(seed, root)
        out = root / "bench" / "out"
        out.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=out))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        for kind, text in MALFORMED.items():
            (self.workdir / f"{kind}.json").write_text(text, encoding="utf-8")
        for i in range(self.ROUNDS):
            ops = self._valid_ops(i) + [
                {"kind": kind, "argv": ["analyze", "--rep", str(self.workdir / f"{kind}.json")]}
                for kind in MALFORMED
            ]
            self.rng.shuffle(ops)
            self.pool += ops
        self.round_size = len(self.pool) // self.ROUNDS

    def _cyclic_file(self, tag):
        rng = self.rng
        r = rng.randrange(5, 14)
        units = [a for a in range(1, r) if gcd(a, r) == 1]
        w = tuple(rng.choice(units) for _ in range(3))
        path = self.workdir / f"cyclic-{tag}.json"
        path.write_text(cyclic_text(r, w), encoding="utf-8")
        return r, w, str(path)

    def _valid_ops(self, i):
        rng = self.rng
        ops = []
        for fmt in ("md", "json"):
            n, d = rng.randrange(2, 7), rng.randrange(3, 9)
            ops.append({"kind": "sympower", "format": fmt, "dim": n, "points": d,
                        "argv": ["sympower", "--dim", str(n), "--points", str(d),
                                 "--format", fmt]})
            r, w, path = self._cyclic_file(f"{i}-{fmt}")
            ops.append({"kind": "analyze", "format": fmt, "r": r, "weights": w,
                        "argv": ["analyze", "--rep", path, "--format", fmt]})
            n, d = rng.randrange(2, 5), rng.randrange(2, 7)
            pm = [(m, rng.randrange(0, 10)) for m in sorted(rng.sample(range(1, 7), 3))]
            ops.append({"kind": "plurigenera", "format": fmt, "dim": n, "points": d, "pm": pm,
                        "argv": ["plurigenera", "--dim", str(n), "--points", str(d),
                                 "--pm", ",".join(f"{m}={p}" for m, p in pm),
                                 "--format", fmt]})
        for regime in ("general", "nonneg"):
            d = rng.randrange(1, 21)
            ops.append({"kind": "genus-bound", "regime": regime, "points": d,
                        "argv": ["genus-bound", "--regime", regime, "--points", str(d)]})
        return ops

    def run(self, op, tr):
        with tr.span("cli.process"):
            return subprocess.run(
                [sys.executable, "-m", "symquot", *op["argv"]],
                capture_output=True, text=True, env=self.env, cwd=self.root, timeout=60,
            )

    def check(self, op, proc):
        return checks.check_cli(op, proc.returncode, proc.stdout, proc.stderr)

    def known_fault(self, op):
        return op["kind"].startswith("malformed-fault-")

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def sample(self):
        return next(op for op in self.pool if op["kind"] == "genus-bound")

    def corruptions(self, op, proc):
        analyze = next(o for o in self.pool if o["kind"] == "analyze")
        report = self.run(analyze, NullTracer()).stdout
        bad_index = re.sub(r'(index"?: )(\d+)', lambda m: m[1] + str(int(m[2]) + 1),
                           report, count=1)
        malformed = next(o for o in self.pool if o["kind"] == "malformed-json")
        return [
            ("exit code 1", op, subprocess.CompletedProcess(proc.args, 1, proc.stdout, "")),
            ("index off by one", analyze, subprocess.CompletedProcess([], 0, bad_index, "")),
            ("traceback on a malformed file", malformed, subprocess.CompletedProcess(
                [], 2, "", "Traceback (most recent call last):\nerror: usage: bad\n")),
        ]


WORKLOADS = {w.name: w for w in (SympowerTable, MonomialLarge, CliOneshot)}
