"""Independent checks of symquot's answers.

Nothing here calls symquot: the expected values come from closed laws
(partition counts by Euler's pentagonal recurrence, Reid-Tai sums,
family order formulas) and from numpy eigenvalues of matrices built
here. numpy is imported only where it is used, so that importing this
module adds nothing to a process that has not loaded it. Each check
returns a list of problems; an empty list means the answer is right. Results are read as plain attributes
(``canonical``, ``index``, ...) or parsed from the program's text.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod

VERDICT_KEYS = ("canonical", "terminal", "gorenstein", "index", "group_order", "min_age")


@lru_cache(maxsize=None)
def partition_count(d: int) -> int:
    """p(d) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * d
    for i in range(1, d + 1):
        k, total = 1, 0
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > i:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[i - g1]
            if g2 <= i:
                total += sign * p[i - g2]
            k += 1
        p[i] = total
    return p[d]


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def canonical_bytes(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def verdict_of(v) -> dict:
    """The verdict fields of a result object, as plain values."""
    return {k: getattr(v, k) for k in VERDICT_KEYS}


def compare(label: str, got: dict, want: dict) -> list[str]:
    return [
        f"{label} {k}: got {got.get(k)!r}, expected {want[k]!r}"
        for k in want
        if got.get(k) != want[k]
    ]


def as_text(want: dict) -> dict:
    """Expected verdict with the min age written as reports write it."""
    return dict(want, min_age=frac_str(want["min_age"]))


def json_report(text: str, want: dict, model: dict) -> tuple[dict | None, list[str]]:
    """Parse a JSON report; check its bytes, its model block and verdict."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        return None, [f"report is not JSON: {exc}"]
    problems = []
    if canonical_bytes(data) != text:
        problems.append("report does not re-serialize byte-identically")
    problems += compare("report model", data.get("model", {}), model)
    problems += compare("report verdict", data.get("verdict", {}), as_text(want))
    return data, problems


def markdown_verdict(text: str) -> dict:
    """Verdict fields parsed from the markdown bullet list."""
    fields = dict(re.findall(r"^- ([a-z ]+): (\S+)", text, re.M))
    out = {}
    for key, md_key in (("canonical", "canonical"), ("terminal", "terminal"),
                        ("gorenstein", "gorenstein")):
        out[key] = {"true": True, "false": False}.get(fields.get(md_key))
    for key, md_key in (("index", "index"), ("group_order", "group order")):
        out[key] = int(fields[md_key]) if fields.get(md_key, "").isdigit() else None
    out["min_age"] = fields.get("min age")
    return out


# ---- symmetric-power model -------------------------------------------------


def sympower_expected(n: int, d: int) -> dict:
    """C^{nd}/S_d, n >= 2, d >= 2: canonical with min age n/2."""
    return {
        "canonical": True,
        "terminal": n >= 3,
        "gorenstein": n % 2 == 0,
        "index": 1 if n % 2 == 0 else 2,
        "group_order": factorial(d),
        "min_age": Fraction(n, 2),
    }


def centralizer(parts) -> int:
    return prod(i**m * factorial(m) for i, m in Counter(parts).items())


def check_sympower(n, d, v, rows, js: str, md: str) -> list[str]:
    want = sympower_expected(n, d)
    problems = compare("verdict", verdict_of(v), want)
    if len(rows) != partition_count(d):
        problems.append(f"{len(rows)} classes, p({d}) = {partition_count(d)}")
    seen = set()
    total = 0
    for rec in rows:
        parts = tuple(rec.cycle_type.parts)
        k = len(parts)
        if sum(parts) != d or list(parts) != sorted(parts, reverse=True) or parts in seen:
            problems.append(f"class {parts} is not a new partition of {d}")
        seen.add(parts)
        total += rec.class_size
        if rec.class_size * centralizer(parts) != factorial(d):
            problems.append(f"class {parts}: size {rec.class_size}")
        if rec.age != Fraction(n * (d - k), 2):
            problems.append(f"class {parts}: age {rec.age}, expected n(d-#parts)/2")
        if rec.det_is_plus_one != (n * (d - k) % 2 == 0):
            problems.append(f"class {parts}: det sign")
    if total != factorial(d):
        problems.append(f"class sizes sum to {total}, not {d}!")
    data, report_problems = json_report(
        js, want, {"kind": "sympower", "dim": n, "points": d, "matrix_size": n * d}
    )
    problems += report_problems
    if data is not None:
        expect_rows = [
            {
                "cycle_type": list(rec.cycle_type.parts),
                "class_size": rec.class_size,
                "age": frac_str(Fraction(n * (d - len(rec.cycle_type.parts)), 2)),
                "det": 1 if n * (d - len(rec.cycle_type.parts)) % 2 == 0 else -1,
            }
            for rec in rows
        ]
        got_rows = [
            {k: row.get(k) for k in ("cycle_type", "class_size", "age", "det")}
            for row in data.get("classes", [])
        ]
        if got_rows != expect_rows:
            problems.append("report class rows differ from the class table")
    table_rows = sum(1 for line in md.splitlines() if line.startswith("| ("))
    if table_rows != partition_count(d):
        problems.append(f"markdown has {table_rows} class rows, expected p({d})")
    problems += compare("markdown", markdown_verdict(md), as_text(want))
    return problems


# ---- monomial groups -------------------------------------------------------


def perm_sign(perm) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return -1 if (len(perm) - cycles) % 2 else 1


def det_order(perm, exps, m: int) -> int:
    """Order of det = sign(perm) * zeta_m^{sum(exps)}."""
    turn = Fraction(sum(exps), m) + (Fraction(1, 2) if perm_sign(perm) < 0 else 0)
    return (turn % 1).denominator


def witness_age(witness: str, m: int) -> float:
    """Age of a reported element, from numpy eigenvalues of its matrix."""
    import numpy as np

    match = re.fullmatch(r"perm\[([\d,]+)\] exp\[([\d,]+)\]", witness or "")
    if match is None:
        raise ValueError(f"unparseable witness {witness!r}")
    perm = [int(x) - 1 for x in match.group(1).split(",")]
    exps = [int(x) for x in match.group(2).split(",")]
    size = len(perm)
    mat = np.zeros((size, size), dtype=complex)
    for i, (p, e) in enumerate(zip(perm, exps)):
        mat[p, i] = np.exp(2j * np.pi * e / m)
    turns = np.mod(np.angle(np.linalg.eigvals(mat)) / (2 * np.pi), 1.0)
    turns[turns > 1 - 1e-9] = 0.0
    return float(turns.sum())


def monomial_expected(family: str, params: dict) -> dict:
    """Verdict laws of the three monomial-large families.

    sl: (Z/m)^2 x| Z/3 on C^3, order 3m^2, min age 1.
    sym: n copies of the S_d permutation action, order d!, min age n/2.
    wreath: mu_m wr S_d on (C^2)^d inside SL, order m^d d!, min age 1.
    """
    if family == "sl":
        order, min_age, index = 3 * params["m"] ** 2, Fraction(1), 1
    elif family == "sym":
        n = params["n"]
        order, min_age, index = factorial(params["d"]), Fraction(n, 2), 1 if n % 2 == 0 else 2
    else:
        order, min_age, index = params["m"] ** params["d"] * factorial(params["d"]), Fraction(1), 1
    return {
        "canonical": min_age >= 1,
        "terminal": min_age > 1,
        "gorenstein": index == 1,
        "index": index,
        "group_order": order,
        "min_age": min_age,
    }


def check_monomial(case: dict, v, js: str) -> list[str]:
    m = case["root_order"]
    # The family law does not depend on the labelling or on the redundant
    # generator, so a verdict that meets it is unchanged by them.
    want = monomial_expected(case["family"], case["params"])
    problems = compare("verdict", verdict_of(v), want)
    # det is a character, so its order is the lcm over the generators
    gen_index = lcm(*(det_order(p, e, m) for p, e in case["generators"]))
    if v.index != gen_index:
        problems.append(f"index {v.index}, generators' det orders give {gen_index}")
    try:
        age = witness_age(v.witness, m)
        if abs(age - float(want["min_age"])) > 1e-6:
            problems.append(f"witness {v.witness} has age {age:.6f}, not {want['min_age']}")
    except ValueError as exc:
        problems.append(str(exc))
    model = {
        "kind": "monomial", "dimension": case["dimension"], "root_order": m,
        "num_generators": len(case["generators"]),
    }
    problems += json_report(js, want, model)[1]
    return problems


# ---- cyclic quotients 1/r(a,b,c) -------------------------------------------


def cyclic_expected(r: int, weights) -> dict:
    """Reid-Tai sums for 1/r(weights), all weights prime to r."""
    sums = [sum(k * a % r for a in weights) for k in range(1, r)]
    total = sum(weights)
    return {
        "canonical": min(sums) >= r,
        "terminal": min(sums) > r,
        "gorenstein": total % r == 0,
        "index": r // gcd(total, r),
        "group_order": r,
        "min_age": Fraction(min(sums), r),
    }


# ---- CLI processes ---------------------------------------------------------


def check_usage_error(returncode: int, stdout: str, stderr: str) -> list[str]:
    """Malformed input: one ``error: usage:`` line on stderr, exit 2."""
    problems = []
    if returncode != 2:
        problems.append(f"exit {returncode}, expected 2")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith("error: usage:"):
        problems.append(f"stderr is not one 'error: usage:' line: {stderr[-200:]!r}")
    if stdout:
        problems.append("output on stdout")
    return problems


def check_cli(case: dict, returncode: int, stdout: str, stderr: str) -> list[str]:
    kind = case["kind"]
    if kind.startswith("malformed"):
        return check_usage_error(returncode, stdout, stderr)
    if returncode != 0 or stderr:
        return [f"exit {returncode}, stderr {stderr[-200:]!r}"]
    if kind == "genus-bound":
        d = case["points"]
        want = d + 1 if case["regime"] == "general" else d
        got = stdout.strip()
        return [] if got == f"minimal genus: {want}" else [f"{got!r}, expected genus {want}"]
    if kind == "plurigenera":
        return check_plurigenera(case, stdout)
    if kind == "sympower":
        want = sympower_expected(case["dim"], case["points"])
        model = {"kind": "sympower", "dim": case["dim"], "points": case["points"],
                 "matrix_size": case["dim"] * case["points"]}
    else:
        want = cyclic_expected(case["r"], case["weights"])
        model = {"kind": "monomial", "dimension": 3, "root_order": case["r"],
                 "num_generators": 1}
    if case["format"] == "json":
        return json_report(stdout, want, model)[1]
    return compare("markdown", markdown_verdict(stdout), as_text(want))


def check_plurigenera(case: dict, stdout: str) -> list[str]:
    n, d = case["dim"], case["points"]
    want = [
        {"m": m, "p_m_x": p, "p_m_sigma": comb(p + d - 1, d), "valid": (m * n) % 2 == 0}
        for m, p in case["pm"]
    ]
    if case["format"] == "json":
        try:
            data = json.loads(stdout)
        except ValueError:
            return ["plurigenera report is not JSON"]
        problems = [] if canonical_bytes(data) == stdout else ["report bytes"]
        return problems + ([] if data.get("rows") == want else [f"rows {data.get('rows')}"])
    got = re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \| (true|false) \|$", stdout, re.M)
    expect = [(str(r["m"]), str(r["p_m_x"]), str(r["p_m_sigma"]), str(r["valid"]).lower())
              for r in want]
    return [] if got == expect else [f"markdown rows {got}, expected {expect}"]
