"""Command-line frontend.

Subcommands:
  sympower     verdict (and optional class table) for the symmetric-power model
  analyze      verdict for an explicit monomial group from a JSON file
  plurigenera  plurigenus table plus scaled Kodaira dimension
  genus-bound  minimal genus of a curve through d general points
  selftest     oracle / closed-form / Burnside cross-check suite

Exit codes: 0 success, 1 selftest discrepancy, 2 usage error, 3 domain
error (quasi-reflections; closure, matrix or points caps), 4 internal error
(any other exception, reported as ``error: internal: <type>: <message>``).
Every error prints a single machine-parsable line on stderr:
``error: <code>: <message>``.
Reports contain no timestamps; identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import monomial, oracle, plurigenera, report, sympower
from ._version import __version__
from .errors import DomainError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquot",
        description="Exact age-criterion classification of quotient "
        "singularities and symmetric-power plurigenus tables.",
    )
    parser.add_argument("--version", action="version", version=f"symquot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sympower", help="classify the symmetric-power model")
    p.add_argument("--dim", type=int, required=True, help="dimension n of the base")
    p.add_argument("--points", type=int, required=True, help="number of points d")
    p.add_argument("--table", action="store_true", help="include the class table")
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_sympower)

    p = sub.add_parser("analyze", help="classify an explicit monomial group")
    p.add_argument("--rep", required=True, help="JSON representation file")
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("plurigenera", help="plurigenus table for a symmetric power")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument(
        "--pm",
        required=True,
        help="comma-separated m=P_m pairs, e.g. 1=2,2=5",
    )
    p.add_argument(
        "--kappa",
        default=None,
        help="Kodaira dimension of the base: an integer or -inf "
        "(write --kappa=-inf)",
    )
    p.add_argument("--format", choices=["json", "md"], default="md")
    p.set_defaults(func=cmd_plurigenera)

    p = sub.add_parser("genus-bound", help="minimal genus through d general points")
    p.add_argument("--regime", choices=["nonneg", "general"], required=True)
    p.add_argument("--points", type=int, required=True)
    p.set_defaults(func=cmd_genus_bound)

    p = sub.add_parser("selftest", help="run the full cross-check suite")
    p.add_argument("--max-dim", type=int, default=6)
    p.add_argument("--max-points", type=int, default=9)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.set_defaults(func=cmd_selftest)

    return parser


def cmd_sympower(args) -> int:
    v = sympower.verdict(args.dim, args.points)
    records = sympower.class_table(args.dim, args.points) if args.table else None
    payload = report.sympower_payload(args.dim, args.points, v, records)
    sys.stdout.write(report.render(payload, args.format))
    return 0


def cmd_analyze(args) -> int:
    rep = monomial.load_rep_file(args.rep)
    closed = monomial.close_group(rep)
    v = monomial.analyze(closed)
    sys.stdout.write(report.render(report.analyze_payload(closed, v), args.format))
    return 0


def _parse_pm(text: str) -> list[tuple[int, int]]:
    rows = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition("=")
        if not sep:
            raise ValueError(f"--pm entries must look like m=P, got {chunk!r}")
        rows.append((int(left), int(right)))
    if not rows:
        raise ValueError("--pm must contain at least one m=P pair")
    return rows


def _parse_kappa(text: str, ambient_dim: int) -> plurigenera.KodairaDim:
    if text == "-inf":
        return plurigenera.KodairaDim.minus_infinity()
    return plurigenera.KodairaDim.finite(int(text), ambient_dim=ambient_dim)


def cmd_plurigenera(args) -> int:
    rows = _parse_pm(args.pm)
    table = plurigenera.plurigenus_table(args.dim, args.points, rows)
    kappa = kappa_scaled = None
    if args.kappa is not None:
        kappa = _parse_kappa(args.kappa, args.dim)
        kappa_scaled = plurigenera.kodaira_scale(kappa, args.points)
    payload = report.plurigenera_payload(table, kappa, kappa_scaled)
    sys.stdout.write(report.render(payload, args.format))
    return 0


def cmd_genus_bound(args) -> int:
    regime = {
        "nonneg": plurigenera.REGIME_NONNEGATIVE,
        "general": plurigenera.REGIME_GENERAL_TYPE,
    }[args.regime]
    bound = plurigenera.genus_bound(regime, args.points)
    sys.stdout.write(f"minimal genus: {bound}\n")
    return 0


CROSS_ENGINE_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
GROWTH_CASES = tuple((kappa, d) for kappa in (0, 1, 2) for d in (2, 3))
TERMINAL_LEMMA_R_BELOW = 20


def run_selftest(max_dim: int, max_points: int, tolerance: float, out=None) -> int:
    """Cross-check suite; returns 0 when clean, 1 on any discrepancy."""
    out = out or sys.stdout
    failures: list[str] = []
    started = time.monotonic()

    # numeric oracle vs per-cycle construction vs closed form, per class
    for n in range(2, max_dim + 1):
        checked = 0
        for d in range(1, max_points + 1):
            rep = oracle.bruteforce_check(n, d, tolerance)
            checked += len(rep.rows)
            for row in rep.failures():
                failures.append(f"oracle n={n} d={d} class {row.cycle_type}: {row.detail}")
        out.write(f"selftest: oracle n={n}, d=1..{max_points}: {checked} classes\n")

    # closed-form verdict against a scan of the class table
    for n in range(2, max_dim + 1):
        for d in range(2, max_points + 1):
            v = sympower.verdict(n, d)
            rows = sympower.class_table(n, d)
            least = min((r for r in rows if not r.cycle_type.is_identity()),
                        key=lambda r: r.age)
            scanned = (least.age, str(least.cycle_type), least.age >= 1, least.age > 1,
                       1 if all(r.det_is_plus_one for r in rows) else 2)
            got = (v.min_age, v.witness, v.canonical, v.terminal, v.index)
            if got != scanned:
                failures.append(f"verdict n={n} d={d}: {got} but the scan gives {scanned}")
            if v.min_age * 2 != n or v.index != 1 + n % 2:
                failures.append(
                    f"verdict n={n} d={d}: min age {v.min_age}, index {v.index}, "
                    f"expected {n}/2 and {1 + n % 2}"
                )
    out.write(f"selftest: verdict scan n=2..{max_dim}, d=2..{max_points}\n")

    # generic monomial engine against the closed-form engine
    for n, d in CROSS_ENGINE_PAIRS:
        if n > max_dim or d > max_points:
            continue
        closed = monomial.close_group(sympower.materialize_rep(n, d))
        via_group = monomial.analyze(closed)
        via_classes = sympower.verdict(n, d)
        same = (
            via_group.canonical == via_classes.canonical
            and via_group.terminal == via_classes.terminal
            and via_group.gorenstein == via_classes.gorenstein
            and via_group.index == via_classes.index
            and via_group.group_order == via_classes.group_order
            and via_group.min_age == via_classes.min_age
        )
        if not same:
            failures.append(f"cross-engine n={n} d={d}: verdicts differ")
    out.write("selftest: cross-engine agreement on materialized groups\n")

    # the monomial engine against the Terminal Lemma for cyclic 3-folds
    cases, mismatches = oracle.terminal_lemma_sweep(TERMINAL_LEMMA_R_BELOW)
    failures.extend(f"terminal lemma {line}" for line in mismatches)
    out.write(
        f"selftest: Terminal Lemma 1/r(a,b,c), r=2..{TERMINAL_LEMMA_R_BELOW - 1}: "
        f"{cases} cases\n"
    )

    # symmetric-power dimension identity, two independent routes
    for p in range(0, 11):
        for d in range(1, 11):
            if plurigenera.sym_dim(p, d) != plurigenera.invariant_dim_burnside(p, d):
                failures.append(f"burnside p={p} d={d}: routes disagree")
    out.write("selftest: Burnside identity p=0..10, d=1..10\n")

    # asymptotic plurigenus growth
    for kappa, d in GROWTH_CASES:
        rows = [(m, m**kappa) for m in range(2, 61, 2)]
        slope = plurigenera.growth_exponent_check(rows, d)
        allowed = 0.05 if kappa == 0 else 0.2
        if abs(slope - d * kappa) > allowed:
            failures.append(
                f"growth kappa={kappa} d={d}: slope {slope:.4f} vs {d * kappa}"
            )
    out.write("selftest: plurigenus growth exponents\n")

    elapsed = time.monotonic() - started
    if failures:
        for line in failures:
            out.write(f"selftest FAILURE: {line}\n")
        out.write(f"selftest: FAILED with {len(failures)} discrepancies ({elapsed:.1f}s)\n")
        return 1
    out.write(f"selftest: OK ({elapsed:.1f}s)\n")
    return 0


def cmd_selftest(args) -> int:
    return run_selftest(args.max_dim, args.max_points, args.tolerance)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the reason
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of symquot itself, never a traceback
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
