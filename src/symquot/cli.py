"""Command-line frontend.

Subcommands:
  sympower     verdict (and optional class table) for the symmetric-power model
  analyze      verdict for an explicit monomial group from a JSON file
  plurigenera  plurigenus table plus scaled Kodaira dimension
  genus-bound  minimal genus of a curve through d general points
  selftest     oracle / closed-form / Burnside cross-check suite

Exit codes: 0 success, 1 selftest discrepancy, 2 usage error (argparse
errors included), 3 domain error (quasi-reflections; closure, matrix or
points caps), 4 internal error (any other exception, reported as
``error: internal: <type>: <message>``), 5 io error (stdout closed before
the report was written, reported as ``error: io: stdout closed``). Every
error prints a single machine-parsable line on stderr:
``error: <code>: <message>``. Reports contain no timestamps; identical
inputs give identical bytes. ``symquot.oracle`` is imported by
``selftest`` only, so the other commands do not load it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import monomial, plurigenera, report, sympower
from ._version import __version__
from .errors import DomainError, MatrixTooLargeError, shown


def _error_line(code: str, message: object) -> str:
    """``error: <code>: <message>`` with the message folded onto one line."""
    return f"error: {code}: {' '.join(str(message).splitlines())}\n"


class _Parser(argparse.ArgumentParser):
    """argparse that reports a bad command line as one ``error: usage:`` line.

    Subparsers are built from the same class, so this covers them too.
    """

    def error(self, message):
        self.exit(2, _error_line("usage", message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _flag_int(text: str, flag: str) -> int:
    """``int(text)``, or a ValueError that names ``flag``."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"{flag} takes integers of at most {sys.get_int_max_str_digits()} digits, "
            f"got {shown(text)}"
        ) from None


def _parse_pm(text: str) -> list[tuple[int, int]]:
    rows = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition("=")
        if not sep:
            raise ValueError(f"--pm entries must look like m=P, got {chunk!r}")
        rows.append((_flag_int(left, "--pm"), _flag_int(right, "--pm")))
    if not rows:
        raise ValueError("--pm must contain at least one m=P pair")
    return rows


def _parse_kappa(text: str, ambient_dim: int) -> plurigenera.KodairaDim:
    if text == "-inf":
        return plurigenera.KodairaDim.minus_infinity()
    return plurigenera.KodairaDim.finite(_flag_int(text, "--kappa"), ambient_dim=ambient_dim)


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
    """Cross-check suite; returns 0 when clean, 1 on any discrepancy.

    The range and the tolerance are checked before any output: a range
    with nothing to check or a tolerance outside (0, 0.5) raises
    ValueError, and a range past the brute-force matrix cap raises
    MatrixTooLargeError.
    """
    from . import oracle  # the reference routes load for this command only

    oracle.check_tolerance(tolerance)
    if max_dim < 2 or max_points < 1:
        raise ValueError(
            f"selftest needs --max-dim >= 2 and --max-points >= 1, got {max_dim} and {max_points}"
        )
    if max_dim * max_points > oracle.MATRIX_SIZE_CAP:
        raise MatrixTooLargeError(
            f"selftest range needs brute-force matrices of size --max-dim * --max-points "
            f"= {max_dim} * {max_points}, over the cap of {oracle.MATRIX_SIZE_CAP}"
        )
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
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, --version or _Parser.error already printed
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Whatever is still buffered goes to devnull, so the interpreter's
        # final flush does not print "Exception ignored".
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        sys.stderr.write(_error_line("io", "stdout closed"))
        return 5
    except DomainError as exc:
        sys.stderr.write(_error_line(exc.code, exc))
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(_error_line("usage", exc))
        return 2
    except Exception as exc:  # a fault of symquot itself, never a traceback
        sys.stderr.write(_error_line("internal", f"{type(exc).__name__}: {exc}"))
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
