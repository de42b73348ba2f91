"""Command-line frontend.

Subcommands:
  sympower     verdict (and optional class table) for the symmetric-power model
  analyze      verdict for an explicit monomial group from a JSON file
  plurigenera  plurigenus table plus scaled Kodaira dimension
  genus-bound  minimal genus of a curve through d general points
  selftest     oracle / closed-form / Burnside cross-check suite

Exit codes: 0 success, 1 selftest discrepancy, 2 usage error (argparse
errors included), 3 domain error (quasi-reflections, a --dim below 2;
closure, matrix, points or file-size caps), 4 internal error (any other
exception, reported as ``error: internal: <type>: <message>``), 5 io
error (stdout closed before the report was written, reported as
``error: io: stdout closed``). Every error prints a single
machine-parsable line on stderr: ``error: <code>: <message>``. Reports
contain no timestamps; identical inputs give identical bytes.
``selftest`` runs ``oracle.run_selftest`` over its range, at the
oracle's fixed tolerance, and is the one command that imports
``symquot.oracle``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import monomial, plurigenera, report, sympower
from ._version import __version__
from .errors import DomainError, shown


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
        return plurigenera.KodairaDim(None)
    kappa = plurigenera.KodairaDim(_flag_int(text, "--kappa"))  # rejects a negative value
    if kappa.value > ambient_dim:
        raise ValueError(
            f"Kodaira dimension {kappa.value} exceeds the ambient dimension {ambient_dim}"
        )
    return kappa


def cmd_plurigenera(args) -> int:
    rows = _parse_pm(args.pm)
    table = plurigenera.plurigenus_table(args.dim, args.points, rows)
    kappa = None if args.kappa is None else _parse_kappa(args.kappa, args.dim)
    payload = report.plurigenera_payload(table, kappa)
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


def cmd_selftest(args) -> int:
    from . import oracle  # the reference routes load for this command only

    return oracle.run_selftest(args.max_dim, args.max_points)


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
