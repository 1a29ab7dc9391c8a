"""Command-line surface: compute exact values and run identity audits.

Exit codes: 0 on success (and, for ``audit``, when every non-skipped check
holds); 1 when an audit leaves at least one nonzero residual; 2 for usage
or precondition errors.  Rationals print in canonical form; reports are
available as text, JSON, or CSV with stable schemas.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

from .appell import bernoulli_number, euler_number, euler_poly
from .audit import ParamGrid, registry_ids, sweep
from .periodic import euler_function
from .rationals import format_rational, parse_rational
from .reporting import format_report_text, report_to_csv, report_to_json
from .sums import dc_sum, dedekind_sum, gen_dedekind_sum
from .umbral import theorem9_rhs, umbral_power

__all__ = ["main", "console_main", "build_parser"]


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsums",
        description="Exact Euler/Bernoulli values, Dedekind-type DC sums, and identity audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eulernum", help="Euler number E_n")
    p.add_argument("n", type=_nonneg)
    p.set_defaults(func=_cmd_eulernum)

    p = sub.add_parser("eulerpoly", help="Euler polynomial E_n(x)")
    p.add_argument("n", type=_nonneg)
    p.set_defaults(func=_cmd_eulerpoly)

    p = sub.add_parser("bernoullinum", help="Bernoulli number B_n")
    p.add_argument("n", type=_nonneg)
    p.set_defaults(func=_cmd_bernoullinum)

    p = sub.add_parser("eulerfn", help="antiperiodic Euler function Ebar_p(x)")
    p.add_argument("p", type=_nonneg)
    p.add_argument("x", help="rational like 4/3 or -1/2")
    # Let argparse accept negative rationals like -1/2 as positionals.
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.set_defaults(func=_cmd_eulerfn)

    p = sub.add_parser("dedekind", help="classical Dedekind sum S(h,k)")
    p.add_argument("h", type=_positive)
    p.add_argument("k", type=_positive)
    p.set_defaults(func=_cmd_dedekind)

    p = sub.add_parser("gendedekind", help="generalized Dedekind sum S_p(h,k)")
    p.add_argument("p", type=_positive)
    p.add_argument("h", type=_positive)
    p.add_argument("k", type=_positive)
    p.set_defaults(func=_cmd_gendedekind)

    p = sub.add_parser("dcsum", help="DC sum T_p(h,k)")
    p.add_argument("p", type=_nonneg)
    p.add_argument("h", type=_positive)
    p.add_argument("k", type=_positive)
    p.set_defaults(func=_cmd_dcsum)

    p = sub.add_parser("umbral", help="evaluate a fixed umbral form")
    p.add_argument(
        "--form",
        required=True,
        choices=("Ex", "hEkE", "thm9rhs"),
        help="Ex: (E+x)^p;  hEkE: (hE+kE')^p;  thm9rhs: full reciprocity right side",
    )
    p.add_argument("--p", type=_nonneg, required=True)
    p.add_argument("--h", type=_positive)
    p.add_argument("--k", type=_positive)
    p.add_argument("--x", help="rational shift for --form Ex")
    p._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    p.set_defaults(func=_cmd_umbral)

    p = sub.add_parser("audit", help="run identity checks over a parameter grid")
    p.add_argument(
        "--checks",
        default=None,
        help="comma-separated check ids (default: the whole registry)",
    )
    p.add_argument("--p", type=_positive, default=None,
                   help="audit a single p instead of the 1..pmax range")
    p.add_argument("--pmax", type=_positive, default=7)
    p.add_argument("--hmax", type=_positive, default=9)
    p.add_argument("--kmax", type=_positive, default=9)
    p.add_argument("--nmax", type=_positive, default=12)
    p.add_argument("--lmax", type=_nonneg, default=8)
    p.add_argument("--mmax", type=_positive, default=9)
    p.add_argument("--smax", type=_positive, default=8)
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--coprime-only", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("checks", help="list registered check ids")
    p.set_defaults(func=_cmd_checks)

    return parser


def _cmd_eulernum(args: argparse.Namespace) -> int:
    print(format_rational(euler_number(args.n)))
    return 0


def _cmd_eulerpoly(args: argparse.Namespace) -> int:
    print(euler_poly(args.n))
    return 0


def _cmd_bernoullinum(args: argparse.Namespace) -> int:
    print(format_rational(bernoulli_number(args.n)))
    return 0


def _cmd_eulerfn(args: argparse.Namespace) -> int:
    print(format_rational(euler_function(args.p, parse_rational(args.x))))
    return 0


def _cmd_dedekind(args: argparse.Namespace) -> int:
    print(format_rational(dedekind_sum(args.h, args.k)))
    return 0


def _cmd_gendedekind(args: argparse.Namespace) -> int:
    print(format_rational(gen_dedekind_sum(args.p, args.h, args.k)))
    return 0


def _cmd_dcsum(args: argparse.Namespace) -> int:
    print(format_rational(dc_sum(args.p, args.h, args.k)))
    return 0


def _cmd_umbral(args: argparse.Namespace) -> int:
    if args.form == "Ex":
        if args.x is None:
            raise ValueError("--form Ex requires --x")
        value = umbral_power([(1, parse_rational(args.x), 0)], args.p)
    elif args.form == "hEkE":
        if args.h is None or args.k is None:
            raise ValueError("--form hEkE requires --h and --k")
        value = umbral_power([(args.h, 0, 0), (args.k, 0, 1)], args.p)
    else:  # thm9rhs
        if args.h is None or args.k is None:
            raise ValueError("--form thm9rhs requires --h and --k")
        value = theorem9_rhs(args.p, args.h, args.k)
    print(format_rational(value))
    return 0


def _require_writable(path: str) -> None:
    """Fail before the sweep if ``path`` cannot take the report; touch nothing."""
    target = os.path.abspath(path)
    if os.path.exists(target):
        writable = not os.path.isdir(target) and os.access(target, os.W_OK)
    else:
        directory = os.path.dirname(target)
        writable = os.path.isdir(directory) and os.access(directory, os.W_OK)
    if not writable:
        raise OSError(f"cannot write report to {path}")


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.checks is None:
        ids = registry_ids()
    else:
        ids = [part.strip() for part in args.checks.split(",") if part.strip()]
        if not ids:
            raise ValueError("no checks selected")
    grid = ParamGrid.from_maxima(
        pmax=args.pmax,
        hmax=args.hmax,
        kmax=args.kmax,
        nmax=args.nmax,
        lmax=args.lmax,
        mmax=args.mmax,
        smax=args.smax,
        odd_only=args.odd_only,
        coprime_only=args.coprime_only,
    )
    if args.p is not None:
        grid = dataclasses.replace(grid, p_values=(args.p,))
    if args.out:
        _require_writable(args.out)
    report = sweep(ids, grid)
    if args.format == "json":
        payload = report_to_json(report)
    elif args.format == "csv":
        payload = report_to_csv(report)
    else:
        payload = format_report_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    failures = sum(counts["fail"] for counts in report.summary.values())
    return 1 if failures else 0


def _cmd_checks(args: argparse.Namespace) -> int:
    for check_id in registry_ids():
        print(check_id)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
