"""Command-line surface: compute exact values and run identity audits.

Exit codes: 0 on success (and, for ``audit``, when every non-skipped check
holds); 1 when an audit leaves at least one nonzero residual; 2 for usage
or precondition errors, including an audit that evaluates no instance of a
selected check.  Rationals print in canonical form; reports are
available as text, JSON, or CSV with stable schemas.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

# audit and reporting are lazy modules: binding them here loads neither.
from . import audit, reporting
from .appell import Poly, bernoulli_number, euler_number, euler_poly
from .periodic import euler_function
from .rationals import format_rational, parse_rational
from .sums import dc_sum, dedekind_sum, gen_dedekind_sum
from .umbral import theorem9_rhs, umbral_power

__all__ = ["main", "console_main", "build_parser"]


# ASCII digits only: int() alone would also take "1_0", "+3" and "١٢".
_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    if _INTEGER.fullmatch(text.strip()) is None:
        raise ValueError(text)  # argparse reports "invalid <type> value"
    return int(text)


def _nonneg(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


# Lets argparse take a negative rational like -1/2 as a positional.
_NEGATIVE_RATIONAL = re.compile(r"^-\d+(/\d+)?$")

# (name, help, positionals, value) per value command; a positional is
# (name, argparse type[, help]), type None keeping a rational as text.  Each
# value function looks library names up when called, so wrappers bound over
# this module's globals after import see every call.
_VALUE_COMMANDS = (
    ("eulernum", "Euler number E_n", [("n", _nonneg)], lambda a: euler_number(a.n)),
    ("eulerpoly", "Euler polynomial E_n(x)", [("n", _nonneg)], lambda a: euler_poly(a.n)),
    ("bernoullinum", "Bernoulli number B_n", [("n", _nonneg)],
     lambda a: bernoulli_number(a.n)),
    ("eulerfn", "antiperiodic Euler function Ebar_p(x)",
     [("p", _nonneg), ("x", None, "rational like 4/3 or -1/2")],
     lambda a: euler_function(a.p, parse_rational(a.x))),
    ("dedekind", "classical Dedekind sum S(h,k)", [("h", _positive), ("k", _positive)],
     lambda a: dedekind_sum(a.h, a.k)),
    ("gendedekind", "generalized Dedekind sum S_p(h,k)",
     [("p", _positive), ("h", _positive), ("k", _positive)],
     lambda a: gen_dedekind_sum(a.p, a.h, a.k)),
    ("dcsum", "DC sum T_p(h,k)", [("p", _nonneg), ("h", _positive), ("k", _positive)],
     lambda a: dc_sum(a.p, a.h, a.k)),
)

# form -> (flags it takes besides --p, value), values as above.
_UMBRAL_FORMS = {
    "Ex": (("x",), lambda a: umbral_power([(1, parse_rational(a.x), 0)], a.p)),
    "hEkE": (("h", "k"), lambda a: umbral_power([(a.h, 0, 0), (a.k, 0, 1)], a.p)),
    "thm9rhs": (("h", "k"), lambda a: theorem9_rhs(a.p, a.h, a.k)),
}

# The audit grid's maxima; their defaults live in ParamGrid.from_maxima only.
_AUDIT_MAXIMA = (("pmax", _positive), ("hmax", _positive), ("kmax", _positive),
                 ("nmax", _positive), ("lmax", _nonneg), ("mmax", _positive),
                 ("smax", _positive))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcsums",
        description="Exact Euler/Bernoulli values, Dedekind-type DC sums, and identity audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text, positionals, value in _VALUE_COMMANDS:
        p = sub.add_parser(name, help=text)
        for arg, kind, *arg_help in positionals:
            p.add_argument(arg, type=kind, help=arg_help[0] if arg_help else None)
            if kind is None:
                p._negative_number_matcher = _NEGATIVE_RATIONAL
        p.set_defaults(func=_cmd_value, value=value)

    p = sub.add_parser("umbral", help="evaluate a fixed umbral form")
    p.add_argument(
        "--form",
        required=True,
        choices=tuple(_UMBRAL_FORMS),
        help="Ex: (E+x)^p;  hEkE: (hE+kE')^p;  thm9rhs: full reciprocity right side",
    )
    p.add_argument("--p", type=_nonneg, required=True)
    p.add_argument("--h", type=_positive)
    p.add_argument("--k", type=_positive)
    p.add_argument("--x", help="rational shift for --form Ex")
    p._negative_number_matcher = _NEGATIVE_RATIONAL
    p.set_defaults(func=_cmd_umbral)

    p = sub.add_parser("audit", help="run identity checks over a parameter grid")
    p.add_argument(
        "--checks",
        default=None,
        help="comma-separated check ids (default: the whole registry)",
    )
    p.add_argument("--p", type=_positive, default=None,
                   help="audit a single p instead of the 1..pmax range")
    for name, kind in _AUDIT_MAXIMA:
        p.add_argument(f"--{name}", type=kind, default=argparse.SUPPRESS)
    p.add_argument("--odd-only", action="store_true")
    p.add_argument("--coprime-only", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("checks", help="list registered check ids")
    p.set_defaults(func=_cmd_checks)

    return parser


def _cmd_value(args: argparse.Namespace) -> int:
    value = args.value(args)
    print(value if isinstance(value, Poly) else format_rational(value))
    return 0


def _cmd_umbral(args: argparse.Namespace) -> int:
    takes, args.value = _UMBRAL_FORMS[args.form]
    for flag in ("h", "k", "x"):
        if (flag in takes) != (getattr(args, flag) is not None):
            verb = "requires" if flag in takes else "does not take"
            raise ValueError(f"--form {args.form} {verb} --{flag}")
    return _cmd_value(args)


def _require_writable(path: str) -> None:
    """Fail before the sweep if ``path`` cannot take the report; touch nothing."""
    target = os.path.abspath(path)
    if os.path.exists(target):
        writable = not os.path.isdir(target) and os.access(target, os.W_OK)
    else:
        directory = os.path.dirname(target)
        writable = os.path.isdir(directory) and os.access(directory, os.W_OK)
    if not writable:
        raise OSError(f"cannot write report to {path!r}")


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.checks is None:
        ids = audit.registry_ids()
    else:
        ids = [part.strip() for part in args.checks.split(",") if part.strip()]
        if not ids:
            raise ValueError("no checks selected")
    if args.p is not None and "pmax" in args:
        raise ValueError("--p and --pmax exclude each other")
    given = {name: getattr(args, name) for name, _ in _AUDIT_MAXIMA if name in args}
    grid = audit.ParamGrid.from_maxima(**given, odd_only=args.odd_only,
                                       coprime_only=args.coprime_only)
    if args.p is not None:
        import dataclasses  # not at module level: value queries would pay for inspect and ast

        grid = dataclasses.replace(grid, p_values=(args.p,))
    if args.out is not None:
        _require_writable(args.out)
    report = audit.sweep(ids, grid)
    vacuous = [cid for cid, n in report.summary.items() if n["pass"] + n["fail"] == 0]
    if vacuous:
        raise ValueError(f"no instance evaluated for {', '.join(vacuous)}")
    if args.format == "json":
        payload = reporting.report_to_json(report)
    elif args.format == "csv":
        payload = reporting.report_to_csv(report)
    else:
        payload = reporting.format_report_text(report)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    failures = sum(counts["fail"] for counts in report.summary.values())
    return 1 if failures else 0


def _cmd_checks(args: argparse.Namespace) -> int:
    for check_id in audit.registry_ids():
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
