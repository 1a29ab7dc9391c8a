"""A table of mutants that Tier-1 must kill, and the runner that checks it.

Each row plants one fault: it replaces an ``old`` text, which occurs exactly
once in its file under ``src/``, by a ``new`` one, and names the tests that
should fail with the fault in place.  ``tests/test_mutants.py`` keeps the
table from going stale; the runner below is not part of Tier-1, because
each mutant costs one targeted test run.

    python tests/mutants.py            # every row
    python tests/mutants.py ID [ID ...]

The runner copies the tree to a temporary directory, runs the named tests
there once unmutated (they must pass), and then, one mutant at a time,
applies it and runs its named tests.  A mutant they miss gets the full
Tier-1 run.  It prints one verdict per row and exits 1 if any mutant
survives or any run errs, and 2 on an unknown id or when the named tests
fail unmutated.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, without parameters


_AUDIT = "src/dcsums/audit.py"
_REPORTING = "src/dcsums/reporting.py"
_T_AUDIT = "tests/test_audit.py::"
_LOADER = (_T_AUDIT + "test_report_from_json_rejects_entries_that_break_the_invariant",)

MUTANTS = (
    # The sweep's side table.
    Mutant("table-outlives-sweep", _AUDIT,
           "    table: dict[Callable[..., Rational], dict[tuple[int, ...], Rational]] = {}",
           '    table = globals().setdefault("_TABLE", {})',
           (_T_AUDIT + "test_sweep_shares_each_side_across_checks_and_mirrors",
            _T_AUDIT + "test_sweep_evaluates_each_mirror_pair_once_per_call",
            _T_AUDIT + "test_sweep_shares_a_side_across_checks_that_are_not_adjacent")),
    Mutant("table-cleared-per-check", _AUDIT, "        results += block\n",
           "        results += block\n        table.clear()\n",
           (_T_AUDIT + "test_sweep_shares_a_side_across_checks_that_are_not_adjacent",
            _T_AUDIT + "test_sweep_shares_each_side_across_checks_and_mirrors")),
    Mutant("mirror-key-not-canonical", _AUDIT,
           "key = mirror(values) if values[h] > values[k] else values", "key = values",
           (_T_AUDIT + "test_sweep_evaluates_each_mirror_pair_once_per_call",)),
    Mutant("hk-symmetric-not-tabled", _AUDIT,
           "if uses[side] > 1 or name in check.hk_symmetric else side",
           "if uses[side] > 1 else side",
           (_T_AUDIT + "test_sweep_evaluates_each_mirror_pair_once_per_call",)),
    Mutant("residual-sign", _AUDIT, "Fraction(a * d - b * c, b * d)",
           "Fraction(b * c - a * d, b * d)",
           (_T_AUDIT + "test_known_failures_pin_exact_residuals",)),
    # report_from_json's invariant, one rule each.
    Mutant("loader-skipped-partial-values", _REPORTING, "if values != (None, None, None):",
           "if None not in values:", _LOADER),
    Mutant("loader-skipped-holds", _REPORTING,
           'return "a skipped entry holds" if r.holds else None', "return None", _LOADER),
    Mutant("loader-evaluated-lhs-only", _REPORTING, "if None in values:",
           "if r.lhs is None:", _LOADER),
    Mutant("loader-residual-sign", _REPORTING, "(a * d - b * c) * f", "(b * c - a * d) * f",
           _LOADER),
    Mutant("loader-holds-one-way", _REPORTING, "if r.holds != (e == 0):",
           "if r.holds and e != 0:", _LOADER),
    Mutant("csv-unknown-param", _REPORTING, "extra = r.params.keys() - PARAM_NAMES",
           "extra = set()", (_T_AUDIT + "test_report_to_csv_rejects_params_it_has_no_column_for",)),
    # Kernels.
    Mutant("euler-euler-even-j-bound", "src/dcsums/umbral.py",
           "for t in range(1, p - s + 1, 2):", "for t in range(1, p - s - 1, 2):",
           ("tests/test_umbral.py::test_euler_euler_matches_the_direct_double_sum",)),
    Mutant("thm8-periodic-q", "src/dcsums/sums.py",
           "q, r = (1, 0) if periodic else (0, m)", "q, r = (0, 0) if periodic else (0, m)",
           (_T_AUDIT + "test_hk_symmetric_sides_are_symmetric_as_written",)),
    Mutant("tangent-recurrence", "src/dcsums/appell.py",
           "t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]",
           "t[j] = (j - k) * t[j - 1] + (j - k + 1) * t[j]",
           ("tests/test_appell.py::test_first_euler_numbers",)),
    Mutant("scaled-power-order", "src/dcsums/appell.py",
           "c * m**j for j, c in enumerate(reversed(self.num))",
           "c * m**j for j, c in enumerate(self.num)",
           ("tests/test_appell.py::test_scaled_horner_vector_is_the_integer_form",)),
    Mutant("rational-negative-denominator", "src/dcsums/rationals.py",
           '(?:/([0-9]+))?"', '(?:/(-?[0-9]+))?"',
           ("tests/test_rationals.py::test_parse_rational_rejects_non_literals",)),
    Mutant("exact-accepts-float", "src/dcsums/rationals.py",
           "isinstance(x, (int, Fraction))", "isinstance(x, (int, Fraction, float))",
           ("tests/test_rationals.py::test_inexact_inputs_raise_type_error",)),
    Mutant("grid-default-h", _AUDIT, '"h": (1, 9)', '"h": (1, 8)',
           (_T_AUDIT + "test_from_maxima_ranges",)),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def _verdict(tree: Path, mutant: Mutant) -> str:
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    if original.count(mutant.old) != 1:
        return "error: old text does not occur exactly once"
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        # The full run leaves out the guard, which any applied mutant fails.
        full = ("--ignore=tests/test_mutants.py",)
        for tests, killed in ((mutant.tests, "killed"), (full, "killed by full Tier-1 only")):
            code = _pytest(tree, tests)
            if code:
                return killed if code == 1 else f"error: pytest exit {code}"
        return "SURVIVED"
    finally:
        path.write_text(original, encoding="utf-8")


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.id for m in MUTANTS}
    if unknown:
        print(f"unknown mutant ids: {sorted(unknown)}", file=sys.stderr)
        return 2
    rows = [m for m in MUTANTS if not argv or m.id in argv]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        named = tuple(dict.fromkeys(test for m in rows for test in m.tests))
        if _pytest(tree, named):
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 2
        verdicts = {}
        for mutant in rows:
            verdicts[mutant.id] = _verdict(tree, mutant)
            print(f"{mutant.id}: {verdicts[mutant.id]}", flush=True)
    return 0 if all(v.startswith("killed") for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
