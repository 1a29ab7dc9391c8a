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

A row flagged ``root_equivalent`` is killed only by a test that skips under
root, which may write a read-only file: run as root, the runner prints
``equivalent as root`` for it and counts it as no survivor.
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
    root_equivalent: bool = False


_AUDIT = "src/dcsums/audit.py"
_MOMENTS = "src/dcsums/moments.py"
_REPORTING = "src/dcsums/reporting.py"
_SUMS = "src/dcsums/sums.py"
_UMBRAL = "src/dcsums/umbral.py"
_T_AUDIT = "tests/test_audit.py::"
_T_CLI = "tests/test_cli.py::"
_T_SUMS = "tests/test_sums.py::"
_T_UMBRAL = "tests/test_umbral.py::"
_LOADER = (_T_AUDIT + "test_report_from_json_rejects_entries_that_break_the_invariant",)
_ORDER = (_T_AUDIT + "test_report_from_json_rejects_entries_out_of_sweep_order",)
_TYPES = (_T_AUDIT + "test_report_from_json_takes_only_the_json_types_sweep_writes",)
_TEXT = (_T_CLI + "test_audit_text_format",)
_SCOPE = _T_SUMS + "test_kernels_inside_one_scope_match_the_oracles"
_EDGES = (_T_SUMS + "test_block_edges_neither_drop_nor_repeat_a_point",)
EQUIVALENT_AS_ROOT = "equivalent as root"

MUTANTS = (
    # The sweep's side table.
    Mutant("table-outlives-sweep", _AUDIT,
           "    table: dict = {}",
           '    table = globals().setdefault("_TABLE", {})',
           (_T_AUDIT + "test_sweep_shares_each_side_across_checks_and_mirrors",
            _T_AUDIT + "test_sweep_evaluates_each_mirror_pair_once_per_call",
            _T_AUDIT + "test_sweep_shares_a_side_across_checks_that_are_not_adjacent")),
    Mutant("table-cleared-per-check", _AUDIT, "            results += block\n",
           "            results += block\n            table.clear()\n",
           (_T_AUDIT + "test_sweep_shares_a_side_across_checks_that_are_not_adjacent",
            _T_AUDIT + "test_sweep_shares_each_side_across_checks_and_mirrors")),
    Mutant("mirror-key-not-canonical", _AUDIT,
           "key = mirror(values) if values[h] > values[k] else values", "key = values",
           (_T_AUDIT + "test_sweep_evaluates_each_mirror_pair_once_per_call",)),
    Mutant("sweep-walks-ascending", _AUDIT,
           "for values in [*grid._walk(check.param_names)][::-1]][::-1]",
           "for values in grid._walk(check.param_names)]",
           (_T_AUDIT + "test_a_sweep_walks_each_point_set_once_and_no_deeper_than_it_needs",)),
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
    Mutant("lattice-lift-weight", _SUMS, "s * (3 * m - y)", "s * (2 * m - y)",
           (_T_SUMS + "test_theorem8_rhs_matches_direct_oracle",)),
    Mutant("lattice-n-equals-m-sign", _SUMS, "(-m if odd else 1)", "(m if odd else 1)",
           (_T_SUMS + "test_theorem8_rhs_matches_direct_oracle",)),
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
    Mutant("grid-coprime-filter", _AUDIT, "gcd(values[h], values[k]) == 1",
           "gcd(values[h], values[k]) <= 2",
           (_T_AUDIT + "test_coprime_filter_without_odd_only",)),
    Mutant("loader-summary-ids-only", _REPORTING, "if summary.get(check_id) != counts or",
           "if check_id not in summary or",
           (_T_AUDIT + "test_report_from_json_rejects_a_summary_that_does_not_tally_the_entries",)),
    # The centred Euler kernels.
    Mutant("centered-parity-check", "src/dcsums/appell.py", "if any(s[1 - d % 2::2]):",
           "if False:",
           ("tests/test_appell.py::test_centered_rejects_a_polynomial_without_the_reflection",)),
    Mutant("line-centre-sign", _SUMS, "y = 2 * r - modulus", "y = 2 * r + modulus",
           (_T_SUMS + "test_dc_sum_allows_non_coprime_arguments",)),
    Mutant("line-odd-factor", _SUMS, "        if odd:\n            w *= y\n", "",
           (_T_SUMS + "test_dc_sum_allows_non_coprime_arguments",)),
    Mutant("lattice-odd-factor", _SUMS, " * (y if odd else 1)", "",
           (_T_SUMS + "test_theorem8_rhs_matches_direct_oracle",)),
    Mutant("dc-sum-scale", _SUMS, "euler_poly(p).den * k ** (p + 1) << p)",
           "euler_poly(p).den * k ** (p + 1))", (_T_SUMS + "test_dc_sum_golden_values",)),
    Mutant("reciprocity-lhs-scale", _AUDIT, "euler_poly(p).den * h * k << p)",
           "euler_poly(p).den * h * k)", (_T_AUDIT + "test_far_tuples_match_the_oracles",)),
    # The terms the kernels' reflection pairing does not pair.
    Mutant("line-even-middle", _SUMS, "if count % 2 == 0:", "if False:",
           (_T_SUMS + "test_dc_sum_property",)),
    Mutant("gen-dedekind-even-middle", _SUMS, "if k % 2 == 0:", "if False:",
           (_T_SUMS + "test_gen_dedekind_sum_property",)),
    Mutant("lattice-n-equals-m", _SUMS, "if g > 1:", "if False:",
           (_T_SUMS + "test_theorem8_rhs_matches_direct_oracle",)),
    Mutant("line-sign-at-zero", _SUMS, "(flip if r else flip_at_zero)", "flip",
           (_T_SUMS + "test_dc_sum_allows_non_coprime_arguments",)),
    Mutant("lattice-floor", _UMBRAL, "j = h * u // k", "j = -(-h * u // k)",
           (_T_UMBRAL + "test_lattice_power_sum_matches_term_by_term_oracle",)),
    Mutant("shifted-power-s0", _UMBRAL, "if e[s]:", "if s and e[s]:",
           (_T_UMBRAL + "test_shifted_euler_power_matches_the_two_umbra_oracle",)),
    # The reflection pairing itself: a partner's sign without (-1)^p, a
    # middle term counted twice, and the lattice kernel's shift.
    Mutant("line-partner-sign", _SUMS, "flip = 1 if (count + c + odd) % 2 else -1",
           "flip = 1 if (count + c) % 2 else -1", (_T_SUMS + "test_dc_sum_property",)),
    Mutant("gen-dedekind-partner-sign", _SUMS, "sign = -1 if p % 2 else 1", "sign = 1",
           (_T_SUMS + "test_gen_dedekind_sum_property",)),
    Mutant("lattice-partner-sign", _SUMS, "if (h + k + odd) % 2 else (-m, 1)",
           "if (h + k) % 2 else (-m, 1)", (_T_SUMS + "test_theorem8_rhs_property",)),
    Mutant("line-middle-twice", _SUMS, "range(1, (count + 1) // 2)", "range(1, count // 2 + 1)",
           (_T_SUMS + "test_dc_sum_property",)),
    Mutant("gen-dedekind-middle-twice", _SUMS, "range(1, (k + 1) // 2)", "range(1, k // 2 + 1)",
           (_T_SUMS + "test_gen_dedekind_sum_property",)),
    Mutant("lattice-shift-sign", _UMBRAL, "k * (h - j)", "k * (h + j)",
           (_T_UMBRAL + "test_lattice_power_sum_matches_term_by_term_oracle",)),
    # The moment vectors a sweep keeps, and the one block rule: ``_moments``
    # cuts each point stream into pieces of ``_BLOCK``.
    Mutant("moments-key-without-parity", _MOMENTS, "key = (points, *args)",
           "key = (points, *args[:-1])", (_SCOPE,)),
    Mutant("moments-short-vector-served", _MOMENTS, "if len(vector) > degree:", "if vector:",
           (_SCOPE,)),
    Mutant("piece-drops-its-last-point", _MOMENTS, "zip(*piece)", "zip(*piece[:_BLOCK - 1])",
           _EDGES),
    Mutant("piece-summed-twice", _MOMENTS, "zip(*piece)",
           "zip(*piece * (len(piece) // _BLOCK + 1))", _EDGES),
    Mutant("last-piece-dropped", _MOMENTS, "while piece := list(islice(pairs, _BLOCK)):",
           "while len(piece := list(islice(pairs, _BLOCK))) == _BLOCK:", _EDGES),
    Mutant("inside-row-first-sign", _SUMS, "cycle((-1, 1) if u % 2 else (1, -1))",
           "cycle((1, -1) if u % 2 else (-1, 1))", _EDGES),
    Mutant("scope-reset-not-in-finally", _MOMENTS,
           "    try:\n        yield\n    finally:\n        _KEPT.reset(token)\n",
           "    yield\n    _KEPT.reset(token)\n",
           (_T_AUDIT + "test_kernels_see_the_sweeps_table_only_while_it_runs",)),
    # Preconditions.
    Mutant("umbral-duplicate-ids", _UMBRAL, "if len(set(ids)) != len(ids):", "if False:",
           (_T_UMBRAL + "test_duplicate_umbra_ids_rejected",)),
    Mutant("umbral-empty-form", _UMBRAL, "return Fraction(int(p == 0))", "return Fraction(0)",
           (_T_UMBRAL + "test_empty_form_and_power_zero",)),
    Mutant("thm9-odd-p", _UMBRAL, "if p < 1 or p % 2 == 0:", "if p < 1:",
           (_T_UMBRAL + "test_theorem9_rhs_rejects_even_power",)),
    Mutant("dc-line-p", _SUMS, "if p < 0:", "if False:", (_T_SUMS + "test_dc_sum_preconditions",)),
    Mutant("grid-odd-m", _AUDIT, 'name in ("h", "k", "m")', 'name in ("h", "k")',
           (_T_AUDIT + "test_grid_filters",)),
    Mutant("grid-repeated-value", _AUDIT, "if len(set(values)) != len(values):", "if False:",
           (_T_AUDIT + "test_sweep_rejects_duplicate_ids",)),
    Mutant("sweep-duplicate-ids", _AUDIT, "if len(set(ids)) != len(ids):", "if False:",
           (_T_AUDIT + "test_sweep_rejects_duplicate_ids",)),
    Mutant("cli-vacuous-audit", "src/dcsums/cli.py", "if vacuous:", "if False:",
           (_T_CLI + "test_usage_errors_exit_2",)),
    Mutant("out-read-only", "src/dcsums/cli.py", " and os.access(target, os.W_OK)", "",
           (_T_CLI + "test_audit_read_only_out_file_exits_2_before_sweeping",),
           root_equivalent=True),
    # Writers.
    Mutant("json-empty-results", _REPORTING, "    if results:\n", "    if True:\n",
           (_T_AUDIT + "test_report_to_json_matches_the_json_encoder",)),
    Mutant("json-skipped-from-holds", _REPORTING, "if r.skipped else evaluated %",
           "if r.holds else evaluated %",
           (_T_AUDIT + "test_report_to_json_matches_the_json_encoder",)),
    Mutant("csv-skipped-column", _REPORTING, '"true" if r.skipped else "false"]', '"false"]',
           (_T_CLI + "test_audit_json_round_trip_and_csv_parity",)),
    Mutant("text-residual", _REPORTING,
           'return line if r.holds else f"{line}  residual={residual}"', "return line", _TEXT),
    Mutant("text-total", _REPORTING,
           'f"{total_fail} failing instances" if total_fail else "all checks hold"',
           '"all checks hold"', _TEXT),
    # report_from_json's registry and order rules, one each.
    Mutant("loader-unknown-id", _REPORTING, "if row is None:", "if False:", _ORDER),
    Mutant("loader-params-not-the-rows", _REPORTING,
           " or params.keys() != {*row.param_names}", "", _ORDER),
    Mutant("loader-repeat", _REPORTING, "if key == last", "if False", _ORDER),
    Mutant("loader-order", _REPORTING, "if key < last", "if key < ()", _ORDER),
    Mutant("loader-params-json-order", _REPORTING,
           "{name: params[name] for name in row.param_names}", "params",
           (_T_AUDIT + "test_json_reports_round_trip",)),
    # report_from_json's JSON type rules, one each.  A summary value's keys
    # are the tally's comparison (loader-summary-ids-only).
    Mutant("loader-top-level", _REPORTING,
           "not isinstance(data, dict) or {k: type(v) for k, v in data.items()} != _TOP",
           "False", _TYPES),
    Mutant("loader-entry-keys", _REPORTING,
           "not isinstance(entry, dict) or entry.keys() != _FIELDS", "False", _TYPES),
    Mutant("loader-integer-params", _REPORTING, "if {*map(type, params.values())} != {int}:",
           "if False:", _TYPES),
    Mutant("loader-value-types", _REPORTING, "if {*map(type, values)} - {str, type(None)}:",
           "if False:", _TYPES),
    Mutant("loader-boolean-flags", _REPORTING,
           'if {type(entry["holds"]), type(entry["skipped"])} != {bool}:', "if False:", _TYPES),
    Mutant("loader-integer-counts", _REPORTING,
           " or {*map(type, summary[check_id].values())} != {int}", "", _TYPES),
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
    if mutant.root_equivalent and os.geteuid() == 0:
        return EQUIVALENT_AS_ROOT
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
    return 0 if all(v.startswith("killed") or v == EQUIVALENT_AS_ROOT
                    for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
