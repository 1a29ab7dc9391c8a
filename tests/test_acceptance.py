"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is either pinned from an independent oracle in
tests/oracles.py (series-derived Euler values, direct summation, Pascal
binomials) or recomputed here by such an oracle before being compared.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import re
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

from dcsums import (
    ParamGrid,
    dc_sum,
    dedekind_sum,
    euler_function,
    euler_number,
    euler_poly,
    poly_derivative,
    poly_integral,
    registry_ids,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_check,
    standard_audit_grid,
    sweep,
)
from dcsums.appell import Poly
from dcsums.cli import main as cli_main

import oracles
from oracles import series_coeffs_oracle

import random

ROOT = Path(__file__).resolve().parents[1]


def report_pass(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS  {text}")


def rand_rational(rng, span=50, den=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def test_criterion_01_euler_sequence():
    start = time.perf_counter()
    assert [euler_number(n) for n in range(4)] == [
        Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(1, 4),
    ]
    for k in range(1, 16):
        assert euler_number(2 * k) == 0
    series = series_coeffs_oracle(30, "euler")
    for n in range(31):
        assert euler_number(n) == series[n] == oracles.EULER_NUMBERS[n]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report_pass(1, f"Euler numbers exact, even indices vanish, oracle agrees ({elapsed:.2f}s)")


def test_criterion_02_polynomial_identity_suite():
    start = time.perf_counter()
    # derivative identity
    for n in range(1, 13):
        assert poly_derivative(euler_poly(n)) == n * euler_poly(n - 1)
    # corrected integral identity
    for n in range(13):
        expected = (euler_poly(n + 1) - Poly([euler_number(n + 1)])) * Fraction(1, n + 1)
        assert poly_integral(euler_poly(n)) == expected
    # addition theorem at 50 random rational pairs
    rng = random.Random(8471)
    for _ in range(50):
        x, y = rand_rational(rng), rand_rational(rng)
        for p in range(11):
            rhs = sum(
                comb(p, s) * euler_poly(s).eval(x) * y ** (p - s)
                for s in range(p + 1)
            )
            assert euler_poly(p).eval(x + y) == rhs
    # multiplication theorem as a polynomial identity for odd m
    for m in (1, 3, 5, 7):
        for p in range(11):
            base = euler_poly(p).coeffs
            lhs = [a * m**i for i, a in enumerate(base)]
            rhs = [Fraction(0)] * len(base)
            for s in range(m):
                shift = Fraction(s, m)
                for j, a in enumerate(base):
                    sign = 1 if s % 2 == 0 else -1
                    for i in range(j + 1):
                        rhs[i] += sign * a * comb(j, i) * shift ** (j - i)
            assert lhs == [m**p * a for a in rhs]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(2, f"derivative/integral/addition/multiplication identities exact ({elapsed:.2f}s)")


def test_criterion_03_euler_function_properties():
    start = time.perf_counter()
    rng = random.Random(62531)
    points = [rand_rational(rng) for _ in range(200)]
    for x in points:
        for p in range(10):
            assert euler_function(p, x + 1) == -euler_function(p, x)
            fr = x - (x.numerator // x.denominator)
            assert euler_function(p, fr) == euler_poly(p).eval(fr)
    for x in points[:100]:
        for h in (1, 3, 5):
            for p in range(8):
                rhs = h**p * sum(
                    (-1) ** (v % 2) * euler_function(p, x + Fraction(v, h))
                    for v in range(h)
                )
                assert euler_function(p, h * x) == rhs
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(3, f"antiperiodicity, restriction, distribution over random rationals ({elapsed:.2f}s)")


def test_criterion_04_dc_sum_golden_values():
    goldens = [
        ((1, 1, 3), Fraction(-1, 3)),
        ((3, 1, 3), Fraction(13, 54)),
        ((1, 2, 3), Fraction(-1, 9)),
    ]
    for (p, h, k), value in goldens:
        assert oracles.dc(p, h, k) == value  # re-derive before trusting the pin
        assert dc_sum(p, h, k) == value
    for p in (0, 1, 3, 6):
        for h in (1, 2, 7):
            assert dc_sum(p, h, 1) == 0
    report_pass(4, "DC-sum golden values match the direct-summation oracle")


def test_criterion_05_reciprocity_instance():
    result = run_check("thm8_periodic", {"p": 3, "h": 1, "k": 3})
    assert result.lhs == Fraction(13, 2)
    assert result.rhs == Fraction(13, 2)
    assert result.holds
    report_pass(5, "thm8_periodic at (p=3,h=1,k=3) gives lhs = rhs = 13/2")


def test_criterion_06_known_residual_reproduction():
    # lemma1_printed at p=1: re-derive 1/12 by term-wise exact integration.
    assert oracles.integral_01_x_euler(1) == Fraction(1, 12)
    result = run_check("lemma1_printed", {"p": 1})
    assert result.residual == Fraction(1, 12)

    # eq7_printed fails at (n=2, l=1): brute-force sum is -2, printed side 1.
    assert oracles.alt_sum(2, 1) == Fraction(-2)
    result = run_check("eq7_printed", {"n": 2, "l": 1})
    assert (result.lhs, result.rhs) == (Fraction(-2), Fraction(1))
    assert not result.holds
    for n in range(1, 21):
        for l in range(11):
            assert run_check("eq7_corrected", {"n": n, "l": l}).holds

    # thm9 at (3,1,1): umbral oracle gives rhs 7/4 against lhs 0.
    assert oracles.t9_rhs(3, 1, 1) == Fraction(7, 4)
    assert oracles.reciprocity_lhs(3, 1, 1) == 0
    result = run_check("thm9", {"p": 3, "h": 1, "k": 1})
    assert result.residual == Fraction(-7, 4)
    report_pass(6, "known residuals 1/12, eq7 failure at (2,1), and -7/4 reproduced")


def test_criterion_07_corrected_lemma_for_odd_p():
    for p in range(1, 14, 2):
        lhs = sum(
            comb(p, s) * euler_number(s) / Fraction(p - s + 2) for s in range(p + 1)
        )
        assert lhs == 2 * euler_number(p + 2) / Fraction((p + 1) * (p + 2))
        assert run_check("lemma1_corrected", {"p": p}).holds
    report_pass(7, "corrected closed form 2E_(p+2)/((p+1)(p+2)) exact for odd p <= 13")


def test_criterion_08_dedekind_reciprocity_to_50():
    start = time.perf_counter()
    count = 0
    for k in range(1, 51):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
            assert lhs == Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(8, f"classical reciprocity exact for {count} coprime pairs h < k <= 50 ({elapsed:.2f}s)")


# sha256 of report_to_json on the standard grid (314 340 bytes).
STANDARD_SHA256 = "c261e0b015e753e3156d9c47f464b9c78b2b590cea740ea66f9186eb875f776e"


def test_criterion_09_full_audit_sweep(findings_generator):
    start = time.perf_counter()
    grid = standard_audit_grid()
    ids = registry_ids()
    report = sweep(ids, grid)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    # Determinism: a second sweep serializes byte-identically, to the bytes
    # pinned as the standard-grid output gate.
    again = sweep(ids, grid)
    assert report_to_json(report) == report_to_json(again)
    assert hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest() == STANDARD_SHA256
    assert report_to_csv(report) == report_to_csv(again)

    # Every evaluated side matches an independent recomputation.
    evaluated = 0
    for result in report.results:
        if result.skipped:
            continue
        lhs, rhs = oracles.check_sides(result.id, result.params)
        assert result.lhs == lhs, (result.id, result.params)
        assert result.rhs == rhs, (result.id, result.params)
        evaluated += 1
    assert evaluated > 1000

    # Residual patterns are committed in the findings document; its summary
    # table must agree with a fresh sweep, and every check the generator's
    # CLAIMS table does not mark as holding everywhere does fail on this grid.
    findings = (ROOT / "FINDINGS.md").read_text(encoding="utf-8")
    rows = dict()
    for match in re.finditer(r"^\| (\w+) \| (\d+) \| (\d+) \| (\d+) \|$", findings, re.M):
        rows[match.group(1)] = tuple(int(match.group(i)) for i in (2, 3, 4))
    assert sorted(rows) == sorted(findings_generator.CLAIMS) == ids
    for check_id, claim in findings_generator.CLAIMS.items():
        counts = report.summary[check_id]
        assert rows[check_id] == (counts["pass"], counts["fail"], counts["skip"])
        if claim.holds is findings_generator.ALL:
            assert counts["fail"] == 0, check_id
        else:
            assert counts["fail"] > 0, check_id
    report_pass(9, f"full sweep of {len(report.results)} instances in {elapsed:.2f}s, "
                   "deterministic, oracle-consistent, findings in sync")


def test_criterion_10_cli_contracts(tmp_path, capsys):
    # JSON round-trip, field for field.
    grid = ParamGrid.from_maxima(pmax=3, hmax=5, kmax=5, odd_only=True, coprime_only=True)
    report = sweep(["thm8_periodic", "thm9", "dedekind_recip"], grid)
    assert report_from_json(report_to_json(report)) == report

    # CSV rows match JSON results one to one, same order.
    args = [
        "audit", "--checks", "thm8_periodic,thm9,dedekind_recip",
        "--pmax", "3", "--hmax", "5", "--kmax", "5", "--odd-only", "--coprime-only",
    ]
    code_json = cli_main(args + ["--format", "json"])
    out_json = capsys.readouterr().out
    code_csv = cli_main(args + ["--format", "csv"])
    out_csv = capsys.readouterr().out
    payload = json.loads(out_json)
    csv_lines = out_csv.strip().splitlines()
    assert len(csv_lines) - 1 == len(payload["results"])
    for line, entry in zip(csv_lines[1:], payload["results"]):
        assert line.split(",")[0] == entry["id"]

    # Exit codes: 1 when residuals remain (thm9), 0 when everything holds,
    # 2 on usage or precondition errors.
    assert code_json == 1 and code_csv == 1
    assert cli_main(["eulernum", "3"]) == 0
    assert capsys.readouterr().out == "1/4\n"
    assert cli_main(["audit", "--checks", "dedekind_recip", "--hmax", "6",
                     "--kmax", "6"]) == 0
    capsys.readouterr()
    assert cli_main(["dedekind", "2", "4"]) == 2
    assert cli_main(["audit", "--checks", "not_a_check"]) == 2
    assert cli_main(["nonsense"]) == 2
    capsys.readouterr()

    out_file = tmp_path / "report.json"
    assert cli_main(["audit", "--checks", "dedekind_recip", "--hmax", "4",
                     "--kmax", "4", "--format", "json", "--out", str(out_file)]) == 0
    capsys.readouterr()
    saved = report_from_json(out_file.read_text(encoding="utf-8"))
    assert saved.summary["dedekind_recip"]["fail"] == 0
    report_pass(10, "JSON round-trip, CSV/JSON parity, exit codes 0/1/2 verified")
