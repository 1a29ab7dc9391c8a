import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dcsums import ParamGrid, cli, report_from_json
from dcsums.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eulernum(capsys):
    code, out, _ = run_cli(capsys, "eulernum", "3")
    assert code == 0 and out == "1/4\n"


def test_bernoullinum(capsys):
    code, out, _ = run_cli(capsys, "bernoullinum", "2")
    assert code == 0 and out == "1/6\n"


def test_eulerpoly(capsys):
    code, out, _ = run_cli(capsys, "eulerpoly", "3")
    assert code == 0 and out == "x^3 - 3/2*x^2 + 1/4\n"


def test_eulerfn(capsys):
    code, out, _ = run_cli(capsys, "eulerfn", "3", "4/3")
    assert code == 0 and out == "-13/108\n"
    code, out, _ = run_cli(capsys, "eulerfn", "1", "-1/2")
    assert code == 0 and out == "0\n"


def test_dcsum(capsys):
    code, out, _ = run_cli(capsys, "dcsum", "3", "1", "3")
    assert code == 0 and out == "13/54\n"


def test_dedekind_and_gendedekind(capsys):
    code, out, _ = run_cli(capsys, "dedekind", "1", "3")
    assert code == 0 and out == "1/18\n"
    code, out, _ = run_cli(capsys, "gendedekind", "1", "1", "3")
    assert code == 0 and out == "1/18\n"


def test_precondition_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "dedekind", "2", "4")
    assert code == 2
    assert "coprime" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys, "eulernum")[0] == 2
    assert run_cli(capsys, "eulernum", "-3")[0] == 2
    assert run_cli(capsys, "eulerfn", "3", "not-a-number")[0] == 2
    assert run_cli(capsys, "audit", "--checks", "thm42")[0] == 2
    assert run_cli(capsys, "audit", "--p", "1", "--pmax", "5") == (
        2, "", "error: --p and --pmax exclude each other\n")
    # An audit that evaluates no instance of a selected check proves nothing.
    assert run_cli(capsys, "audit", "--checks", "thm2_slt", "--smax", "1") == (
        2, "", "error: no instance evaluated for thm2_slt\n")
    assert run_cli(capsys, "audit", "--checks", "thm7", "--pmax", "1") == (
        2, "", "error: no instance evaluated for thm7\n")
    # Numerals are ASCII digits with an optional minus, nothing else.
    for argv in (["eulernum", "1_0"], ["eulernum", "+3"], ["eulernum", "\u0661\u0662"],
                 ["dedekind", "1", "+3"], ["eulerfn", "3", "\u0661/\u0663"]):
        assert run_cli(capsys, *argv)[:2] == (2, ""), argv


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_umbral_forms(capsys):
    code, out, _ = run_cli(
        capsys, "umbral", "--form", "hEkE", "--p", "3", "--h", "1", "--k", "3"
    )
    assert code == 0 and out == "7\n"
    code, out, _ = run_cli(capsys, "umbral", "--form", "Ex", "--p", "3", "--x", "1/3")
    assert code == 0 and out == "13/108\n"
    code, out, _ = run_cli(
        capsys, "umbral", "--form", "thm9rhs", "--p", "3", "--h", "1", "--k", "3"
    )
    assert code == 0 and out == "-67/4\n"
    # Each form exits 2 on a flag it does not take and on one it needs but lacks.
    needs = {"Ex": {"--x": "1/3"}, "hEkE": {"--h": "1", "--k": "3"},
             "thm9rhs": {"--h": "1", "--k": "3"}}
    for form, taken in needs.items():
        for flag in ("--h", "--k", "--x"):
            given = {f: v for f, v in taken.items() if f != flag}
            if flag not in taken:
                given[flag] = "2"
            argv = ["umbral", "--form", form, "--p", "3"]
            argv += [part for item in given.items() for part in item]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error: --form {form} ") and err.endswith(f" {flag}\n"), argv


def test_checks_lists_registry(capsys):
    code, out, _ = run_cli(capsys, "checks")
    ids = out.split()
    assert code == 0
    assert "thm8_periodic" in ids and "lemma1_printed" in ids
    assert ids == sorted(ids)


def test_audit_failing_check_exits_1_with_residual_in_json(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--checks", "lemma1_printed", "--p", "1", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["results"] == [
        {
            "id": "lemma1_printed",
            "params": {"p": 1},
            "lhs": "1/12",
            "rhs": "0",
            "residual": "1/12",
            "holds": False,
            "skipped": False,
        }
    ]
    assert payload["summary"]["lemma1_printed"] == {"pass": 0, "fail": 1, "skip": 0}


def test_audit_passing_checks_exit_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit",
        "--checks",
        "dedekind_recip,eq7_corrected",
        "--hmax",
        "6",
        "--kmax",
        "6",
        "--nmax",
        "6",
        "--lmax",
        "4",
        "--format",
        "text",
    )
    assert code == 0
    assert "all checks hold" in out


def test_audit_json_round_trip_and_csv_parity(capsys):
    args = [
        "audit",
        "--checks",
        "thm8_periodic,thm9,dedekind_recip",
        "--pmax",
        "3",
        "--hmax",
        "5",
        "--kmax",
        "5",
        "--odd-only",
        "--coprime-only",
    ]
    code_json, out_json, _ = run_cli(capsys, *args, "--format", "json")
    code_csv, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code_json == code_csv == 1  # thm9 leaves nonzero residuals

    report = report_from_json(out_json)
    payload = json.loads(out_json)
    assert len(report.results) == len(payload["results"])

    csv_lines = out_csv.strip().splitlines()
    assert csv_lines[0].startswith("id,p,h,k,n,l,m,s,lhs,rhs,residual")
    assert len(csv_lines) - 1 == len(payload["results"])
    # Every cell of every row matches its JSON entry, in the same order.
    for line, entry in zip(csv_lines[1:], payload["results"]):
        cells = line.split(",")
        assert cells[0] == entry["id"]
        params = entry["params"]
        expected = [
            str(params[name]) if name in params else ""
            for name in ("p", "h", "k", "n", "l", "m", "s")
        ]
        assert cells[1:8] == expected
        assert cells[8:11] == [entry[key] or "" for key in ("lhs", "rhs", "residual")]
        assert cells[11:] == [str(entry[key]).lower() for key in ("holds", "skipped")]
    rows = {(e["holds"], e["skipped"]) for e in payload["results"]}
    assert rows == {(True, False), (False, False), (False, True)}


def test_audit_text_format(capsys):
    args = ["audit", "--checks", "lemma1_printed,eq11", "--pmax", "2", "--mmax", "2"]
    code, out, _ = run_cli(capsys, *args, "--format", "text")
    assert code == 1
    assert out.splitlines() == [
        "ok    eq11(p=1, m=1)  lhs=0  rhs=0",
        "SKIP  eq11(p=1, m=2)",
        "ok    eq11(p=2, m=1)  lhs=-1/4  rhs=-1/4",
        "SKIP  eq11(p=2, m=2)",
        "FAIL  lemma1_printed(p=1)  lhs=1/12  rhs=0  residual=1/12",
        "SKIP  lemma1_printed(p=2)",
        "",
        "eq11: pass=2 fail=0 skip=2",
        "lemma1_printed: pass=0 fail=1 skip=1",
        "",
        "1 failing instances",
    ]
    _, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert report_from_json(out_json).summary == {
        "lemma1_printed": {"pass": 0, "fail": 1, "skip": 1},
        "eq11": {"pass": 2, "fail": 0, "skip": 2},
    }


def test_audit_is_byte_deterministic(capsys):
    args = [
        "audit", "--checks", "thm3,eq11", "--pmax", "5", "--mmax", "7",
        "--odd-only", "--format", "json",
    ]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_audit_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "audit", "--checks", "dedekind_recip", "--hmax", "4", "--kmax", "4",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    report = report_from_json(out_path.read_text(encoding="utf-8"))
    assert report.summary["dedekind_recip"]["fail"] == 0
    vacuous_path = tmp_path / "vacuous.json"
    code, out, _ = run_cli(capsys, "audit", "--checks", "thm7", "--pmax", "1",
                           "--out", str(vacuous_path))
    assert (code, out) == (2, "") and not vacuous_path.exists()


def test_audit_rejects_duplicate_check_ids(capsys):
    code, out, err = run_cli(
        capsys,
        "audit", "--checks", "dedekind_recip,dedekind_recip", "--hmax", "3", "--kmax", "3",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: duplicate check ids")


def test_audit_empty_selection_exits_2(capsys):
    code, out, err = run_cli(capsys, "audit", "--checks", ",")
    assert code == 2 and out == ""
    assert err == "error: no checks selected\n"


def test_audit_unwritable_out_path_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        capsys,
        "audit", "--checks", "dedekind_recip", "--hmax", "3", "--kmax", "3",
        "--format", "csv", "--out", str(out_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(out_path) in err
    assert not out_path.exists()


def test_audit_checks_out_path_before_sweeping(tmp_path, capsys, monkeypatch):
    def sweep_must_not_run(*args, **kwargs):
        raise AssertionError("sweep ran before --out was checked")

    monkeypatch.setattr(cli.audit, "sweep", sweep_must_not_run)
    for target in (tmp_path / "missing" / "x.csv", tmp_path, ""):
        code, out, err = run_cli(capsys, "audit", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and repr(str(target)) in err

    # A sweep that fails after the check leaves an existing report untouched.
    def failing_sweep(*args, **kwargs):
        raise ValueError("sweep failed")

    existing = tmp_path / "report.csv"
    existing.write_text("old report\n", encoding="utf-8")
    monkeypatch.setattr(cli.audit, "sweep", failing_sweep)
    code, out, err = run_cli(capsys, "audit", "--out", str(existing))
    assert code == 2 and err == "error: sweep failed\n"
    assert existing.read_text(encoding="utf-8") == "old report\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_audit_read_only_out_file_exits_2_before_sweeping(tmp_path, capsys, monkeypatch):
    def sweep_must_not_run(*args, **kwargs):
        raise AssertionError("sweep ran before --out was checked")

    monkeypatch.setattr(cli.audit, "sweep", sweep_must_not_run)
    target = tmp_path / "report.json"
    target.write_bytes(b"old report\n")
    target.chmod(0o444)
    code, out, err = run_cli(capsys, "audit", "--format", "json", "--out", str(target))
    assert (code, out) == (2, "") and err == f"error: cannot write report to {str(target)!r}\n"
    assert target.read_bytes() == b"old report\n"


def test_audit_grid_defaults_come_from_from_maxima(capsys, monkeypatch):
    grids = []

    def capture_grid(ids, grid):
        grids.append(grid)
        raise ValueError("grid captured")

    monkeypatch.setattr(cli.audit, "sweep", capture_grid)
    assert run_cli(capsys, "audit")[0] == 2
    assert run_cli(capsys, "audit", "--p", "3", "--hmax", "4")[0] == 2
    assert grids[0] == ParamGrid.from_maxima()
    assert grids[1] == dataclasses.replace(ParamGrid.from_maxima(hmax=4), p_values=(3,))


def test_readme_cli_values(capsys):
    # Every `dcsums ...` line of the README's CLI block whose comment is a
    # value (a rational or a polynomial in x, optionally followed by a
    # parenthetical) must print exactly that value.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        value = re.sub(r"\s+\(.*\)$", "", comment.strip())
        if command.startswith("dcsums ") and re.fullmatch(r"[-+*/^ x0-9]+", value):
            examples.append((command.split()[1:], value))
    assert {argv[0] for argv, _ in examples} >= {
        "eulernum", "eulerpoly", "bernoullinum", "eulerfn", "dedekind", "gendedekind", "dcsum",
        "umbral",
    }
    for argv, value in examples:
        assert run_cli(capsys, *argv) == (0, value + "\n", ""), argv


COMMANDS = (
    "eulernum", "eulerpoly", "bernoullinum", "eulerfn", "dedekind", "gendedekind",
    "dcsum", "umbral", "audit", "checks", "frobnicate", "--help",
)
# Small values keep every single query cheap.  Positive ints are drawn three
# times as often as the odd literals, so most positionals parse.
INTS = st.integers(1, 6).map(str)
ODD = st.sampled_from(("0", "-1", "1/2", "-1/3", "4/3", "0/5", "1/0", "x", "", "--help"))
VALUES = st.one_of(INTS, INTS, INTS, ODD)
# Positional count of each value command; half the draws use it exactly.
ARITY = {"eulernum": 1, "eulerpoly": 1, "bernoullinum": 1, "eulerfn": 2,
         "dedekind": 2, "gendedekind": 3, "dcsum": 3}
SWITCHES = ("--odd-only", "--coprime-only")
# Options drawn per command; the value commands take none.
FLAGS = {
    "umbral": ("--form", "--p", "--h", "--k", "--x"),
    "audit": ("--checks", "--p", "--pmax", "--hmax", "--kmax", "--nmax", "--lmax",
              "--mmax", "--smax", "--odd-only", "--coprime-only", "--format", "--out"),
}
FLAG_VALUES = {
    "--form": st.sampled_from(("Ex", "hEkE", "thm9rhs", "Xy")),
    "--format": st.sampled_from(("text", "json", "csv", "xml")),
    "--checks": st.sampled_from(("dedekind_recip", "thm8_poly,thm9", "thm9,thm9", "thm42", ",")),
    "--out": st.sampled_from(("report.out", "", ".", "missing/report.out")),
}
# Placed right after "audit", so a drawn maximum can only shrink the default
# grid or override a cap with a value from VALUES; --pmax comes first.
AUDIT_CAPS = ["--pmax", "3", "--hmax", "4", "--kmax", "4", "--nmax", "4",
              "--lmax", "3", "--mmax", "4", "--smax", "3"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    count = draw(st.just(ARITY.get(command, 0)) | st.integers(0, 3))
    argv = draw(st.lists(VALUES, min_size=count, max_size=count))
    flags = draw(st.permutations(FLAGS.get(command, ())))
    for flag in flags[: draw(st.integers(0, len(flags)))]:
        argv += [flag] if flag in SWITCHES else [flag, draw(FLAG_VALUES.get(flag, VALUES))]
    if command == "audit":
        # --p excludes --pmax, so a drawn --p keeps the other caps only.
        argv = (AUDIT_CAPS[2:] if "--p" in argv else AUDIT_CAPS) + argv
    return [command, *argv]


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_any_argv_exits_0_1_or_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a drawn --out writes here
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2)


def test_module_entry_point_end_to_end():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "dcsums", "dcsum", "3", "1", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "13/54\n"

    proc = subprocess.run(
        [sys.executable, "-m", "dcsums", "dedekind", "2", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_values_above_the_int_str_digit_limit_print():
    # CPython refuses int/str conversions past 4300 digits unless told
    # otherwise; E_1(x) = x - 1/2 at a 4400-digit x is parsed and printed.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    x = "9" * 4400
    proc = subprocess.run(
        [sys.executable, "-m", "dcsums", "umbral", "--form", "Ex", "--p", "1", "--x", x],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout) == 4404
    assert proc.stdout == "1" + "9" * 4399 + "7/2\n"
