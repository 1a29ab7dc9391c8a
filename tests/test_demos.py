import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# The narrative demos; each must exit 0, and all but run_identity_audit.py
# assert their own claims.
# generate_findings.py rewrites FINDINGS.md, so it is left out here and run
# in process below with its output redirected.
FAST_DEMOS = (
    "euler_numbers_and_polynomials.py",
    "periodic_extensions.py",
    "dedekind_and_dc_sums.py",
    "umbral_expansions.py",
    "run_identity_audit.py",
)


def test_fast_demos_run():
    for name in FAST_DEMOS:
        proc = subprocess.run(
            [sys.executable, str(DEMOS / name)], capture_output=True, text=True
        )
        assert proc.returncode == 0, f"{name}:\n{proc.stderr}"


def test_generate_findings_reproduces_committed_document(findings_generator, tmp_path, monkeypatch):
    # Run the generator with its output redirected, so the committed
    # FINDINGS.md is compared, never rewritten.
    monkeypatch.setattr(findings_generator, "OUT", tmp_path / "FINDINGS.md")
    findings_generator.main()
    assert findings_generator.OUT.read_bytes() == (ROOT / "FINDINGS.md").read_bytes()


def test_generate_findings_refuses_to_run_without_asserts(tmp_path):
    # Under -O every claim check is stripped, so the generator must stop before
    # sweeping.  It runs from a copy, whose FINDINGS.md lands in tmp_path.
    (tmp_path / "demos").mkdir()
    shutil.copy(DEMOS / "generate_findings.py", tmp_path / "demos")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", str(tmp_path / "demos" / "generate_findings.py")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert "-O" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "FINDINGS.md").exists()


def test_whole_grid_section_names_exactly_the_all_rows(findings_generator):
    named = re.findall(r"\*\*(\w+)\*\*", findings_generator.WHOLE_GRID)
    all_rows = [cid for cid, claim in findings_generator.CLAIMS.items()
                if claim.holds is findings_generator.ALL]
    assert sorted(named) == sorted(all_rows) and len(all_rows) == 8
