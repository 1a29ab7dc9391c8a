import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# The fast narrative demos; each asserts its own claims and must exit 0.
# run_identity_audit.py and generate_findings.py each sweep the standard
# grid, and the latter rewrites FINDINGS.md, so they are left out.
FAST_DEMOS = (
    "euler_numbers_and_polynomials.py",
    "periodic_extensions.py",
    "dedekind_and_dc_sums.py",
    "umbral_expansions.py",
)


def test_fast_demos_run():
    for name in FAST_DEMOS:
        proc = subprocess.run(
            [sys.executable, str(DEMOS / name)], capture_output=True, text=True
        )
        assert proc.returncode == 0, f"{name}:\n{proc.stderr}"
