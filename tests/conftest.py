import importlib.util
import sys
from pathlib import Path

import pytest

# Make the suite runnable from a plain checkout, without installing.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture(scope="session")
def findings_generator():
    """demos/generate_findings.py as a module, loaded once and never run."""
    spec = importlib.util.spec_from_file_location(
        "generate_findings", ROOT / "demos" / "generate_findings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
