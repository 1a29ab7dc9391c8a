import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

# Make the suite runnable from a plain checkout, without installing.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# When a property test fails, hypothesis's pytest plugin imports this module
# while it writes the report.  Where libcst is installed, that import raises a
# DeprecationWarning (from mypy_extensions), which pyproject.toml's
# filterwarnings = ["error"] turns into an INTERNALERROR that ends the whole
# session.  Importing it once here, with only that category ignored, keeps
# one failing test from hiding the results of every test after it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def findings_generator():
    """demos/generate_findings.py as a module, loaded once and never run."""
    spec = importlib.util.spec_from_file_location(
        "generate_findings", ROOT / "demos" / "generate_findings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
