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


@pytest.fixture(scope="session")
def findings_generator():
    """demos/generate_findings.py as a module, loaded once and never run."""
    spec = importlib.util.spec_from_file_location(
        "generate_findings", ROOT / "demos" / "generate_findings.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """Import hypothesis.extra._patching, with DeprecationWarning ignored,
    the first time a test phase raises.

    When a property test fails, hypothesis's pytest plugin (a hookwrapper of
    this hook, which resumes after this one returns) imports that module while
    it writes the report.  Where libcst is installed, the import raises a
    DeprecationWarning (from mypy_extensions), which pyproject.toml's
    filterwarnings = ["error"] turns into an INTERNALERROR that ends the whole
    session.  Importing it here first keeps one failing test from hiding the
    results of every test after it, and a green run never pays for it.
    """
    if call.excinfo is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
