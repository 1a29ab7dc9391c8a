"""The package surface: every public name, and what a value query imports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcsums
from dcsums import appell, audit, periodic, rationals, reporting, sums, umbral

ROOT = Path(__file__).resolve().parents[1]
LAYERS = (rationals, appell, periodic, sums, umbral, audit, reporting)


def test_public_surface_is_the_layers_all_lists():
    names = [name for module in LAYERS for name in module.__all__]
    assert dcsums.__all__ == names
    assert len(set(names)) == len(names)
    assert "series_coeffs_oracle" not in names  # oracles live in tests/oracles.py
    for module in LAYERS:
        assert sys.modules[module.__name__] is module
        for name in module.__all__:
            assert getattr(dcsums, name) is getattr(module, name), name
    namespace = {}
    exec("from dcsums import *", namespace)
    assert {name: namespace[name] for name in names} == {
        name: getattr(dcsums, name) for name in names
    }
    assert set(names) <= set(dir(dcsums))
    with pytest.raises(AttributeError, match="no_such_name"):
        dcsums.no_such_name


def imported_modules(*args: str) -> set[str]:
    """Modules a fresh `python -X importtime <args>` imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_value_queries_skip_the_audit_layer():
    # audit pulls in dataclasses (inspect, ast, dis) and reporting json and
    # csv; a value query uses neither, and `checks` needs audit only.
    interpreter = imported_modules("-c", "pass")
    value = imported_modules("-m", "dcsums", "eulernum", "3") - interpreter
    assert "dcsums.cli" in value
    assert not {"dataclasses", "json", "csv"} & value
    listing = imported_modules("-m", "dcsums", "checks") - interpreter
    assert "dcsums.cli" in listing
    assert not {"json", "csv"} & listing
