"""The names the benchmark's tracer wraps must exist in dcsums.

``perfbench/tracer.py`` patches functions, caches, ``Poly.eval`` and every
registry entry by name; a renamed or dropped one breaks ``--trace 1``.  It
also reads every layer, the lazy ``audit`` and ``reporting`` included, from
``sys.modules`` right after ``import dcsums.cli``.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from dcsums import appell, audit, registry_ids
from dcsums.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_names_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read the bench, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclass looks itself up
    spec.loader.exec_module(tracer)

    for layer, name in tracer.FUNCTIONS:
        assert hasattr(importlib.import_module(f"dcsums.{layer}"), name), (layer, name)
    for cache in tracer.CACHES:
        assert hasattr(getattr(appell, cache), "cache_info"), cache
    assert callable(appell.Poly.eval)
    assert list(tracer.CHECK_IDS) == registry_ids()
    # Every row of the registry table keeps its own id.
    assert len(audit.REGISTRY) == len(audit._CHECKS)


def test_traced_cli_child_sees_every_layer(capsys):
    # What `perfbench/run.py --trace 1` runs for cli-point-queries, with no
    # bytecode written under perfbench/.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cases = (
        (["eulernum", "3"], "appell.euler_number"),
        (["audit", "--checks", "dedekind_recip", "--hmax", "5", "--kmax", "5"],
         "audit.check.dedekind_recip"),
    )
    for argv, traced in cases:
        proc = subprocess.run(
            [sys.executable, "-B", "perfbench/child.py", "cli", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert main(argv) == payload["code"] == 0
        assert payload["stdout"] == capsys.readouterr().out
        assert payload["snapshot"][traced]["calls"] > 0
