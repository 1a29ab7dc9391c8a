"""The names the benchmark's tracer wraps must exist in dcsums.

``perfbench/tracer.py`` patches functions, caches, ``Poly.eval`` and every
registry entry by name; a renamed or dropped one breaks ``--trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from dcsums import appell, audit, registry_ids

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
