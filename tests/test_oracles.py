import ast
import sys
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_only_the_standard_library():
    # The audit compares every kernel against tests/oracles.py; if the oracles
    # reached dcsums, directly or through another module, a kernel could end
    # up checked against itself.
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles.py"
            roots.add(node.module.split(".")[0])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert "dcsums" not in node.value, "dcsums named in oracles.py"
    assert roots, "found no imports; is oracles.py still there?"
    assert "dcsums" not in roots
    assert roots <= set(sys.stdlib_module_names) | {"__future__"}, roots
