import ast
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dcsums import bernoulli_poly, euler_poly

from oracles import series_coeffs_oracle

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


def test_series_oracle_examples():
    assert series_coeffs_oracle(3, "euler", 0) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 4),
    ]
    assert series_coeffs_oracle(1, "euler", 1) == [Fraction(1), Fraction(1, 2)]
    assert series_coeffs_oracle(2, "bernoulli", 0) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
    ]


def test_series_oracle_matches_polynomials_at_points():
    for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2)):
        es = series_coeffs_oracle(10, "euler", x)
        bs = series_coeffs_oracle(10, "bernoulli", x)
        for n in range(11):
            assert es[n] == euler_poly(n).eval(x)
            assert bs[n] == bernoulli_poly(n).eval(x)


def test_series_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        series_coeffs_oracle(-1, "euler")
    with pytest.raises(ValueError):
        series_coeffs_oracle(3, "genocchi")
