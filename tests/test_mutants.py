"""The mutant table in tests/mutants.py stays applicable to the tree."""

import re
from collections import Counter

from mutants import MUTANTS, ROOT


def test_mutant_ids_are_unique():
    assert [i for i, n in Counter(m.id for m in MUTANTS).items() if n > 1] == []


def test_each_mutant_applies_once_under_src_and_compiles():
    for m in MUTANTS:
        assert m.file.startswith("src/") and m.old != m.new, m.id
        text = (ROOT / m.file).read_text(encoding="utf-8")
        assert text.count(m.old) == 1, m.id
        compile(text.replace(m.old, m.new), m.file, "exec")


def test_each_named_test_exists():
    for m in MUTANTS:
        assert m.tests, m.id
        for node in m.tests:
            path, name = node.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {name}\(", source, re.M), (m.id, node)
