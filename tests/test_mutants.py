"""The mutant table in tests/mutants.py stays applicable to the tree."""

import re
from collections import Counter

import mutants
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


def test_a_root_equivalent_row_is_run_unless_the_runner_is_root(tmp_path, monkeypatch):
    assert [m.id for m in MUTANTS if m.root_equivalent] == ["out-read-only"]
    (row,) = [m for m in MUTANTS if m.root_equivalent]
    path = tmp_path / row.file
    path.parent.mkdir(parents=True)
    path.write_text((ROOT / row.file).read_text(encoding="utf-8"), encoding="utf-8")
    runs = []
    monkeypatch.setattr(mutants, "_pytest", lambda tree, tests: runs.append(tests) or 1)
    monkeypatch.setattr(mutants.os, "geteuid", lambda: 0)
    assert mutants._verdict(tmp_path, row) == mutants.EQUIVALENT_AS_ROOT and runs == []
    monkeypatch.setattr(mutants.os, "geteuid", lambda: 1000)
    assert mutants._verdict(tmp_path, row) == "killed" and runs == [row.tests]
    assert path.read_text(encoding="utf-8") == (ROOT / row.file).read_text(encoding="utf-8")
