import ast
import dataclasses
import gc
import hashlib
import inspect
import json
import random
import re
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import wraps
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dcsums import (
    AuditReport,
    CheckResult,
    ParamGrid,
    audit,
    format_rational,
    format_report_text,
    get_check,
    registry_ids,
    report_from_json,
    report_to_csv,
    report_to_json,
    run_check,
    standard_audit_grid,
    sweep,
)
from dcsums import moments, sums, umbral

import oracles


def test_registry_contents():
    assert registry_ids() == sorted(WIDER)
    for check_id in registry_ids():
        check = get_check(check_id)
        assert check.id == check_id
        assert check.param_names


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        get_check("thm42")
    with pytest.raises(ValueError):
        run_check("thm42", {"p": 3})


def test_run_check_validates_param_names():
    with pytest.raises(ValueError):
        run_check("thm9", {"p": 3, "h": 1})
    with pytest.raises(ValueError):
        run_check("lemma1_printed", {"p": 1, "m": 3})
    # A non-integer value is rejected, never truncated.
    for bad in (2.7, "3"):
        with pytest.raises(TypeError):
            run_check("eq7_printed", {"n": 1, "l": bad})


def test_reciprocity_instance_holds_exactly():
    result = run_check("thm8_periodic", {"p": 3, "h": 1, "k": 3})
    assert result.lhs == Fraction(13, 2)
    assert result.rhs == Fraction(13, 2)
    assert result.residual == 0
    assert result.holds and not result.skipped


def test_known_residuals_reproduce():
    result = run_check("lemma1_printed", {"p": 1})
    assert (result.lhs, result.rhs, result.residual) == (
        Fraction(1, 12),
        Fraction(0),
        Fraction(1, 12),
    )

    result = run_check("thm9", {"p": 3, "h": 1, "k": 1})
    assert (result.lhs, result.rhs) == (Fraction(0), Fraction(7, 4))
    assert result.residual == Fraction(-7, 4)

    result = run_check("eq7_printed", {"n": 2, "l": 1})
    assert (result.lhs, result.rhs) == (Fraction(-2), Fraction(1))
    assert result.residual == Fraction(-3)
    assert result.rhs - result.lhs == 3


def test_hypothesis_violations_are_skips_not_failures():
    result = run_check("thm9", {"p": 2, "h": 1, "k": 3})  # even p
    assert result.skipped and not result.holds
    assert result.lhs is None and result.rhs is None and result.residual is None

    result = run_check("dedekind_recip", {"h": 2, "k": 4})  # not coprime
    assert result.skipped

    result = run_check("eq11", {"p": 3, "m": 4})  # even modulus
    assert result.skipped

    # Theorem 8 is claimed for odd p > 1 only.  At p = 1 both forms would
    # hold on many odd (h, k), so only the skip shows the hypothesis.
    for check_id in ("thm8_periodic", "thm8_poly"):
        result = run_check(check_id, {"p": 1, "h": 1, "k": 1})
        assert result.skipped and result.residual is None


def test_thm2_printed_is_marginal_only_at_s_equal_p_plus_one():
    result = run_check("thm2_printed", {"p": 3, "s": 4})
    assert (result.lhs, result.rhs) == (Fraction(1), Fraction(0))
    assert not result.holds
    result = run_check("thm2_printed", {"p": 3, "s": 6})
    assert result.holds and result.lhs == 0  # both sides vanish

    for p in (3, 5, 7):
        for s in range(2, p, 2):
            assert run_check("thm2_slt", {"p": p, "s": s}).holds


def test_known_true_suite_holds_on_small_grid():
    grid = ParamGrid(
        p_values=(1, 3, 5, 7, 9, 11, 13),
        h_values=tuple(range(1, 8)),
        k_values=tuple(range(1, 8)),
        n_values=tuple(range(1, 13)),
        l_values=tuple(range(0, 9)),
        m_values=(1, 3, 5, 7),
        coprime_only=True,
    )
    report = sweep(
        ["eq10", "eq11", "eq7_corrected", "eq12_13_corrected", "lemma1_corrected",
         "dedekind_recip"],
        grid,
    )
    for check_id, counts in report.summary.items():
        assert counts["fail"] == 0, (check_id, counts)
        assert counts["pass"] > 0


def test_residuals_of_sides_that_share_a_numerator_or_a_denominator(monkeypatch):
    # holds compares both parts of the two sides' integer ratios, and the
    # residual is lhs - rhs, in sweep and run_check alike.
    sides = {1: (Fraction(1, 2), Fraction(1, 3)), 2: (Fraction(1, 3), Fraction(2, 3)),
             3: (Fraction(-5, 6), Fraction(-5, 6)), 4: (Fraction(7), 7)}
    probe = audit.IdentityCheck("probe", ("p",), lambda p: True, lambda p: sides[p][0],
                                lambda p: sides[p][1], "sides by p")
    monkeypatch.setitem(audit.REGISTRY, "probe", probe)
    report = sweep(["probe"], ParamGrid(p_values=tuple(sides)))
    assert report.summary == {"probe": {"pass": 2, "fail": 2, "skip": 0}}
    for r in report.results:
        lhs, rhs = sides[r.params["p"]]
        assert (r.residual, r.holds) == (lhs - rhs, lhs == rhs)
        assert r == run_check("probe", r.params)


def test_known_failures_pin_exact_residuals():
    # Residuals fixed by the independent oracles in tests/oracles.py.
    cases = [
        ("thm7", {"p": 3, "h": 3, "k": 5}, Fraction(-99)),
        ("thm8_poly", {"p": 3, "h": 3, "k": 5}, Fraction(1656)),
        ("thm3", {"p": 3, "m": 3}, Fraction(10, 27)),
        ("thm9", {"p": 3, "h": 1, "k": 3}, Fraction(93, 4)),
    ]
    for check_id, params, residual in cases:
        lhs, rhs = oracles.check_sides(check_id, params)
        assert lhs - rhs == residual
        result = run_check(check_id, params)
        assert result.residual == residual


def test_sweep_results_match_independent_oracles():
    grid = ParamGrid(
        p_values=(3, 5),
        h_values=(1, 2, 3, 5),
        k_values=(1, 3, 5),
        n_values=(1, 2, 5),
        l_values=(0, 1, 4),
        m_values=(1, 3, 5),
        s_values=(2, 4, 6),
    )
    report = sweep(registry_ids(), grid)
    checked = 0
    for result in report.results:
        if result.skipped:
            continue
        lhs, rhs = oracles.check_sides(result.id, result.params)
        assert result.lhs == lhs and result.rhs == rhs, result
        checked += 1
    assert checked > 100


def test_sweep_ordering_and_summary_consistency():
    grid = ParamGrid.from_maxima(pmax=3, hmax=4, kmax=4, nmax=4, lmax=2, mmax=3, smax=4)
    report = sweep(["dedekind_recip", "eq7_corrected", "thm9"], grid)
    keys = [(r.id, tuple(r.params.values())) for r in report.results]
    assert keys == sorted(keys)
    tallies = {check_id: {"pass": 0, "fail": 0, "skip": 0} for check_id in report.summary}
    for r in report.results:
        bucket = "skip" if r.skipped else ("pass" if r.holds else "fail")
        tallies[r.id][bucket] += 1
        if not r.skipped:
            assert r.holds == (r.residual == 0)
    assert tallies == report.summary


def test_empty_sweep():
    report = sweep([], ParamGrid.from_maxima(pmax=2))
    assert report.results == ()
    assert report.summary == {}


def test_grid_filters():
    grid = ParamGrid.from_maxima(hmax=6, kmax=6, mmax=8, odd_only=True, coprime_only=True)
    assert grid.values_for("h") == (1, 3, 5)
    assert grid.values_for("m") == (1, 3, 5, 7)
    # odd_only filters the moduli h, k, m only: p keeps its even values.
    assert grid.values_for("p") == (1, 2, 3, 4, 5, 6, 7)
    assert grid.description()["p"] == [1, 2, 3, 4, 5, 6, 7]
    assert grid.description()["h"] == [1, 3, 5]
    pairs = [(p["h"], p["k"]) for p in grid.iter_params(("h", "k"))]
    assert (3, 3) not in pairs
    assert (3, 5) in pairs
    assert all(h % 2 == 1 and k % 2 == 1 for h, k in pairs)


def test_coprime_filter_without_odd_only():
    # Odd h, k never share the factor 2, so only even values test the gcd itself.
    grid = ParamGrid.from_maxima(hmax=6, kmax=6, coprime_only=True)
    pairs = [(p["h"], p["k"]) for p in grid.iter_params(("h", "k"))]
    assert (2, 4) not in pairs and (4, 6) not in pairs
    assert (2, 3) in pairs
    assert all(gcd(h, k) == 1 for h, k in pairs)


def test_from_maxima_ranges():
    grid = ParamGrid.from_maxima(pmax=2, lmax=0, smax=3)
    assert grid == ParamGrid(
        p_values=(1, 2), h_values=tuple(range(1, 10)), k_values=tuple(range(1, 10)),
        n_values=tuple(range(1, 13)), l_values=(0,), m_values=tuple(range(1, 10)),
        s_values=(2, 3),
    )
    with pytest.raises(TypeError, match="qmax"):
        ParamGrid.from_maxima(qmax=3)


def test_unsorted_axes_and_ids_give_the_sorted_report():
    shuffled = ParamGrid(p_values=(5, 3), h_values=(5, 1, 3), k_values=(3, 1, 5),
                         odd_only=True, coprime_only=True)
    ordered = ParamGrid(p_values=(3, 5), h_values=(1, 3, 5), k_values=(1, 3, 5),
                        odd_only=True, coprime_only=True)
    walks = [[tuple(p.values()) for p in grid.iter_params(("p", "h", "k"))]
             for grid in (shuffled, ordered)]
    assert walks[0] == sorted(walks[0]) == walks[1]
    ids = ["thm9", "dedekind_recip", "thm8_periodic"]
    report, expected = sweep(ids, shuffled), sweep(sorted(ids), ordered)
    assert report.results == expected.results
    assert list(report.summary) == ids and report.summary == expected.summary
    assert report.grid["h"] == [5, 1, 3]  # the report keeps the grid as given


def test_sweep_is_deterministic():
    grid = ParamGrid.from_maxima(pmax=5, hmax=5, kmax=5, odd_only=True, coprime_only=True)
    ids = ["thm8_periodic", "thm9", "dedekind_recip"]
    serial_json = report_to_json(sweep(ids, grid))
    again_json = report_to_json(sweep(ids, grid))
    assert serial_json == again_json
    serial_csv = report_to_csv(sweep(ids, grid))
    assert serial_csv == report_to_csv(sweep(ids, grid))


def _reference_json(report):
    """The whole report through json.dumps: the layout report_to_json writes directly."""
    def fmt(q):
        return None if q is None else format_rational(q)

    data = {
        "grid": report.grid,
        "results": [
            {"id": r.id, "params": r.params, "lhs": fmt(r.lhs), "rhs": fmt(r.rhs),
             "residual": fmt(r.residual), "holds": r.holds, "skipped": r.skipped}
            for r in report.results
        ],
        "summary": report.summary,
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_report_to_json_matches_the_json_encoder():
    standard = sweep(registry_ids(), standard_audit_grid())
    empty = sweep([], ParamGrid.from_maxima(pmax=2))
    no_tuples = sweep(["thm9"], ParamGrid())
    skipped = sweep(["thm9", "dedekind_recip"], ParamGrid.from_maxima(pmax=4, hmax=4, kmax=4))
    default = sweep(registry_ids(), ParamGrid.from_maxima())
    unsorted = sweep(["thm9", "thm8_periodic"],
                     ParamGrid(p_values=(5, 3), h_values=(5, 1, 3), k_values=(3, 1, 5)))
    assert empty.results == no_tuples.results == () and no_tuples.summary
    assert any(r.skipped for r in skipped.results)
    assert any(not r.skipped and not r.holds and r.residual < 0 for r in default.results)
    assert unsorted.grid["h"] == [5, 1, 3]
    # Out of sweep order, as a report built by hand can be: one id in two
    # runs, and one id with two sets of names, each run its own template.
    a, b, c = skipped.results[-1], skipped.results[0], default.results[0]
    interleaved = AuditReport(grid={}, results=(
        a, b, a, c, CheckResult(a.id, {"q": 2}, Fraction(1), Fraction(1), Fraction(0), True)),
        summary={})
    assert a.id != b.id and a.skipped
    for report in (standard, empty, no_tuples, skipped, default, unsorted, interleaved):
        assert report_to_json(report) == _reference_json(report)
    assert '"results": []' in report_to_json(empty)


def test_loaded_reports_write_ids_and_names_through_json():
    # AuditReport is public, so a report built by hand can hold any id and
    # param name; the writer's templates must escape them as json does, and
    # keep a literal % out of formatting.  The loader takes registry ids only.
    results = (
        CheckResult("100%", {"%s": 6, "%%d": 7}, None, None, None, False, True),
        CheckResult("no params", {}, Fraction(-7, 4), Fraction(0), Fraction(-7, 4), False),
        CheckResult('x"%s', {'a"b': 1, "c\\d": -2, "p": 3}, Fraction(1, 2), Fraction(1, 3),
                    Fraction(1, 6), False),
        CheckResult("\u00e9\\%", {"\u00e9": 4, "e%f": 5}, Fraction(2), Fraction(2), Fraction(0),
                    True),
    )
    summary = {'x"%s': {"pass": 0, "fail": 1, "skip": 0},
               "\u00e9\\%": {"pass": 1, "fail": 0, "skip": 0},
               "100%": {"pass": 0, "fail": 0, "skip": 1},
               "no params": {"pass": 0, "fail": 1, "skip": 0}}
    report = AuditReport(grid={"h%": [1]}, results=results, summary=summary)
    assert report_to_json(report) == _reference_json(report)
    with pytest.raises(ValueError, match=re.escape("result 0 ('100%'): its id is not a registry")):
        report_from_json(report_to_json(report))


_ENTRY = {"id": "eq7_printed", "params": {"n": 2, "l": 1}, "lhs": "1/2", "rhs": "0",
          "residual": "1/2", "holds": False, "skipped": False}
_NO_VALUES = {"lhs": None, "rhs": None, "residual": None}


def _report_text(entries, summary=None):
    """A JSON report of ``entries``; the summary defaults to their tally."""
    if summary is None:
        summary = {}
        for entry in entries:
            counts = summary.setdefault(entry["id"], {"pass": 0, "fail": 0, "skip": 0})
            counts["skip" if entry["skipped"] else "pass" if entry["holds"] else "fail"] += 1
    return json.dumps({"grid": {}, "results": list(entries), "summary": summary})


def _thm9_entry(p, h, k):
    return {**_ENTRY, "id": "thm9", "params": {"p": p, "h": h, "k": k}}


@pytest.mark.parametrize("change, fault", [
    ({"skipped": True, "holds": True}, "a skipped entry has a value"),
    ({**_NO_VALUES, "skipped": True, "lhs": "1/2"}, "a skipped entry has a value"),
    ({**_NO_VALUES, "skipped": True, "holds": True}, "a skipped entry holds"),
    ({"lhs": None}, "an evaluated entry lacks a value"),
    ({"residual": None}, "an evaluated entry lacks a value"),
    ({"residual": "-1/2"}, "the residual is not lhs - rhs"),
    ({"lhs": "2", "rhs": "1", "residual": "1", "holds": True}, "holds is not residual == 0"),
    ({"lhs": "1", "rhs": "1", "residual": "0"}, "holds is not residual == 0"),
], ids=["skipped-holds-with-values", "skipped-with-lhs", "skipped-holds", "no-lhs",
        "no-residual", "wrong-residual", "holds-nonzero", "fails-zero"])
def test_report_from_json_rejects_entries_that_break_the_invariant(change, fault):
    assert report_from_json(_report_text([_ENTRY])).results[0].residual == Fraction(1, 2)
    with pytest.raises(ValueError, match=re.escape(f"result 1 ('thm9'): {fault}")):
        report_from_json(_report_text([_ENTRY, {**_thm9_entry(3, 1, 1), **change}]))


_TALLY = {"pass": 0, "fail": 1, "skip": 0}


@pytest.mark.parametrize("summary, check_id", [
    # A failing thm9 entry summed up as a pass: the text form said "all checks hold".
    ({"thm9": {"pass": 1, "fail": 0, "skip": 0}}, "thm9"),
    ({}, "thm9"),
    ({"thm9": {**_TALLY, "extra": 0}}, "thm9"),
    ({"thm9": _TALLY, "cor4": {"pass": 0, "fail": 0, "skip": 1}}, "cor4"),
], ids=["fail-summed-as-pass", "id-missing", "extra-count", "counts-without-entries"])
def test_report_from_json_rejects_a_summary_that_does_not_tally_the_entries(summary, check_id):
    entries = [_thm9_entry(3, 1, 1)]
    # An id with no entries has all zeros, as sweep writes it.
    loaded = report_from_json(_report_text(entries, {
        "thm9": _TALLY, "cor4": {"pass": 0, "fail": 0, "skip": 0}}))
    assert format_report_text(loaded).endswith("\n1 failing instances\n")
    with pytest.raises(ValueError, match=re.escape(f"summary of {check_id!r}")):
        report_from_json(_report_text(entries, summary))


@pytest.mark.parametrize("entries, fault", [
    ([_thm9_entry(3, 1, 1), _ENTRY], "it is out of sweep order"),
    # thm9's param_names are (p, h, k): (3, 1, 5) comes before (3, 3, 1).
    ([_thm9_entry(3, 3, 1), _thm9_entry(3, 1, 5)], "it is out of sweep order"),
    ([_thm9_entry(3, 1, 5), _thm9_entry(3, 1, 5)], "it repeats an earlier entry"),
    ([_ENTRY, {**_ENTRY, "id": "x"}], "its id is not a registry check"),
    ([_thm9_entry(3, 1, 1), {**_ENTRY, "id": "thm9", "params": {"p": 3, "h": 1}}],
     "its params are not ('p', 'h', 'k')"),
], ids=["ids-descending", "params-descending", "repeat", "unknown-id", "other-names"])
def test_report_from_json_rejects_entries_out_of_sweep_order(entries, fault):
    # The same entries in sweep's order load.
    ordered = [_ENTRY, _thm9_entry(3, 1, 5), _thm9_entry(3, 3, 1)]
    assert len(report_from_json(_report_text(ordered)).results) == 3
    with pytest.raises(ValueError, match=re.escape(f"result 1 ({entries[1]['id']!r}): {fault}")):
        report_from_json(_report_text(entries))


_NOT_A_REPORT = "a report is an object of an object grid"
_NOT_AN_ENTRY = "it is not an object with the keys"
_EQ7 = "result 0 ('eq7_printed'): "
_EQ7_SUMMARY = "summary of 'eq7_printed'"


@pytest.mark.parametrize("data, fault", [
    ([], _NOT_A_REPORT),
    ({"grid": {}, "summary": {}}, _NOT_A_REPORT),
    ({"grid": [], "results": [], "summary": {}}, _NOT_A_REPORT),
    ({"grid": {}, "results": {}, "summary": {}}, _NOT_A_REPORT),
    ({"grid": {}, "results": [], "summary": []}, _NOT_A_REPORT),
    ({"grid": {}, "results": [[]], "summary": {}}, "result 0: " + _NOT_AN_ENTRY),
    ({"results": [{k: v for k, v in _ENTRY.items() if k != "id"}]}, "result 0: " + _NOT_AN_ENTRY),
    ({"results": [{**_ENTRY, "note": ""}]}, _EQ7 + _NOT_AN_ENTRY),
    ({"results": [_thm9_entry(3.7, 1, 1)], "summary": {"thm9": _TALLY}},
     "result 0 ('thm9'): a param is not an integer"),
    ({"results": [{**_ENTRY, "params": {"n": 2, "l": True}}]}, _EQ7 + "a param is not"),
    ({"results": [{**_ENTRY, "lhs": 0.5}]}, _EQ7 + "lhs, rhs or residual is neither"),
    ({"results": [{**_ENTRY, "residual": "x"}]}, _EQ7 + "not a rational literal"),
    ({"results": [{**_ENTRY, "lhs": "0", "residual": "0", "holds": "false"}],
      "summary": {"eq7_printed": {"pass": 1, "fail": 0, "skip": 0}}},
     _EQ7 + "holds or skipped is not a boolean"),
    ({"results": [{**_ENTRY, "skipped": 0}]}, _EQ7 + "holds or skipped is not a boolean"),
    ({"summary": {"eq7_printed": {"pass": 0.5, "fail": 1, "skip": 0}}}, _EQ7_SUMMARY),
    ({"summary": {"eq7_printed": {"pass": 0, "fail": True, "skip": 0}}}, _EQ7_SUMMARY),
    ({"summary": {"eq7_printed": [0, 1, 0]}}, _EQ7_SUMMARY),
], ids=["top-list", "no-results", "grid-list", "results-object", "summary-list",
        "entry-list", "entry-without-id", "entry-extra-key", "param-float", "param-bool",
        "lhs-number", "residual-not-a-literal", "holds-string", "skipped-number",
        "count-float", "count-bool", "summary-value-list"])
def test_report_from_json_takes_only_the_json_types_sweep_writes(data, fault):
    # A dict case without a grid overrides keys of a valid one-entry report,
    # whose summary tallies its entry; every other case is the whole report.
    valid = {"grid": {}, "results": [_ENTRY], "summary": {"eq7_printed": _TALLY}}
    assert report_from_json(json.dumps(valid)).results[0].params == {"n": 2, "l": 1}
    if isinstance(data, dict) and "grid" not in data:
        data = {**valid, **data}
    with pytest.raises(ValueError, match=re.escape(fault)):
        report_from_json(json.dumps(data))


def _values(first, top):
    return st.lists(st.integers(first, top), unique=True, max_size=4).map(tuple)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ids=st.lists(st.sampled_from(registry_ids()), unique=True, max_size=5),
       grid=st.builds(ParamGrid, p_values=_values(1, 7), h_values=_values(1, 8),
                      k_values=_values(1, 8), n_values=_values(1, 6), l_values=_values(0, 5),
                      m_values=_values(1, 8), s_values=_values(2, 8), odd_only=st.booleans(),
                      coprime_only=st.booleans()))
@example(ids=["dedekind_recip", "eq10", "thm8_poly", "thm9"],
         grid=ParamGrid(p_values=(2, 3), h_values=(4, 1, 2), k_values=(2, 3, 6)))
@example(ids=registry_ids(), grid=standard_audit_grid())
def test_json_reports_round_trip(ids, grid):
    report = sweep(ids, grid)
    text = report_to_json(report)
    loaded = report_from_json(text)
    assert loaded == report
    assert [list(r.params) for r in loaded.results] == [list(r.params) for r in report.results]
    assert format_report_text(loaded) == format_report_text(report)
    assert report_to_csv(loaded) == report_to_csv(report)
    assert report_to_json(loaded) == text


_DELETE = object()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), new=st.sampled_from([None, True, 1.5, "x", [], {}, _DELETE]))
def test_a_malformed_report_raises_value_error_only(data, new):
    # One value of a valid report (with passing, failing and skipped
    # entries) replaced by one of another JSON type, or one key deleted.
    grid = ParamGrid(p_values=(2, 3), h_values=(1, 2), k_values=(1,))
    report = json.loads(report_to_json(sweep(["dedekind_recip", "thm9"], grid)))
    places = [(report, key) for key in report]
    for entry in report["results"]:
        places += [(entry, key) for key in entry] + [(entry["params"], k) for k in entry["params"]]
    for counts in report["summary"].values():
        places += [(counts, key) for key in counts]
    node, key = data.draw(st.sampled_from(places))
    if new is _DELETE:
        del node[key]
    else:
        assume(type(new) is not type(node[key]))
        node[key] = new
    with pytest.raises(ValueError):
        report_from_json(json.dumps(report))


def test_report_to_csv_rejects_params_it_has_no_column_for():
    result = CheckResult("x", {"p": 1, "q": 3}, Fraction(1, 2), Fraction(0), Fraction(1, 2),
                         False)
    report = AuditReport(grid={}, results=(result,), summary={})
    with pytest.raises(ValueError, match="'x' has param 'q'"):
        report_to_csv(report)


@pytest.mark.parametrize("bad", [0.5, "1/2"])
def test_every_writer_keeps_the_exact_gate(bad):
    for i in range(3):  # lhs, rhs, residual
        values = [Fraction(1, 2), Fraction(0), Fraction(1, 2)]
        values[i] = bad
        result = CheckResult("eq7_printed", {"n": 2, "l": 1}, *values, False)
        report = AuditReport(grid={}, results=(result,),
                             summary={"eq7_printed": {"pass": 0, "fail": 1, "skip": 0}})
        for writer in (report_to_json, report_to_csv, format_report_text):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                writer(report)


def test_check_results_are_immutable_named_tuples():
    result = run_check("thm9", {"p": 3, "h": 1, "k": 1})
    assert result == run_check("thm9", {"p": 3, "h": 1, "k": 1})
    assert result._fields == ("id", "params", "lhs", "rhs", "residual", "holds", "skipped")
    assert CheckResult("x", {}, None, None, None, False).skipped is False
    assert repr(result) == ("CheckResult(id='thm9', params={'p': 3, 'h': 1, 'k': 1}, "
                            "lhs=Fraction(0, 1), rhs=Fraction(7, 4), residual=Fraction(-7, 4), "
                            "holds=False, skipped=False)")
    with pytest.raises(AttributeError):
        result.holds = True


def test_sweep_rejects_duplicate_ids():
    grid = ParamGrid.from_maxima(hmax=3, kmax=3)
    with pytest.raises(ValueError, match="duplicate check ids"):
        sweep(["dedekind_recip", "dedekind_recip"], grid)
    # A repeated grid value would double-count its tuples the same way.
    with pytest.raises(ValueError, match="repeated value in p_values"):
        sweep(["thm8_periodic"], ParamGrid(p_values=(3, 3), h_values=(1,), k_values=(3,)))


def _hk_symmetric_ids():
    return [check_id for check_id in registry_ids() if get_check(check_id).hk_symmetric]


def _side_value(side, params):
    try:
        return side(*params.values())
    except ValueError as exc:  # outside the side's own domain, e.g. S(h, k) with gcd > 1
        return type(exc)


def test_rows_take_their_params_positionally():
    # sweep calls hypotheses and sides positionally and keys its side table
    # by the value tuple, so every one must take param_names in that order.
    for check in map(get_check, registry_ids()):
        for fn in (check.hypotheses, check.lhs, check.rhs):
            assert tuple(inspect.signature(fn).parameters) == check.param_names, (check.id, fn)


def test_hk_symmetric_sides_are_symmetric_as_written():
    declared = {check_id: get_check(check_id).hk_symmetric for check_id in _hk_symmetric_ids()}
    assert declared == {"dedekind_recip": ("lhs", "rhs"), "eq10": ("lhs",), "thm7": ("lhs",),
                        "thm8_periodic": ("lhs", "rhs"), "thm8_poly": ("lhs", "rhs"),
                        "thm9": ("lhs",)}
    # A side function that several rows share is declared alike on each, so
    # their entries in one side table are keyed alike.
    for name in ("lhs", "rhs"):
        by_side = {}
        for check in map(get_check, registry_ids()):
            by_side.setdefault(getattr(check, name), set()).add(name in check.hk_symmetric)
        assert all(len(flags) == 1 for flags in by_side.values()), name
    # Hypotheses are ignored: the declaration promises each named side at
    # every (h, k), with even p, p = 1, and even or non-coprime h, k included.
    grid = ParamGrid.from_maxima(pmax=9, hmax=12, kmax=12)
    asymmetric = []
    for check in map(get_check, _hk_symmetric_ids()):
        for params in grid.iter_params(check.param_names):
            if params["h"] < params["k"]:
                mirror = {**params, "h": params["k"], "k": params["h"]}
                if any(_side_value(getattr(check, name), params)
                       != _side_value(getattr(check, name), mirror)
                       for name in check.hk_symmetric):
                    asymmetric.append((check.id, tuple(params.values())))
    assert asymmetric == [], f"{len(asymmetric)} asymmetric tuples, first {asymmetric[:3]}"
    for p, h, k in [(3, 1, 5), (4, 2, 5), (5, 4, 6), (1, 3, 9), (7, 6, 9)]:
        for periodic in (True, False):
            expected = oracles.t8_rhs(p, h, k, periodic)
            assert audit.theorem8_rhs(p, h, k, periodic) == expected
            assert audit.theorem8_rhs(p, k, h, periodic) == expected


@pytest.mark.parametrize("grid", [
    ParamGrid(p_values=(1, 2, 3, 5), h_values=tuple(range(1, 5)), k_values=tuple(range(1, 12)),
              n_values=(3, 1, 5, 2), l_values=(4, 0, 2, 1), m_values=(5, 2, 1, 3),
              s_values=(6, 2, 4)),
    ParamGrid(p_values=(5, 4, 3), h_values=(7, 2, 5, 1, 9, 4), k_values=(9, 4, 1, 7, 3, 2),
              n_values=(6, 1, 3), l_values=(3, 0, 5), m_values=(7, 1, 4, 3), s_values=(8, 2, 4)),
], ids=["unequal-axes", "shuffled-axes"])
def test_sweep_reports_each_tuples_own_values(grid):
    ids = registry_ids()
    report = sweep(ids, grid)
    expected = tuple(run_check(check_id, params) for check_id in ids
                     for params in grid.iter_params(get_check(check_id).param_names))
    assert report.results == expected
    assert {r.id for r in report.results if not r.skipped} == set(ids)
    # Every row with a symmetric side evaluated both orders of some h < k
    # pair, so the side table served a mirror.
    live = [(r.id, r.params) for r in report.results if not r.skipped and "h" in r.params]
    assert set(_hk_symmetric_ids()) <= {
        check_id for check_id, params in live if params["h"] < params["k"]
        and (check_id, {**params, "h": params["k"], "k": params["h"]}) in live}


def test_sweep_shares_each_side_across_checks_and_mirrors(monkeypatch):
    line_calls, rhs_calls = [], []
    kernel, thm9 = audit._dc_line, get_check("thm9")

    def counted_dc_line(p, h, k):
        line_calls.append((p, min(h, k), max(h, k)))
        return kernel(p, h, k)

    def counted_rhs(p, h, k):
        rhs_calls.append((p, h, k))
        return thm9.rhs(p, h, k)

    monkeypatch.setattr(audit, "_dc_line", counted_dc_line)
    # The row rebuilt the way perfbench/tracer.py rebuilds it keeps its declaration.
    monkeypatch.setitem(audit.REGISTRY, "thm9", dataclasses.replace(thm9, rhs=counted_rhs))
    # Neither odd_only nor coprime_only: thm8 lives on odd h, k, thm9 on
    # coprime ones, so some pairs are live for one theorem only.
    grid = ParamGrid(p_values=(3, 5), h_values=tuple(range(1, 8)), k_values=tuple(range(1, 8)))
    ids = ["thm8_periodic", "thm8_poly", "thm9"]
    for _ in range(2):  # a second sweep repeats every call: nothing outlives a sweep
        line_calls.clear()
        rhs_calls.clear()
        report = sweep(ids, grid)
        live = [r for r in report.results if not r.skipped]
        unordered = {(r.params["p"], min(r.params["h"], r.params["k"]),
                      max(r.params["h"], r.params["k"])) for r in live}
        assert {r.id for r in live} == set(ids) and len(unordered) < len(live) / 2
        # k^p T_p(h,k) + h^p T_p(k,h) once per unordered live (p, {h, k}):
        # two integer line sums, those of T_p(h,k) and T_p(k,h).
        assert Counter(line_calls) == {key: 2 for key in unordered}
        # thm9's right side is not symmetric: it runs once at every live ordered tuple.
        assert Counter(rhs_calls) == Counter(
            tuple(r.params.values()) for r in live if r.id == "thm9")


def test_sweep_shares_a_side_across_checks_that_are_not_adjacent(monkeypatch):
    calls = []
    kernel = audit.dc_sum

    def counted_dc_sum(p, h, k):
        calls.append((p, h, k))
        return kernel(p, h, k)

    monkeypatch.setattr(audit, "dc_sum", counted_dc_sum)
    # cor4, prop5 and thm6 share m^p T_p(1,m); eq11 sits between cor4 and
    # prop5 in id order and calls no dc_sum.  p = 1 is live for cor4 and
    # prop5 but not for thm6.
    grid = ParamGrid(p_values=(1, 2, 3, 4, 5), m_values=tuple(range(1, 10)))
    ids = ["cor4", "eq11", "prop5", "thm6"]
    for _ in range(2):  # a second sweep repeats every call: nothing outlives a sweep
        calls.clear()
        report = sweep(ids, grid)
        live = {check_id: {(r.params["p"], r.params["m"]) for r in report.results
                           if r.id == check_id and not r.skipped} for check_id in ids}
        assert live["eq11"] and (1, 1) in live["cor4"] & live["prop5"] - live["thm6"]
        shared = live["cor4"] | live["prop5"] | live["thm6"]
        assert Counter(calls) == {(p, 1, m): 1 for p, m in shared}


def test_sweep_evaluates_eq10_left_side_once_per_unordered_pair(monkeypatch):
    calls = []
    eq10 = get_check("eq10")

    def counted_lhs(p, h, k):
        calls.append((p, h, k))
        return eq10.lhs(p, h, k)

    monkeypatch.setitem(audit.REGISTRY, "eq10", dataclasses.replace(eq10, lhs=counted_lhs))
    report = sweep(registry_ids(), standard_audit_grid())
    live = [tuple(r.params.values()) for r in report.results if r.id == "eq10" and not r.skipped]
    # E_p((h^2 + k^2)/(hk)) once per (p, {h, k}): 75 of the 147 live tuples.
    assert len(live) == 147 and len(calls) == 75
    assert Counter((p, min(h, k), max(h, k)) for p, h, k in calls) == dict.fromkeys(
        {(p, min(h, k), max(h, k)) for p, h, k in live}, 1)


def test_sweep_rejects_non_integer_grid_values():
    # Each grid value passes operator.index once, as run_check's params do.
    for bad in (2.0, "2"):
        grids = [(["eq7_printed"], ParamGrid(n_values=(1, bad), l_values=(0,))),
                 (["thm8_periodic", "thm9"],
                  ParamGrid(p_values=(3,), h_values=(1, 3), k_values=(bad, 5))),
                 (["thm3"], ParamGrid(p_values=(bad,), m_values=(1, 3)))]
        for ids, grid in grids:
            with pytest.raises(TypeError):
                sweep(ids, grid)


def test_kernels_see_the_sweeps_table_only_while_it_runs(monkeypatch):
    seen = []
    thm9 = get_check("thm9")

    def rhs_that_fails(p, h, k):
        seen.append(moments._KEPT.get())
        if len(seen) == 3:
            raise RuntimeError("a side failed mid-sweep")
        return thm9.rhs(p, h, k)

    grid = _odd_hk((3,), 5)
    sweep(["thm8_periodic", "thm9"], grid)
    assert moments._KEPT.get() is None
    monkeypatch.setitem(audit.REGISTRY, "thm9", dataclasses.replace(thm9, rhs=rhs_that_fails))
    with pytest.raises(RuntimeError, match="mid-sweep"):
        sweep(["thm9"], grid)
    assert len(seen) == 3 and all(type(table) is dict for table in seen)
    assert moments._KEPT.get() is None


def test_concurrent_sweeps_give_the_reports_of_sequential_ones():
    # Four threads, two per grid, switching often: each sweep gives the
    # sequential report while the others fill and drop their own tables.
    hk = tuple(range(1, 18))
    stretch = ParamGrid(p_values=(3, 5, 7, 9), h_values=hk, k_values=hk, odd_only=True,
                        coprime_only=True)
    jobs = [(["thm8_periodic"], stretch), (registry_ids(), standard_audit_grid())] * 2
    expected = [sweep(*job) for job in jobs]
    reports = [[] for _ in jobs]

    def run(i):
        for _ in range(3):
            reports[i].append(sweep(*jobs[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [[report] * 3 for report in expected]


def test_a_sweep_keeps_moment_vectors_not_points():
    # Two lattices of about 22 500 points each, p = 3 and 9 of both forms:
    # what a sweep keeps for a point set is its vector, so the peak stays
    # near the one piece a walk holds however large the lattice.  Keeping
    # the points themselves until the sweep returns read 3.1 MB here.
    grid = ParamGrid(p_values=(3, 9), h_values=(149, 151), k_values=(149, 151),
                     odd_only=True, coprime_only=True)
    ids = ["thm8_periodic", "thm8_poly"]
    sweep(ids, grid)  # the Euler polynomials' caches
    tracemalloc.start()
    try:
        sweep(ids, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _counting(points, calls):
    """``points``, recording each call's (name, *args) in ``calls``."""
    @wraps(points)
    def counted(*args):
        calls.append((points.__name__, *args))
        return points(*args)

    return counted


def test_a_sweep_walks_each_point_set_once_and_no_deeper_than_it_needs(monkeypatch):
    calls, tables = [], []
    for module, name in ((sums, "_line_points"), (sums, "_lattice_points"),
                         (sums, "_lift_points"), (umbral, "_shift_points")):
        monkeypatch.setattr(module, name, _counting(getattr(module, name), calls))
    kept_in = audit._kept_in
    monkeypatch.setattr(audit, "_kept_in", lambda table: tables.append(table) or kept_in(table))
    grid = ParamGrid.from_maxima(pmax=8, hmax=9, kmax=9, mmax=9, nmax=3, lmax=2, smax=4,
                                 odd_only=True, coprime_only=True)
    sweep(registry_ids(), grid)
    # A lattice walks its two edges, 5-argument lines, inside its own walk;
    # at h = k = 1 those two are the same call.
    walks = Counter(call for call in calls if len(call) != 6 or call[0] != "_line_points")
    assert walks and [call for call, n in walks.items() if n > 1] == []
    # Each check walks from its largest p down, so the first walk of a point
    # set goes as deep as p = 7 needs, the largest p a moment kernel sees
    # (every check that reaches one takes odd p only): 7 // 2 for Q's
    # coefficients, 7 for the lift and the umbral lattice.
    (table,) = tables
    lengths = {(key[0].__name__, len(vector)) for key, vector in table.items()
               if type(key) is tuple}
    assert lengths == {("_line_points", 4), ("_lattice_points", 4), ("_lift_points", 8),
                       ("_shift_points", 8)}


def test_sweep_evaluates_each_mirror_pair_once_per_call(monkeypatch):
    calls = []
    kernel = audit.theorem8_rhs

    def counted(p, h, k, periodic=True):
        calls.append((p, h, k))
        return kernel(p, h, k, periodic)

    monkeypatch.setattr(audit, "theorem8_rhs", counted)
    grid = _odd_hk((3, 5), 9)
    unordered = [(p, h, k) for p in (3, 5) for h in (1, 3, 5, 7, 9) for k in (1, 3, 5, 7, 9)
                 if h <= k]
    for _ in range(2):  # a second sweep repeats every call: nothing outlives a sweep
        calls.clear()
        assert len(sweep(["thm8_periodic"], grid).results) == 50
        assert Counter((p, min(h, k), max(h, k)) for p, h, k in calls) == Counter(unordered)


def _odd_hk(p_values, hk_max, coprime_only=False):
    odd = tuple(range(1, hk_max + 1, 2))
    return ParamGrid(p_values=p_values, h_values=odd, k_values=odd, coprime_only=coprime_only)


_ODD_P = (3, 5, 7, 9, 11)
_NL = ParamGrid.from_maxima(nmax=40, lmax=16)
_P15 = ParamGrid.from_maxima(pmax=15, smax=20)
_PM = ParamGrid.from_maxima(pmax=11, mmax=41, odd_only=True)

# Each check of the generator's CLAIMS table on a grid wider than the
# standard one, with the number of tuples its hypotheses let through.
WIDER = {
    "eq7_printed": (_NL, 680),
    "eq7_corrected": (_NL, 680),
    "eq10": (ParamGrid.from_maxima(pmax=11, hmax=15, kmax=15), 2475),
    "eq11": (ParamGrid(p_values=tuple(range(12)), m_values=tuple(range(1, 42, 2))), 252),
    "eq12_13_printed": (_P15, 8),
    "eq12_13_corrected": (_P15, 8),
    "lemma1_printed": (_P15, 8),
    "lemma1_corrected": (_P15, 8),
    "thm2_printed": (_P15, 52),
    "thm2_slt": (_P15, 28),
    "thm3": (_PM, 126),
    "cor4": (_PM, 126),
    "prop5": (_PM, 126),
    "thm6": (_PM, 105),
    "thm7": (_odd_hk(_ODD_P, 61), 3945),
    "thm8_periodic": (_odd_hk((3, 5, 7, 9), 31), 1024),
    "thm8_poly": (_odd_hk(_ODD_P, 31), 1280),
    "thm9": (_odd_hk(_ODD_P, 41, coprime_only=True), 1785),
    "dedekind_recip": (ParamGrid.from_maxima(hmax=79, kmax=79), 3867),
}
# The checks each RELATIONS entry ties together, swept on one shared grid.
RELATED = [("prop5", "cor4"), ("cor4", "thm3")]
# The checks with a side on the umbral pair protocol or the integer Euler
# table: each agrees with the oracles at every tuple of its wider grid, or,
# where the oracle is slow there, at a fixed seeded sample of them.  The
# oracle costs most per tuple for thm7 and thm8_poly; thm8_poly's rewritten
# side, the reciprocity lhs, is also sampled through thm8_periodic and thm9.
ORACLE_EVERY = {"eq7_printed", "eq7_corrected", "eq10", "eq11", "lemma1_printed",
                "lemma1_corrected", "thm2_printed", "thm2_slt", "thm3", "cor4", "prop5", "thm6"}
ORACLE_SAMPLED = {"thm7": 16, "thm8_periodic": 40, "thm8_poly": 16, "thm9": 40}


@pytest.mark.parametrize("ids", [(check_id,) for check_id in WIDER] + RELATED, ids="~".join)
def test_printed_form_holds_exactly_where_findings_say(findings_generator, ids):
    claims, relations = findings_generator.CLAIMS, findings_generator.RELATIONS
    assert sorted(WIDER) == sorted(claims) == registry_ids()
    assert RELATED == [(a, b) for a, b, _ in relations]
    report = sweep(list(ids), WIDER[ids[0]][0])
    for check_id in ids:
        counts = report.summary[check_id]
        assert counts["pass"] + counts["fail"] == WIDER[check_id][1], check_id
    # Every fact a row quotes lies on its wider grid, so none is vacuous.
    assert findings_generator.assert_claims(report) == sum(len(claims[i].facts) for i in ids)
    # On its own grid, each of those checks agrees with the oracles.
    if len(ids) == 1 and ids[0] in ORACLE_EVERY | ORACLE_SAMPLED.keys():
        live = [r for r in report.results if not r.skipped]
        if ids[0] in ORACLE_SAMPLED:
            live = random.Random(ids[0]).sample(live, ORACLE_SAMPLED[ids[0]])
        assert [r for r in live if oracles.check_sides(r.id, r.params) != (r.lhs, r.rhs)] == []


# CLAIMS at the sizes the CLI accepts: a seeded sample of far live tuples per
# row, and pinned extremes that reach k ~ 10^6 and p = 601 (the latter drives
# the Euler table far past the standard grid).
_FAR = {"p": (1, 31), "h": (1, 40), "k": (1, 3000), "n": (1, 3000), "l": (0, 40),
        "m": (1, 3000), "s": (2, 40)}
_FAR_EXTREMES = [("dedekind_recip", {"h": 7, "k": 1000003}),
                 ("thm8_periodic", {"p": 3, "h": 3, "k": 100001}),
                 ("lemma1_corrected", {"p": 601}),
                 ("eq12_13_corrected", {"p": 601})]


def _far_live_results(check_id, count=8):
    rng = random.Random(check_id)
    names = get_check(check_id).param_names
    live = {}
    for _ in range(1000):
        params = {name: rng.randint(*_FAR[name]) for name in names}
        result = run_check(check_id, params)
        if not result.skipped:
            live[tuple(params.values())] = result
            if len(live) == count:
                break
    assert len(live) == count, check_id
    return list(live.values())


def test_findings_claims_hold_at_cli_scale(findings_generator):
    claims = findings_generator.CLAIMS
    assert sorted(claims) == registry_ids()
    results = [r for check_id in claims for r in _far_live_results(check_id)]
    results += [run_check(check_id, params) for check_id, params in _FAR_EXTREMES]
    assert [r for r in results if r.skipped or r.holds != claims[r.id].holds(**r.params)] == []


def test_iter_params_leaves_no_garbage_cycles():
    # Enumeration must be freed by reference counting alone.
    grid = ParamGrid.from_maxima(hmax=6, kmax=6, odd_only=True, coprime_only=True)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            list(grid.iter_params(("p", "h", "k")))
        assert gc.collect() == 0
    finally:
        gc.enable()


BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _bench_constants(*names):
    """Module-level constants of perfbench/workloads.py, read with ast, not imported."""
    tree = ast.parse(BENCH_WORKLOADS.read_text(encoding="utf-8"))
    values = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    return [ast.literal_eval(values[name]) for name in names]


def test_stretch_grid_report_keeps_the_bench_sha256():
    # The benchmark's reciprocity-stretch gate: thm8_periodic, whose sides are
    # theorem8_rhs and two DC-sum line sums, over its grid walked in ascending order.
    digest, p_values, hk_max = _bench_constants("STRETCH_SHA256", "STRETCH_P", "STRETCH_HK_MAX")
    hk = tuple(range(1, hk_max + 1))
    grid = ParamGrid(p_values=p_values, h_values=hk, k_values=hk, odd_only=True, coprime_only=True)
    report = sweep(["thm8_periodic"], grid)
    assert report.results and all(r.holds and not r.skipped for r in report.results)
    assert hashlib.sha256(report_to_json(report).encode("utf-8")).hexdigest() == digest


# Far tuples of the checks above, where a wrong power of 2 or a wrong
# geometric offset in an integer side would show: p up to 31 for the
# p-only sums, m near 101 for the DC-sum checks, and h, k near 201 at
# p = 11 for the lattice checks.
FAR = {
    "eq7_printed": [{"n": 57, "l": 31}, {"n": 200, "l": 9}],
    "eq7_corrected": [{"n": 57, "l": 31}, {"n": 200, "l": 9}],
    "eq10": [{"p": 31, "h": 7, "k": 5}, {"p": 11, "h": 201, "k": 199}],
    "eq11": [{"p": 31, "m": 5}, {"p": 11, "m": 101}],
    "lemma1_printed": [{"p": 31}],
    "lemma1_corrected": [{"p": 31}, {"p": 37}],
    "thm2_printed": [{"p": 31, "s": 32}, {"p": 25, "s": 40}],
    "thm2_slt": [{"p": 31, "s": 2}, {"p": 31, "s": 30}],
    "thm3": [{"p": 31, "m": 7}, {"p": 11, "m": 101}],
    "cor4": [{"p": 31, "m": 7}, {"p": 11, "m": 101}],
    "prop5": [{"p": 31, "m": 7}, {"p": 11, "m": 101}],
    "thm6": [{"p": 31, "m": 7}, {"p": 11, "m": 101}],
    "thm7": [{"p": 31, "h": 5, "k": 7}, {"p": 11, "h": 200, "k": 201}],
    "thm8_periodic": [{"p": 31, "h": 9, "k": 11}],
    "thm8_poly": [{"p": 31, "h": 9, "k": 11}],
    "thm9": [{"p": 31, "h": 5, "k": 7}, {"p": 11, "h": 201, "k": 199}],
}


@pytest.mark.parametrize("check_id", sorted(FAR))
def test_far_tuples_match_the_oracles(check_id):
    assert set(FAR) == ORACLE_EVERY | ORACLE_SAMPLED.keys()
    for params in FAR[check_id]:
        result = run_check(check_id, params)
        assert not result.skipped, params
        assert (result.lhs, result.rhs) == oracles.check_sides(check_id, params), params
        assert result.residual == result.lhs - result.rhs
        assert result.holds == (result.residual == 0)
