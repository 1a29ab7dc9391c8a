"""Schema-stable JSON/CSV/text serialization of audit reports.

Rationals travel as canonical strings (``"13/54"``), never floats.  JSON
serialization is byte-deterministic: the layout of ``json.dumps(...,
sort_keys=True, indent=2)``, which ``report_to_json`` writes directly, from
one ``%`` template per run of results sharing an id and param names, with
the id and names through ``json``.  ``report_from_json`` loads only what
``sweep`` can write, in one pass over the entries, each checked against its
registry row: ``report_from_json(report_to_json(r))`` reproduces the report
field for field, param order included, and writes the same bytes.
Skipped entries carry null lhs/rhs/residual — no value exists for them.
CSV rows mirror the JSON results one to one, in order.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import groupby

from .audit import PARAM_NAMES, REGISTRY, AuditReport, CheckResult
from .rationals import format_rational, parse_rational

__all__ = ["report_to_json", "report_from_json", "report_to_csv", "format_report_text"]

CSV_COLUMNS = ("id", *PARAM_NAMES, "lhs", "rhs", "residual", "holds", "skipped")


def _json_nested(value) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` renders it one level deep."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


# One result, keys sorted.
_BLOCK = ('    {\n      "holds": %s,\n      "id": %s,\n      "lhs": %s,\n      "params": %s,\n'
          '      "residual": %s,\n      "rhs": %s,\n      "skipped": %s\n    }')


def _templates(check_id: str, names: list[str]) -> tuple[str, str]:
    """``_BLOCK`` for an evaluated and a skipped result, a %s per name."""
    literal = [json.dumps(text).replace("%", "%%") for text in (check_id, *names)]
    params = ",".join(f"\n        {name}: %s" for name in literal[1:])
    params = "{%s\n      }" % params if names else "{}"
    return (_BLOCK % ("%s", literal[0], '"%s"', params, '"%s"', '"%s"', "false"),
            _BLOCK % ("false", literal[0], "null", params, "null", "null", "true"))


def report_to_json(report: AuditReport) -> str:
    blocks = []
    # One template per run of results with the same id and param names;
    # sweep writes one such run per check.
    for (check_id, *names), run in groupby(report.results, lambda r: (r.id, *r.params)):
        names.sort()
        evaluated, skipped = _templates(check_id, names)
        for r in run:
            values = [r.params[name] for name in names]
            blocks.append(skipped % tuple(values) if r.skipped else evaluated % (
                "true" if r.holds else "false", format_rational(r.lhs), *values,
                format_rational(r.residual), format_rational(r.rhs)))
    results = ",\n".join(blocks)
    if results:
        results = f"\n{results}\n  "
    return (
        f'{{\n  "grid": {_json_nested(report.grid)},\n'
        f'  "results": [{results}],\n'
        f'  "summary": {_json_nested(report.summary)}\n}}\n'
    )


def _fault(r: CheckResult) -> str | None:
    """How ``r`` breaks the ``CheckResult`` invariant, or None."""
    values = (r.lhs, r.rhs, r.residual)
    if r.skipped:
        if values != (None, None, None):
            return "a skipped entry has a value"
        return "a skipped entry holds" if r.holds else None
    if None in values:
        return "an evaluated entry lacks a value"
    (a, b), (c, d), (e, f) = [value.as_integer_ratio() for value in values]
    if e * b * d != (a * d - b * c) * f:  # residual = lhs - rhs, without a Fraction
        return "the residual is not lhs - rhs"
    if r.holds != (e == 0):
        return "holds is not residual == 0"
    return None


_FIELDS = {*CheckResult._fields}  # the seven keys of an entry
_TOP = {"grid": dict, "results": list, "summary": dict}


def _loaded(entry, last: tuple) -> tuple[CheckResult, tuple]:
    """``entry`` as a result, and its sweep-order key, which must ascend from ``last``.

    ValueError gives the first rule of ``report_from_json`` that ``entry`` breaks.
    """
    if not isinstance(entry, dict) or entry.keys() != _FIELDS:
        raise ValueError(f"it is not an object with the keys {sorted(_FIELDS)}")
    row = REGISTRY.get(entry["id"]) if isinstance(entry["id"], str) else None
    if row is None:
        raise ValueError("its id is not a registry check")
    params, values = entry["params"], [entry[key] for key in ("lhs", "rhs", "residual")]
    if not isinstance(params, dict) or params.keys() != {*row.param_names}:
        raise ValueError(f"its params are not {row.param_names}")
    if {*map(type, params.values())} != {int}:
        raise ValueError("a param is not an integer")
    if {*map(type, values)} - {str, type(None)}:
        raise ValueError("lhs, rhs or residual is neither null nor a string")
    if {type(entry["holds"]), type(entry["skipped"])} != {bool}:
        raise ValueError("holds or skipped is not a boolean")
    r = CheckResult(entry["id"], {name: params[name] for name in row.param_names},
                    *[v if v is None else parse_rational(v) for v in values],
                    entry["holds"], entry["skipped"])
    key = (r.id, *r.params.values())
    fault = _fault(r) or ("it repeats an earlier entry" if key == last
                          else "it is out of sweep order" if key < last else None)
    if fault:
        raise ValueError(fault)
    return r, key


def report_from_json(text: str) -> AuditReport:
    """The report ``report_to_json`` wrote, with each param dict in its row's order.

    The top level is an object with an object ``grid`` (its content is not
    checked), a list ``results`` and an object ``summary``; otherwise
    ValueError.

    Each entry, in one pass, must be an object with exactly the seven keys
    ``sweep`` writes; its id must be a ``REGISTRY`` row's, and its params
    that row's ``param_names`` with JSON integer values (``true`` and
    ``false`` are no integers); lhs, rhs and residual are null or rational
    literals, holds and skipped JSON booleans.  It must keep the
    ``CheckResult`` invariant: a skipped entry has null lhs, rhs and
    residual and does not hold; an evaluated one has all three, its
    residual is lhs - rhs, and it holds iff that is 0.  And it must come in
    sweep order: its key, the id and then the param values in row order,
    strictly above the previous entry's.  The first entry that breaks a
    rule raises ValueError naming its index, its id where it has one, and
    the rule.

    The summary must tally the entries: every entry's id is in it, and each
    id's value is exactly ``pass``, ``fail`` and ``skip``, JSON integers
    counting its entries (all zeros for an id without any, as ``sweep``
    writes).  Otherwise ValueError names the first id, in entry order and
    then summary order, whose tally is wrong.
    """
    data = json.loads(text)
    if not isinstance(data, dict) or {k: type(v) for k, v in data.items()} != _TOP:
        raise ValueError("a report is an object of an object grid, a list results "
                         "and an object summary")
    results, key = [], ()
    for i, entry in enumerate(data["results"]):
        try:
            r, key = _loaded(entry, key)
        except ValueError as error:
            check_id = entry.get("id") if isinstance(entry, dict) else None
            where = "" if check_id is None else f" ({check_id!r})"
            raise ValueError(f"result {i}{where}: {error}") from None
        results.append(r)
    summary = data["summary"]
    tally = {check_id: {"pass": 0, "fail": 0, "skip": 0}
             for check_id in [*(r.id for r in results), *summary]}
    for r in results:
        tally[r.id]["skip" if r.skipped else "pass" if r.holds else "fail"] += 1
    for check_id, counts in tally.items():
        if summary.get(check_id) != counts or {*map(type, summary[check_id].values())} != {int}:
            raise ValueError(f"summary of {check_id!r} is {summary.get(check_id)}, "
                             f"but its results count {counts}")
    return AuditReport(grid=data["grid"], results=tuple(results), summary=summary)


def report_to_csv(report: AuditReport) -> str:
    """One row per result, with a column per grid parameter name.

    A result with a param outside ``PARAM_NAMES`` (a report built by hand
    can hold one) raises ValueError naming it: it has no column to go in.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.results:
        extra = r.params.keys() - PARAM_NAMES
        if extra:
            raise ValueError(f"result {r.id!r} has param {min(extra)!r}, which no CSV column holds")
        row = [r.id]
        row += [str(r.params[name]) if name in r.params else "" for name in PARAM_NAMES]
        row += ("", "", "") if r.skipped else map(format_rational, (r.lhs, r.rhs, r.residual))
        row += ["true" if r.holds else "false", "true" if r.skipped else "false"]
        writer.writerow(row)
    return buf.getvalue()


def _result_line(r: CheckResult) -> str:
    params = ", ".join(f"{k}={v}" for k, v in r.params.items())
    if r.skipped:
        return f"SKIP  {r.id}({params})"
    lhs, rhs, residual = map(format_rational, (r.lhs, r.rhs, r.residual))
    line = f"{'ok  ' if r.holds else 'FAIL'}  {r.id}({params})  lhs={lhs}  rhs={rhs}"
    return line if r.holds else f"{line}  residual={residual}"


def format_report_text(report: AuditReport) -> str:
    lines = [_result_line(r) for r in report.results]
    lines.append("")
    for check_id in sorted(report.summary):
        counts = report.summary[check_id]
        lines.append(
            f"{check_id}: pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}"
        )
    total_fail = sum(c["fail"] for c in report.summary.values())
    lines += ["", f"{total_fail} failing instances" if total_fail else "all checks hold"]
    return "\n".join(lines) + "\n"
