"""Schema-stable JSON/CSV/text serialization of audit reports.

Rationals travel as canonical strings (``"13/54"``), never floats.  JSON
serialization is byte-deterministic: the layout of ``json.dumps(...,
sort_keys=True, indent=2)``, which ``report_to_json`` writes directly, from
one ``%`` template per (id, param names) with the id and names through
``json``.  ``report_from_json(report_to_json(r))`` reproduces the report
field for field, and the loader rejects an entry that breaks the
``CheckResult`` invariant.  Skipped entries carry null lhs/rhs/residual — no value
exists for them.  CSV rows mirror the JSON results one to one, in order.
"""

from __future__ import annotations

import csv
import io
import json

from .audit import PARAM_NAMES, AuditReport, CheckResult
from .rationals import format_rational, parse_rational

__all__ = ["report_to_json", "report_from_json", "report_to_csv", "format_report_text"]

CSV_COLUMNS = ("id", *PARAM_NAMES, "lhs", "rhs", "residual", "holds", "skipped")


def _json_nested(value) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` renders it one level deep."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


# One result, keys sorted.
_BLOCK = ('    {\n      "holds": %s,\n      "id": %s,\n      "lhs": %s,\n      "params": %s,\n'
          '      "residual": %s,\n      "rhs": %s,\n      "skipped": %s\n    }')


def _templates(check_id: str, names: list[str]) -> tuple[str, str, list[str]]:
    """``_BLOCK`` for an evaluated and a skipped result, a %s per name; and the names."""
    literal = [json.dumps(text).replace("%", "%%") for text in (check_id, *names)]
    params = ",".join(f"\n        {name}: %s" for name in literal[1:])
    params = "{%s\n      }" % params if names else "{}"
    return (_BLOCK % ("%s", literal[0], '"%s"', params, '"%s"', '"%s"', "false"),
            _BLOCK % ("false", literal[0], "null", params, "null", "null", "true"), names)


def report_to_json(report: AuditReport) -> str:
    templates = {}
    blocks = []
    for r in report.results:
        params = r.params
        key = (r.id, *params)
        if key not in templates:
            templates[key] = _templates(r.id, sorted(params))
        evaluated, skipped, names = templates[key]
        values = [params[name] for name in names]
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


def _loaded_result(index: int, entry: dict) -> CheckResult:
    result = CheckResult(entry["id"], {name: int(v) for name, v in entry["params"].items()},
                         *[None if entry[key] is None else parse_rational(entry[key])
                           for key in ("lhs", "rhs", "residual")],
                         bool(entry["holds"]), bool(entry["skipped"]))
    fault = _fault(result)
    if fault:
        raise ValueError(f"result {index} ({result.id!r}): {fault}")
    return result


def report_from_json(text: str) -> AuditReport:
    """The report ``report_to_json`` wrote.

    Each entry must keep the ``CheckResult`` invariant: a skipped entry has
    null lhs, rhs and residual and does not hold; an evaluated one has all
    three, its residual is lhs - rhs, and it holds iff that is 0.  An entry
    that breaks it raises ValueError naming its index and id.
    """
    data = json.loads(text)
    results = tuple(_loaded_result(i, entry) for i, entry in enumerate(data["results"]))
    summary = {
        check_id: {k: int(v) for k, v in counts.items()}
        for check_id, counts in data["summary"].items()
    }
    return AuditReport(grid=data["grid"], results=results, summary=summary)


def report_to_csv(report: AuditReport) -> str:
    """One row per result, with a column per grid parameter name.

    A result with a param outside ``PARAM_NAMES`` (a loaded report can hold
    one) raises ValueError naming it: it has no column to go in.
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
