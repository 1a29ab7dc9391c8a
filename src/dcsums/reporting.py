"""Schema-stable JSON/CSV/text serialization of audit reports.

Rationals travel as canonical strings (``"13/54"``), never floats.  JSON
serialization is byte-deterministic: the layout of ``json.dumps(...,
sort_keys=True, indent=2)``, which ``report_to_json`` writes directly, one
f-string block per result, leaving only the small ``grid`` and ``summary``
dicts to ``json``.  ``report_from_json(report_to_json(r))`` reproduces the
report field for field.  Skipped entries carry null lhs/rhs/residual — no
value exists for them.  CSV rows mirror the JSON results one to one, in the
same order.
"""

from __future__ import annotations

import csv
import io
import json

from .audit import PARAM_NAMES, AuditReport, CheckResult
from .rationals import format_rational, parse_rational

__all__ = [
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "format_report_text",
]

CSV_COLUMNS = ("id", *PARAM_NAMES, "lhs", "rhs", "residual", "holds", "skipped")


def _fmt(value) -> str | None:
    return None if value is None else format_rational(value)


def _json_nested(value) -> str:
    """``value`` as ``json.dumps(sort_keys=True, indent=2)`` renders it one level deep."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")


def _json_rational(q) -> str:
    return "null" if q is None else f'"{format_rational(q)}"'


def _json_result(r: CheckResult) -> str:
    # Keys in sorted order.  Parameter names and canonical rationals need no
    # JSON escapes; an id, which a loaded report may carry, goes through json.
    params = ",".join(f'\n        "{name}": {r.params[name]}' for name in sorted(r.params))
    if params:
        params += "\n      "
    return (
        "    {\n"
        f'      "holds": {"true" if r.holds else "false"},\n'
        f'      "id": {json.dumps(r.id)},\n'
        f'      "lhs": {_json_rational(r.lhs)},\n'
        f'      "params": {{{params}}},\n'
        f'      "residual": {_json_rational(r.residual)},\n'
        f'      "rhs": {_json_rational(r.rhs)},\n'
        f'      "skipped": {"true" if r.skipped else "false"}\n'
        "    }"
    )


def report_to_json(report: AuditReport) -> str:
    results = ",\n".join(map(_json_result, report.results))
    if results:
        results = f"\n{results}\n  "
    return (
        f'{{\n  "grid": {_json_nested(report.grid)},\n'
        f'  "results": [{results}],\n'
        f'  "summary": {_json_nested(report.summary)}\n}}\n'
    )


def report_from_json(text: str) -> AuditReport:
    data = json.loads(text)
    results = tuple(
        CheckResult(
            id=entry["id"],
            params={name: int(v) for name, v in entry["params"].items()},
            lhs=None if entry["lhs"] is None else parse_rational(entry["lhs"]),
            rhs=None if entry["rhs"] is None else parse_rational(entry["rhs"]),
            residual=(
                None if entry["residual"] is None else parse_rational(entry["residual"])
            ),
            holds=bool(entry["holds"]),
            skipped=bool(entry["skipped"]),
        )
        for entry in data["results"]
    )
    summary = {
        check_id: {k: int(v) for k, v in counts.items()}
        for check_id, counts in data["summary"].items()
    }
    return AuditReport(grid=data["grid"], results=results, summary=summary)


def report_to_csv(report: AuditReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.results:
        row = [r.id]
        row += [str(r.params[name]) if name in r.params else "" for name in PARAM_NAMES]
        row += [
            _fmt(r.lhs) or "",
            _fmt(r.rhs) or "",
            _fmt(r.residual) or "",
            "true" if r.holds else "false",
            "true" if r.skipped else "false",
        ]
        writer.writerow(row)
    return buf.getvalue()


def _result_line(r: CheckResult) -> str:
    params = ", ".join(f"{k}={v}" for k, v in r.params.items())
    if r.skipped:
        return f"SKIP  {r.id}({params})"
    status = "ok  " if r.holds else "FAIL"
    line = f"{status}  {r.id}({params})  lhs={_fmt(r.lhs)}  rhs={_fmt(r.rhs)}"
    if not r.holds:
        line += f"  residual={_fmt(r.residual)}"
    return line


def format_report_text(report: AuditReport) -> str:
    lines = [_result_line(r) for r in report.results]
    lines.append("")
    for check_id in sorted(report.summary):
        counts = report.summary[check_id]
        lines.append(
            f"{check_id}: pass={counts['pass']} fail={counts['fail']} skip={counts['skip']}"
        )
    total_fail = sum(c["fail"] for c in report.summary.values())
    lines.append("")
    lines.append("all checks hold" if total_fail == 0 else f"{total_fail} failing instances")
    return "\n".join(lines) + "\n"
