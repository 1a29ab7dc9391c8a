"""Regenerate FINDINGS.md from a fresh sweep of the whole check registry.

Where each check holds is declared once, in CLAIMS and RELATIONS below, and
asserted against the sweep before the document is written; the test suite
asserts the same tables on wider grids.  Run from a checkout:

    python demos/generate_findings.py
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dcsums import format_rational, registry_ids, standard_audit_grid, sweep  # noqa: E402

OUT = ROOT / "FINDINGS.md"

INTRO = """\
# Audit findings

This document records what exact rational evaluation finds for every check
in the identity registry, swept over the standard audit grid (`p` in
{3, 5, 7}; odd coprime `h, k <= 15`; `n <= 20`; `l <= 10`; odd `m <= 15`;
even `s <= 8`).  It is generated by `demos/generate_findings.py`; every
qualitative claim below is asserted against the sweep before being written.

Checks ending in `_printed` evaluate a claim exactly as printed in the
source material; `_corrected` variants evaluate the repaired form derived
and cross-checked by brute-force oracles.  A *residual* is the exact
rational `lhs - rhs` for one parameter tuple; an identity "holds" only when
every residual on the grid is exactly zero.

## Summary

| check | pass | fail | skip |
|---|---:|---:|---:|
"""


ALL, NONE = (lambda **params: True), (lambda **params: False)

# Where a check holds (ALL, NONE or a predicate over its params), the prose of
# its falsified section, and the (params, field, value) facts that prose quotes.
Claim = namedtuple("Claim", "holds prose facts", defaults=(None, ()))


def _facts(points, **fields):
    return tuple((params, f, v) for params in points for f, v in fields.items())


# One row per registry id, in the order of the audit registry's table; the rows
# with prose are the "Printed forms falsified" sections, in the same order.
CLAIMS = {
    "eq7_printed": Claim(
        lambda n, l: n == 1 and l % 2 == 0 and l > 0,
        "The sign on the polynomial term is wrong: the alternating power sum equals "
        "`E_l + (-1)^(n+1) E_l(n)`, not `E_l + (-1)^n E_l(n)`. The printed form only "
        "survives at n = 1 with even l >= 2, where the mis-signed term vanishes anyway.",
    ),
    "eq7_corrected": Claim(ALL),
    "eq10": Claim(ALL),
    "eq11": Claim(ALL),
    "eq12_13_printed": Claim(
        NONE,
        "The audited integral `int_0^1 x E_p(x) dx` is not 0; it equals "
        "`2 E_(p+2) / ((p+1)(p+2))` (the corrected variant).",
    ),
    "eq12_13_corrected": Claim(ALL),
    "lemma1_printed": Claim(
        NONE,
        "Same defect through the binomial-sum route: "
        "`sum_s C(p,s) E_s/(p-s+2)` is nonzero for every odd p swept.",
    ),
    "lemma1_corrected": Claim(ALL),
    "thm2_printed": Claim(
        lambda p, s: s != p + 1,
        "Under the printed range `s > p` (even s), both sides vanish for s >= p+2, but at "
        "the marginal point s = p+1 the left sum is 1 while the right side is 0.  The "
        "`s < p` range the derivation actually uses (thm2_slt) holds everywhere.",
        _facts([{"p": p, "s": p + 1} for p in range(3, 15, 2)], lhs=1, rhs=0),
    ),
    "thm2_slt": Claim(ALL),
    "thm3": Claim(
        NONE,
        "Fails at every tuple, including m = 1 (where T_p(1,1) = 0).  The closed form has "
        "a sign defect: the alternating power sum over u = 1..m-1 contributes "
        "`-(E_l(m) + E_l)`, not `E_l(m) - E_l`.",
        _facts([{"p": p, "m": 1} for p in range(1, 12, 2)], lhs=0, holds=False),
    ),
    "cor4": Claim(
        NONE,
        "Inherits the thm3 defect; its residual is exactly m^p times the thm3 residual "
        "at the same (p, m).",
    ),
    "prop5": Claim(
        NONE,
        "Algebraically equal to cor4 (residuals are identical tuple by tuple), so it "
        "fails the same way.",
    ),
    "thm6": Claim(NONE, "Fails at every tuple; it is derived from the defective thm3 chain."),
    "thm7": Claim(
        lambda p, h, k: k == 1 or h % k == 1,
        "Holds exactly when k = 1 or h = 1 (mod k), and fails otherwise. The derivation "
        "reindexes the sum by u -> hu mod k while keeping a factor E_s(u/k) fixed, which "
        "is only sound when hu = u (mod k).",
    ),
    "thm8_periodic": Claim(ALL),
    "thm8_poly": Claim(
        lambda p, h, k: min(h, k) == 1,
        "As printed (plain `E_p` instead of the periodic `Ebar_p` in the double sum) the "
        "identity holds only while every argument u/k + v/h stays below 1, i.e. exactly "
        "when min(h, k) = 1; it fails for all swept tuples with h, k >= 3.",
    ),
    "thm9": Claim(
        NONE,
        "The umbral right side does not reproduce `k^p T_p(h,k) + h^p T_p(k,h)` at any "
        "swept tuple, including the degenerate h = k = 1 (residual -7/4 at p = 3) and "
        "the regular h = 1, k = 3 (residual 93/4 at p = 3).",
        _facts([{"p": 3, "h": 1, "k": 1}], residual=Fraction(-7, 4))
        + _facts([{"p": 3, "h": 1, "k": 3}], residual=Fraction(93, 4)),
    ),
    "dedekind_recip": Claim(ALL),
}

# The section on the ALL rows of CLAIMS; tests/test_demos.py asserts that the
# **id** names in it are exactly those rows.
WHOLE_GRID = """\
## Identities that hold on the whole grid

- **eq10** (addition theorem), **eq11** (multiplication theorem, odd m),
  **eq7_corrected**, **eq12_13_corrected**, **lemma1_corrected**,
  **thm2_slt** (the even `s < p` range), and **dedekind_recip** (classical
  Dedekind reciprocity) hold with residual 0 at every evaluated tuple.
- **thm8_periodic** holds at every evaluated tuple: with the antiperiodic
  Euler function inside the double sum, the reciprocity identity
  `k^p T_p(h,k) + h^p T_p(k,h) = 2(hk)^p sum (-1)^(u+v-1) ((uh+vk)/(hk))
  Ebar_p(u/k + v/h)` is exact for all odd h, k swept.
"""

# (a, b, scale): at every tuple, a's residual is b's residual times scale(**params).
RELATIONS = (
    ("prop5", "cor4", lambda p, m: 1),
    ("cor4", "thm3", lambda p, m: m**p),
)


def assert_claims(report) -> int:
    """Assert every CLAIMS row and RELATIONS entry whose checks the report
    holds, pairing results by params; return how many facts were found."""
    live = {}
    for r in report.results:
        if not r.skipped:
            live.setdefault(r.id, {})[tuple(r.params.items())] = r
    found = 0
    for check_id, results in live.items():
        claim = CLAIMS[check_id]
        for r in results.values():
            assert r.holds == claim.holds(**r.params), (check_id, r.params)
        for params, field, value in claim.facts:
            r = results.get(tuple(params.items()))
            if r is not None:
                assert getattr(r, field) == value, (check_id, params, field)
                found += 1
    for a, b, scale in RELATIONS:
        if a in live and b in live:
            assert live[a].keys() == live[b].keys(), (a, b)
            for key, r in live[a].items():
                assert r.residual == live[b][key].residual * scale(**r.params), (a, b, key)
    return found


def sample_failures(results, check_id, limit=3):
    rows = [r for r in results if r.id == check_id and not r.skipped and not r.holds]
    lines = []
    for r in rows[:limit]:
        params = ", ".join(f"{k}={v}" for k, v in r.params.items())
        lines.append(f"  - ({params}): residual {format_rational(r.residual)}")
    return lines


def main() -> None:
    if not __debug__:
        sys.exit("error: python -O strips the asserts that check every claim; run without -O")
    report = sweep(registry_ids(), standard_audit_grid())
    assert_claims(report)

    # --- write the document --------------------------------------------------
    lines = [INTRO.rstrip("\n")]
    for check_id in registry_ids():
        counts = report.summary[check_id]
        lines.append(f"| {check_id} | {counts['pass']} | {counts['fail']} | {counts['skip']} |")

    lines.append("\n" + WHOLE_GRID + "\n## Printed forms falsified by exact evaluation\n")

    for check_id, claim in CLAIMS.items():
        if claim.prose is not None:
            counts = report.summary[check_id]
            lines += [f"### {check_id}", "", claim.prose, ""]
            lines.append(f"Grid outcome: {counts['pass']} pass, {counts['fail']} fail, "
                         f"{counts['skip']} skip.  Sample residuals:")
            lines += sample_failures(report.results, check_id) + [""]

    lines.append(
        "Reproduce this grid exactly with `python demos/run_identity_audit.py`\n"
        "(or regenerate the document with `python demos/generate_findings.py`).\n"
        "The `dcsums audit` CLI explores the same checks over rectangular\n"
        "`--pmax/--hmax/...` grids with `--odd-only` and `--coprime-only`\n"
        "filters."
    )

    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(report.results)} results)")


if __name__ == "__main__":
    main()
