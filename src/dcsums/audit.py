"""Registry of identity checks, evaluated exactly over parameter grids.

Each registered check pins one claim: a left side, a right side, and the
hypotheses under which the claim is asserted.  The registry is one table of
such rows, and a hypothesis or side that several claims share is written
once, as a named predicate or function their rows use.  Checks come in
``_printed`` form (the claim exactly as printed in the source material,
typos and all) and, where the printed form is falsified by exact
computation, a clearly separated ``_corrected`` variant established by
brute-force oracle.  The engine never conflates the two: the point of a
sweep is the exact rational residual of each instance, zero or not.

Residuals are always lhs - rhs, with lhs the side holding the sum being
characterized (a DC sum, a lattice sum, or the audited integral), so signs
are comparable across reports.  Tuples that violate a check's hypotheses
become ``skipped`` entries rather than failures, keeping grids rectangular.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Callable, Iterator, Mapping, Sequence

from .appell import Poly, euler_number, euler_poly, poly_integral
from .rationals import Rational, binomial
from .sums import alt_power_sum, dc_sum, dedekind_sum, theorem8_rhs
from .umbral import _umbral, lattice_power_sum, theorem9_rhs

__all__ = [
    "IdentityCheck",
    "CheckResult",
    "AuditReport",
    "ParamGrid",
    "REGISTRY",
    "registry_ids",
    "get_check",
    "run_check",
    "sweep",
    "standard_audit_grid",
]

# name -> (first value, default maximum) of each grid parameter's range.
_RANGES = {"p": (1, 7), "h": (1, 9), "k": (1, 9), "n": (1, 12), "l": (0, 8), "m": (1, 9),
           "s": (2, 8)}
PARAM_NAMES = tuple(_RANGES)


@dataclass(frozen=True)
class IdentityCheck:
    """One auditable claim: named integer params, hypotheses, two sides.

    ``hk_symmetric`` promises that both sides, as written, keep their values
    when h and k are exchanged, at every (h, k) whether or not the claim
    holds there.  ``sweep`` then evaluates a tuple whose (h, k) mirror it
    has already evaluated in the same walk from the mirror's two sides.
    A side that is symmetric only where the identity holds (thm7, thm9,
    eq10) must not carry the flag: that agreement is what the audit measures.
    """

    id: str
    param_names: tuple[str, ...]
    hypotheses: Callable[..., bool]
    lhs: Callable[..., Rational]
    rhs: Callable[..., Rational]
    description: str
    hk_symmetric: bool = False


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check instance; lhs/rhs/residual are None iff skipped."""

    id: str
    params: dict[str, int]
    lhs: Rational | None
    rhs: Rational | None
    residual: Rational | None
    holds: bool
    skipped: bool = False


@dataclass(frozen=True)
class AuditReport:
    """Deterministic collection of results plus per-id pass/fail/skip tallies."""

    grid: dict
    results: tuple[CheckResult, ...]
    summary: dict[str, dict[str, int]]


@dataclass(frozen=True)
class ParamGrid:
    """Finite value ranges per parameter name, with optional filters.

    ``odd_only`` restricts the modulus-like parameters h, k, m to odd
    values; ``coprime_only`` keeps only (h, k) pairs with gcd 1.  Each range
    is walked ascending, so tuples come out lexicographically in each
    check's declared name order.  A repeated value raises ValueError.
    """

    p_values: tuple[int, ...] = ()
    h_values: tuple[int, ...] = ()
    k_values: tuple[int, ...] = ()
    n_values: tuple[int, ...] = ()
    l_values: tuple[int, ...] = ()
    m_values: tuple[int, ...] = ()
    s_values: tuple[int, ...] = ()
    odd_only: bool = False
    coprime_only: bool = False

    @classmethod
    def from_maxima(
        cls, *, odd_only: bool = False, coprime_only: bool = False, **maxima: int
    ) -> "ParamGrid":
        """The grid of ``_RANGES``, each ``<name>max`` keyword replacing one default maximum."""
        ranges = {f"{name}_values": tuple(range(first, maxima.pop(f"{name}max", top) + 1))
                  for name, (first, top) in _RANGES.items()}
        if maxima:
            raise TypeError(
                f"from_maxima() got an unexpected keyword argument {next(iter(maxima))!r}")
        return cls(**ranges, odd_only=odd_only, coprime_only=coprime_only)

    def __post_init__(self) -> None:
        # A repeated value would evaluate its tuples twice and double their tallies.
        for name in PARAM_NAMES:
            values = getattr(self, f"{name}_values")
            if len(set(values)) != len(values):
                raise ValueError(f"repeated value in {name}_values: {tuple(values)}")

    def values_for(self, name: str) -> tuple[int, ...]:
        values: tuple[int, ...] = getattr(self, f"{name}_values")
        if self.odd_only and name in ("h", "k", "m"):
            values = tuple(v for v in values if v % 2 == 1)
        return values

    def iter_params(self, param_names: Sequence[str]) -> Iterator[dict[str, int]]:
        names = tuple(param_names)
        coprime = self.coprime_only and "h" in names and "k" in names
        for values in product(*(sorted(self.values_for(name)) for name in names)):
            params = dict(zip(names, values))
            if coprime and gcd(params["h"], params["k"]) != 1:
                continue
            yield params

    def description(self) -> dict:
        """JSON-ready description embedded in reports (lists, not tuples)."""
        out: dict = {name: list(self.values_for(name)) for name in PARAM_NAMES}
        out["odd_only"] = self.odd_only
        out["coprime_only"] = self.coprime_only
        return out


# ---------------------------------------------------------------------------
# Shared building blocks for the registered checks.

def _integral_01_x_times_euler(p: int) -> Fraction:
    # Exact int_0^1 x E_p(x) dx by term-wise polynomial integration.
    q = poly_integral(Poly([0, 1]) * euler_poly(p))
    return q.eval(1) - q.eval(0)


def _binomial_euler_sum(p: int) -> Fraction:
    return _umbral(p, euler_number, lambda j: Fraction(1, j + 2))


def _lemma1_corrected_value(p: int) -> Fraction:
    return 2 * euler_number(p + 2) / Fraction((p + 1) * (p + 2))


def _zero(p: int) -> Fraction:
    return Fraction(0)


def _scaled_dc_sum(p: int, m: int) -> Fraction:
    """m^p T_p(1,m), the left side of cor4, prop5 and thm6."""
    return m**p * dc_sum(p, 1, m)


def _reciprocity_lhs(p: int, h: int, k: int) -> Fraction:
    return k**p * dc_sum(p, h, k) + h**p * dc_sum(p, k, h)


def _derivative_sum_lhs(p: int, s: int) -> Fraction:
    return _umbral(p, euler_number, lambda j: binomial(j + 1, s))


def _derivative_sum_rhs(p: int, s: int) -> Fraction:
    c = binomial(p, s)
    if c == 0:
        # The vanishing binomial kills the term before the (negative-index)
        # Euler factor would ever be consulted.
        return Fraction(0)
    return -c * euler_number(p - s)


# The DC-sum sides below are (E + B)^p for a B^j built from index j = p - v.

def _dc_closed_form_rhs(p: int, m: int) -> Fraction:
    return _umbral(p, euler_number, lambda j: Fraction(
        euler_poly(j + 1).eval(m) - euler_number(j + 1), m ** (j + 1)))


def _dc_double_sum_rhs(p: int, m: int) -> Fraction:
    return _umbral(p, euler_number, lambda j: sum(
        (binomial(j + 1, i) * euler_number(i) * m ** (p - i) for i in range(j + 1)),
        Fraction(0)))


def _dc_split_sum_rhs(p: int, m: int) -> Fraction:
    # The middle sum runs over 1 <= i <= p - 2 and v <= p - i, that is i <= j.
    middle = _umbral(p, euler_number, lambda j: sum(
        (binomial(j + 1, i) * euler_number(i) * m ** (p - i)
         for i in range(1, min(j, p - 2) + 1)),
        Fraction(0)))
    return _umbral(p, euler_number, lambda j: 1) * m**p + middle + (p + 1) * euler_number(p)


def _closed_mixed_sum(p: int, x: int) -> Fraction:
    """sum_s C(p,s) x^(p-s) E_s E_(p-s)(1): thm7's lhs at x = hk; thm6's rhs is it + p E_p."""
    return _umbral(p, euler_number, lambda j: x**j * euler_poly(j).eval(1))


def _mixed_double_rhs(p: int, h: int, k: int) -> Fraction:
    """k^p sum_u (-1)^u sum_s C(p,s) h^s E_s(u/k) E_(p-s)(h - floor(hu/k)), as printed."""
    return lattice_power_sum(p, h, k, lambda u, j: -1 if u % 2 else 1)


def _addition_lhs(p: int, h: int, k: int) -> Fraction:
    x, y = Fraction(h, k), Fraction(k, h)
    return euler_poly(p).eval(x + y)


def _addition_rhs(p: int, h: int, k: int) -> Fraction:
    x, y = Fraction(h, k), Fraction(k, h)
    return _umbral(p, lambda s: euler_poly(s).eval(x), lambda j: y**j)


def _multiplication_lhs(p: int, m: int) -> Fraction:
    x = Fraction(1, 2 * m)
    return euler_poly(p).eval(m * x)


def _multiplication_rhs(p: int, m: int) -> Fraction:
    x = Fraction(1, 2 * m)
    total = Fraction(0)
    for s in range(m):
        term = euler_poly(p).eval(x + Fraction(s, m))
        total += term if s % 2 == 0 else -term
    return m**p * total


def _dedekind_recip_lhs(h: int, k: int) -> Fraction:
    return dedekind_sum(h, k) + dedekind_sum(k, h)


def _dedekind_recip_rhs(h: int, k: int) -> Fraction:
    return Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)


# ---------------------------------------------------------------------------
# Hypotheses: each assumption that several checks share is one predicate.

def _eq7_range(n: int, l: int) -> bool:
    return n >= 1 and l >= 0


def _odd_p(p: int) -> bool:
    return p >= 1 and p % 2 == 1


def _thm2_range(p: int, s: int) -> bool:
    return _odd_p(p) and s >= 2 and s % 2 == 0


def _odd_p_odd_m(p: int, m: int) -> bool:
    return _odd_p(p) and m >= 1 and m % 2 == 1


def _coprime(h: int, k: int) -> bool:
    return h >= 1 and k >= 1 and gcd(h, k) == 1


def _thm8_range(p: int, h: int, k: int) -> bool:
    return p > 1 and _odd_p(p) and h >= 1 and k >= 1 and h % 2 == 1 and k % 2 == 1


# ---------------------------------------------------------------------------
# The registry: one row per check.  Lambdas look library functions up when
# called, so wrappers bound over this module's globals see every call.

_CHECKS = (
    IdentityCheck("eq7_printed", ("n", "l"), _eq7_range, alt_power_sum,
                  lambda n, l: (-1) ** (n % 2) * euler_poly(l).eval(n) + euler_number(l),
                  "alternating power sum vs printed (-1)^n E_l(n) + E_l"),
    IdentityCheck("eq7_corrected", ("n", "l"), _eq7_range, alt_power_sum,
                  lambda n, l: (-1) ** ((n + 1) % 2) * euler_poly(l).eval(n) + euler_number(l),
                  "alternating power sum vs corrected (-1)^(n+1) E_l(n) + E_l"),
    IdentityCheck("eq10", ("p", "h", "k"), lambda p, h, k: p >= 0 and h >= 1 and k >= 1,
                  _addition_lhs, _addition_rhs,
                  "addition theorem E_p(x+y) = sum C(p,s) E_s(x) y^(p-s) at x=h/k, y=k/h"),
    IdentityCheck("eq11", ("p", "m"), lambda p, m: p >= 0 and m >= 1 and m % 2 == 1,
                  _multiplication_lhs, _multiplication_rhs,
                  "multiplication theorem for odd m, instantiated at x = 1/(2m)"),
    IdentityCheck("eq12_13_printed", ("p",), _odd_p, _integral_01_x_times_euler, _zero,
                  "exact int_0^1 x E_p(x) dx vs the printed value 0"),
    IdentityCheck("eq12_13_corrected", ("p",), _odd_p, _integral_01_x_times_euler,
                  _lemma1_corrected_value,
                  "exact int_0^1 x E_p(x) dx vs corrected 2E_(p+2)/((p+1)(p+2))"),
    IdentityCheck("lemma1_printed", ("p",), _odd_p, _binomial_euler_sum, _zero,
                  "sum C(p,s) E_s/(p-s+2) vs the printed value 0"),
    IdentityCheck("lemma1_corrected", ("p",), _odd_p, _binomial_euler_sum,
                  _lemma1_corrected_value,
                  "sum C(p,s) E_s/(p-s+2) vs corrected 2E_(p+2)/((p+1)(p+2))"),
    IdentityCheck("thm2_printed", ("p", "s"), lambda p, s: _thm2_range(p, s) and s > p,
                  _derivative_sum_lhs, _derivative_sum_rhs,
                  "derivative-at-1 sum identity under the printed range s > p"),
    IdentityCheck("thm2_slt", ("p", "s"), lambda p, s: _thm2_range(p, s) and s < p,
                  _derivative_sum_lhs, _derivative_sum_rhs,
                  "derivative-at-1 sum identity under the s < p range the derivation uses"),
    IdentityCheck("thm3", ("p", "m"), _odd_p_odd_m, lambda p, m: dc_sum(p, 1, m),
                  _dc_closed_form_rhs,
                  "T_p(1,m) vs closed form in E_v and E_(p-v+1)(m) - E_(p-v+1)"),
    IdentityCheck("cor4", ("p", "m"), _odd_p_odd_m, _scaled_dc_sum, _dc_double_sum_rhs,
                  "m^p T_p(1,m) vs the expanded double sum"),
    IdentityCheck("prop5", ("p", "m"), _odd_p_odd_m, _scaled_dc_sum, _dc_split_sum_rhs,
                  "m^p T_p(1,m) vs the split form ending in (p+1) E_p"),
    IdentityCheck("thm6", ("p", "m"), lambda p, m: p > 1 and _odd_p_odd_m(p, m),
                  _scaled_dc_sum, lambda p, m: _closed_mixed_sum(p, m) + p * euler_number(p),
                  "m^p T_p(1,m) vs sum C(p,i) E_(p-i)(1) E_i m^(p-i) + p E_p"),
    IdentityCheck("thm7", ("p", "h", "k"),
                  lambda p, h, k: p > 1 and _odd_p(p) and k % 2 == 1 and _coprime(h, k),
                  lambda p, h, k: _closed_mixed_sum(p, h * k), _mixed_double_rhs,
                  "closed mixed Euler sum vs the k^p weighted double sum"),
    IdentityCheck("thm8_periodic", ("p", "h", "k"), _thm8_range, _reciprocity_lhs,
                  lambda p, h, k: theorem8_rhs(p, h, k, periodic=True),
                  "k^p T_p(h,k) + h^p T_p(k,h) vs the double sum with the periodic Euler "
                  "function", hk_symmetric=True),
    IdentityCheck("thm8_poly", ("p", "h", "k"), _thm8_range, _reciprocity_lhs,
                  lambda p, h, k: theorem8_rhs(p, h, k, periodic=False),
                  "k^p T_p(h,k) + h^p T_p(k,h) vs the double sum as printed (plain E_p)",
                  hk_symmetric=True),
    IdentityCheck("thm9", ("p", "h", "k"),
                  lambda p, h, k: p > 1 and _odd_p(p) and _coprime(h, k),
                  _reciprocity_lhs, theorem9_rhs,
                  "k^p T_p(h,k) + h^p T_p(k,h) vs the umbral right side"),
    IdentityCheck("dedekind_recip", ("h", "k"), _coprime, _dedekind_recip_lhs,
                  _dedekind_recip_rhs,
                  "classical reciprocity S(h,k) + S(k,h) = -1/4 + (h^2+k^2+1)/(12hk)",
                  hk_symmetric=True),
)

REGISTRY: dict[str, IdentityCheck] = {check.id: check for check in _CHECKS}


def standard_audit_grid() -> ParamGrid:
    """The reference grid behind the bundled findings document.

    p in {3, 5, 7}; odd coprime h, k <= 15; n <= 20; l <= 10;
    odd m <= 15; even s <= 8.
    """
    return ParamGrid(
        p_values=(3, 5, 7),
        h_values=tuple(range(1, 16)),
        k_values=tuple(range(1, 16)),
        n_values=tuple(range(1, 21)),
        l_values=tuple(range(0, 11)),
        m_values=tuple(range(1, 16)),
        s_values=(2, 4, 6, 8),
        odd_only=True,
        coprime_only=True,
    )


def registry_ids() -> list[str]:
    """All registered check ids, sorted."""
    return sorted(REGISTRY)


def get_check(check_id: str) -> IdentityCheck:
    try:
        return REGISTRY[check_id]
    except KeyError:
        raise ValueError(f"unknown check id {check_id!r}") from None


def _evaluate(
    check: IdentityCheck,
    params: Mapping[str, int],
    seen: dict[tuple[int, ...], tuple[Fraction, Fraction]] | None = None,
) -> CheckResult:
    """One instance.  ``seen``, given for an hk_symmetric check, holds the
    sides of the tuples evaluated earlier in the walk; a tuple whose (h, k)
    mirror is there takes (and removes) those sides and computes its own
    residual."""
    ordered = {name: operator.index(params[name]) for name in check.param_names}
    if not check.hypotheses(**ordered):
        return CheckResult(check.id, ordered, None, None, None, False, True)
    sides = None
    if seen is not None:
        mirror = {**ordered, "h": ordered["k"], "k": ordered["h"]}
        sides = seen.pop(tuple(mirror.values()), None)
    if sides is None:
        sides = Fraction(check.lhs(**ordered)), Fraction(check.rhs(**ordered))
        if seen is not None:
            seen[tuple(ordered.values())] = sides
    lhs, rhs = sides
    residual = lhs - rhs
    return CheckResult(check.id, ordered, lhs, rhs, residual, residual == 0, False)


def _walk(check: IdentityCheck, grid: ParamGrid) -> Iterator[CheckResult]:
    """One check over the grid; an hk_symmetric check's sides live for this walk only."""
    seen: dict | None = {} if check.hk_symmetric else None
    for params in grid.iter_params(check.param_names):
        yield _evaluate(check, params, seen)


def run_check(check_id: str, params: Mapping[str, int]) -> CheckResult:
    """Evaluate one check instance exactly.

    Unknown ids raise ValueError; params must name exactly the check's
    parameters, each an int (a float or str raises TypeError, never
    truncated).  A tuple violating the hypotheses yields a skipped result.
    """
    check = get_check(check_id)
    if set(params) != set(check.param_names):
        raise ValueError(
            f"check {check_id!r} takes params {check.param_names}, got {tuple(params)}"
        )
    return _evaluate(check, params)


def sweep(ids: Sequence[str], grid: ParamGrid) -> AuditReport:
    """Evaluate every (id, tuple) over the grid into a deterministic report.

    Checks run in id order over ``iter_params``'s ordered walk, so results
    come out sorted by (id, params); the per-id summary tallies pass/fail/skip
    in the caller's id order.  A repeated id raises ValueError, since it
    would evaluate each of its tuples twice and double its tallies.

    For an ``hk_symmetric`` check, a tuple whose (h, k) mirror came earlier
    in the same check's walk reuses the mirror's exact lhs and rhs (the
    ascending walk meets h < k first); every result still carries its own
    params and residual, equal to what ``run_check`` gives.  The reuse is
    local to one call: nothing is kept between sweeps.
    """
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate check ids in {list(ids)}")
    checks = [get_check(check_id) for check_id in ids]
    results = tuple(
        result
        for check in sorted(checks, key=operator.attrgetter("id"))
        for result in _walk(check, grid)
    )
    summary: dict[str, dict[str, int]] = {
        check.id: {"pass": 0, "fail": 0, "skip": 0} for check in checks
    }
    for r in results:
        bucket = "skip" if r.skipped else ("pass" if r.holds else "fail")
        summary[r.id][bucket] += 1
    return AuditReport(grid=grid.description(), results=results, summary=summary)
