"""Registry of identity checks, evaluated exactly over parameter grids.

Each registered check pins one claim: a left side, a right side, and the
hypotheses under which it is asserted.  The registry is one table of such
rows; a hypothesis or side that several claims share is one named predicate
or function.  Checks come in ``_printed`` form (the claim exactly as
printed, typos and all) and, where exact computation falsifies it, a
separate ``_corrected`` variant established by brute-force oracle.  The
point of a sweep is the exact rational residual of each instance, zero or
not.

Residuals are always lhs - rhs, with lhs the side holding the sum being
characterized (a DC sum, a lattice sum, or the audited integral), so signs
are comparable across reports.  Tuples that violate a check's hypotheses
become ``skipped`` entries rather than failures, keeping grids rectangular.
Each side builds one ``Fraction`` from integers, on the integer side
protocol of ``umbral``.  The engine keeps the values a side returns,
compares their integer ratios, and builds a failing residual as one
``Fraction`` from them; results are named tuples.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, lcm
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .appell import Poly, _euler_ints, _horner, euler_number, euler_poly, poly_integral
from .moments import _kept_in
from .rationals import Rational
from .sums import _dc_line, alt_power_sum, dc_sum, dedekind_sum, theorem8_rhs
from .umbral import (_euler_pairs, _pair_sum, _shifted_euler_power, _umbral, lattice_power_sum,
                     theorem9_rhs)

__all__ = ["IdentityCheck", "CheckResult", "AuditReport", "ParamGrid", "REGISTRY", "registry_ids",
           "get_check", "run_check", "sweep", "standard_audit_grid"]

# name -> (first value, default maximum) of each grid parameter's range.
_RANGES = {"p": (1, 7), "h": (1, 9), "k": (1, 9), "n": (1, 12), "l": (0, 8), "m": (1, 9),
           "s": (2, 8)}
PARAM_NAMES = tuple(_RANGES)


@dataclass(frozen=True)
class IdentityCheck:
    """One auditable claim: named integer params, hypotheses, two sides.

    The hypotheses and both sides take the params positionally, in
    ``param_names`` order.  ``hk_symmetric`` names the sides ("lhs", "rhs")
    that, as written, keep their values when h and k are exchanged, at every
    (h, k) whether or not the claim holds there; ``sweep`` evaluates such a
    side once per unordered pair.  A side that is symmetric only where the
    identity holds (the right sides of thm7 and thm9) must not be named:
    that agreement is what the audit measures.
    """

    id: str
    param_names: tuple[str, ...]
    hypotheses: Callable[..., bool]
    lhs: Callable[..., Rational]
    rhs: Callable[..., Rational]
    description: str
    hk_symmetric: tuple[str, ...] = ()


class CheckResult(NamedTuple):
    """One check instance's outcome; lhs/rhs/residual are None and holds False iff skipped."""

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
        for values in self._walk(names):
            yield dict(zip(names, values))

    def _walk(self, names: tuple[str, ...]) -> Iterator[tuple[int, ...]]:
        """The value tuples of ``iter_params``; a value that is no int raises TypeError."""
        walk = product(*(sorted(map(operator.index, self.values_for(name))) for name in names))
        if self.coprime_only and "h" in names and "k" in names:
            h, k = names.index("h"), names.index("k")
            walk = (values for values in walk if gcd(values[h], values[k]) == 1)
        return walk

    def description(self) -> dict:
        """JSON-ready description embedded in reports (lists, not tuples)."""
        out: dict = {name: list(self.values_for(name)) for name in PARAM_NAMES}
        out["odd_only"] = self.odd_only
        out["coprime_only"] = self.coprime_only
        return out


# Shared building blocks for the registered checks.

def _integral_01_x_times_euler(p: int) -> Fraction:
    # Exact int_0^1 x E_p(x) dx by term-wise polynomial integration.
    q = poly_integral(Poly([0, 1]) * euler_poly(p))
    return q.eval(1) - q.eval(0)


def _binomial_euler_sum(p: int) -> Fraction:
    return Fraction(*_umbral(p, _euler_pairs(p), lambda j: (1, j + 2)))


def _lemma1_corrected_value(p: int) -> Fraction:
    return 2 * euler_number(p + 2) / Fraction((p + 1) * (p + 2))


_ZERO = Fraction(0)


def _zero(p: int) -> Fraction:
    return _ZERO


def _plus_euler_number(side: tuple[int, int], c: int, p: int) -> Fraction:
    """The pair side plus c E_p, as one Fraction."""
    return Fraction(*_pair_sum([side, (c * _euler_ints(p)[p], 1 << p)]))


def _scaled_dc_sum(p: int, m: int) -> Fraction:
    """m^p T_p(1,m), the left side of cor4, prop5 and thm6."""
    return m**p * dc_sum(p, 1, m)


def _reciprocity_lhs(p: int, h: int, k: int) -> Fraction:
    # k^p T_p(h,k) + h^p T_p(k,h) = 2 (h S(h,k) + k S(k,h)) / (D hk 2^p), S the line sum.
    return Fraction(2 * (h * _dc_line(p, h, k) + k * _dc_line(p, k, h)),
                    euler_poly(p).den * h * k << p)


def _derivative_sum_lhs(p: int, s: int) -> Fraction:
    return Fraction(*_umbral(p, _euler_pairs(p), lambda j: (comb(j + 1, s), 1)))


def _derivative_sum_rhs(p: int, s: int) -> Fraction:
    # -C(p,s) E_(p-s); at s > p C(p,s) vanishes before E_(p-s) is read.
    return -comb(p, s) * euler_number(p - s) if s <= p else _ZERO


# The DC-sum sides below are (E + B)^p for a B^j built from index j = p - v.

def _dc_closed_form_rhs(p: int, m: int) -> Fraction:
    def b(j: int) -> tuple[int, int]:  # (E_(j+1)(m) - E_(j+1)) / m^(j+1)
        poly = euler_poly(j + 1)
        num, den = poly.ratio(m)
        return num - poly.num[0], den * m ** (j + 1)

    return Fraction(*_umbral(p, _euler_pairs(p), b))


def _euler_row(p: int, m: int, j: int, first: int, last: int) -> tuple[int, int]:
    """sum_{i=first}^{last} C(j+1,i) E_i m^(p-i), as a pair over 2^p."""
    e = _euler_ints(p)
    return sum([comb(j + 1, i) * e[i] * m ** (p - i) << (p - i)
                for i in range(first, last + 1)]), 1 << p


def _dc_double_sum_rhs(p: int, m: int) -> Fraction:
    return Fraction(*_umbral(p, _euler_pairs(p), lambda j: _euler_row(p, m, j, 0, j)))


def _dc_split_sum_rhs(p: int, m: int) -> Fraction:
    # (E + 1)^p m^p + the middle sum over 1 <= i <= p - 2 and v <= p - i,
    # that is i <= j, + (p+1) E_p; the first two share one convolution.
    def b(j: int) -> tuple[int, int]:
        num, den = _euler_row(p, m, j, 1, min(j, p - 2))
        return (m**p << p) + num, den

    return _plus_euler_number(_umbral(p, _euler_pairs(p), b), p + 1, p)


def _alternating(u: int, j: int) -> int:
    """thm7's weight (-1)^u: one object, so a sweep keeps one moment vector per (h, k)."""
    return -1 if u % 2 else 1


def _mixed_double_rhs(p: int, h: int, k: int) -> Fraction:
    """k^p sum_u (-1)^u sum_s C(p,s) h^s E_s(u/k) E_(p-s)(h - floor(hu/k)), as printed."""
    return Fraction(*lattice_power_sum(p, h, k, _alternating))


def _addition_lhs(p: int, h: int, k: int) -> Fraction:
    # E_p(x + y) at x = h/k, y = k/h.
    return Fraction(*euler_poly(p).ratio(h * h + k * k, h * k))


def _addition_rhs(p: int, h: int, k: int) -> Fraction:
    # sum_s C(p,s) E_s(h/k) (k/h)^(p-s) over L h^p k^p, L the lcm of E_s(x)'s denominators.
    polys = list(map(euler_poly, range(p + 1)))
    den = lcm(*[e.den for e in polys])
    return Fraction(sum([comb(p, s) * e.ratio(h, k)[0] * (den // e.den) * h**s * k ** (2 * (p - s))
                         for s, e in enumerate(polys)]), den * h**p * k**p)


def _eq7_rhs(sign: int, n: int, l: int) -> Fraction:
    """sign E_l(n) + E_l."""
    poly = euler_poly(l)
    num, den = poly.ratio(n)
    return Fraction(sign * num + poly.num[0], den)


def _multiplication_lhs(p: int, m: int) -> Fraction:
    # E_p(m x) at x = 1/(2m).
    return Fraction(*euler_poly(p).ratio(m, 2 * m))


def _multiplication_rhs(p: int, m: int) -> Fraction:
    # m^p sum_s (-1)^s E_p(x + s/m) at x = 1/(2m): the points (2s + 1)/(2m)
    # share one scaled vector, and m^p cancels to 2^p in the denominator.
    poly = euler_poly(p)
    b = poly.scaled(2 * m)
    total = sum((-1) ** s * _horner(b, 2 * s + 1) for s in range(m))
    return Fraction(total, poly.den << p)


def _dedekind_recip_lhs(h: int, k: int) -> Fraction:
    return dedekind_sum(h, k) + dedekind_sum(k, h)


def _dedekind_recip_rhs(h: int, k: int) -> Fraction:
    return Fraction(h * h + k * k + 1 - 3 * h * k, 12 * h * k)  # -1/4 + (h^2+k^2+1)/(12hk)


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


# The registry: one row per check.  Lambdas look library functions up when
# called, so wrappers bound over this module's globals see every call.

_CHECKS = (
    IdentityCheck("eq7_printed", ("n", "l"), _eq7_range, alt_power_sum,
                  lambda n, l: _eq7_rhs((-1) ** (n % 2), n, l),
                  "alternating power sum vs printed (-1)^n E_l(n) + E_l"),
    IdentityCheck("eq7_corrected", ("n", "l"), _eq7_range, alt_power_sum,
                  lambda n, l: _eq7_rhs((-1) ** ((n + 1) % 2), n, l),
                  "alternating power sum vs corrected (-1)^(n+1) E_l(n) + E_l"),
    IdentityCheck("eq10", ("p", "h", "k"), lambda p, h, k: p >= 0 and h >= 1 and k >= 1,
                  _addition_lhs, _addition_rhs,
                  "addition theorem E_p(x+y) = sum C(p,s) E_s(x) y^(p-s) at x=h/k, y=k/h",
                  hk_symmetric=("lhs",)),
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
                  _scaled_dc_sum,
                  lambda p, m: _plus_euler_number(_shifted_euler_power(p, m), p, p),
                  "m^p T_p(1,m) vs sum C(p,i) E_(p-i)(1) E_i m^(p-i) + p E_p"),
    IdentityCheck("thm7", ("p", "h", "k"),
                  lambda p, h, k: p > 1 and _odd_p(p) and k % 2 == 1 and _coprime(h, k),
                  lambda p, h, k: Fraction(*_shifted_euler_power(p, h * k)), _mixed_double_rhs,
                  "closed mixed Euler sum vs the k^p weighted double sum", hk_symmetric=("lhs",)),
    IdentityCheck("thm8_periodic", ("p", "h", "k"), _thm8_range, _reciprocity_lhs,
                  lambda p, h, k: theorem8_rhs(p, h, k, periodic=True),
                  "k^p T_p(h,k) + h^p T_p(k,h) vs the double sum with the periodic Euler "
                  "function", hk_symmetric=("lhs", "rhs")),
    IdentityCheck("thm8_poly", ("p", "h", "k"), _thm8_range, _reciprocity_lhs,
                  lambda p, h, k: theorem8_rhs(p, h, k, periodic=False),
                  "k^p T_p(h,k) + h^p T_p(k,h) vs the double sum as printed (plain E_p)",
                  hk_symmetric=("lhs", "rhs")),
    IdentityCheck("thm9", ("p", "h", "k"),
                  lambda p, h, k: p > 1 and _odd_p(p) and _coprime(h, k),
                  _reciprocity_lhs, theorem9_rhs,
                  "k^p T_p(h,k) + h^p T_p(k,h) vs the umbral right side", hk_symmetric=("lhs",)),
    IdentityCheck("dedekind_recip", ("h", "k"), _coprime, _dedekind_recip_lhs,
                  _dedekind_recip_rhs,
                  "classical reciprocity S(h,k) + S(k,h) = -1/4 + (h^2+k^2+1)/(12hk)",
                  hk_symmetric=("lhs", "rhs")),
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


def _evaluate(check: IdentityCheck, values: tuple[int, ...], lhs: Callable[..., Rational],
              rhs: Callable[..., Rational]) -> CheckResult:
    """One instance at ``values`` (in ``param_names`` order), with ``lhs`` and ``rhs`` as sides."""
    params = dict(zip(check.param_names, values))
    if not check.hypotheses(*values):
        return CheckResult(check.id, params, None, None, None, False, True)
    left, right = lhs(*values), rhs(*values)
    (a, b), (c, d) = left.as_integer_ratio(), right.as_integer_ratio()
    holds = a == c and b == d
    return CheckResult(check.id, params, left, right,
                       _ZERO if holds else Fraction(a * d - b * c, b * d), holds)


def _tabled(check: IdentityCheck, name: str, values_of: dict[tuple[int, ...], Rational]
            ) -> Callable[..., Rational]:
    """The side ``name`` of ``check``, looked up in and kept in ``values_of``.

    A side named in ``hk_symmetric`` is keyed with h <= k, so a tuple finds
    the value of its (h, k) mirror.
    """
    side = getattr(check, name)
    h = k = 0  # an undeclared side compares a value with itself: no mirror
    if name in check.hk_symmetric:
        h, k = check.param_names.index("h"), check.param_names.index("k")
        order = list(range(len(check.param_names)))
        order[h], order[k] = k, h
        mirror = operator.itemgetter(*order)

    def tabled(*values: int) -> Rational:
        key = mirror(values) if values[h] > values[k] else values
        value = values_of.get(key)
        if value is None:
            value = values_of[key] = side(*values)
        return value

    return tabled


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
    values = tuple(operator.index(params[name]) for name in check.param_names)
    return _evaluate(check, values, check.lhs, check.rhs)


def sweep(ids: Sequence[str], grid: ParamGrid) -> AuditReport:
    """Evaluate every (id, tuple) over the grid into a deterministic report.

    Checks run in id order.  Results come out in ``iter_params``'s walk, so
    they are sorted by (id, params); each check's pass/fail/skip tally is
    taken over its block, and the summary keeps the caller's id order.  A
    repeated id raises ValueError: it would double its tuples and tallies.

    One side table, local to the call, evaluates each distinct side value
    once: a side function that several checks share, at the same params,
    and a side named in ``hk_symmetric`` at the (h, k) mirror of another
    tuple.  Such a side keeps every value it computes until the call
    returns, and nothing is kept between sweeps; every result equals what
    ``run_check`` gives.  For the length of the call the kernels keep their
    moment vectors in the same table (``moments._kept_in``).  A check is
    evaluated from the last tuple of its walk to the first: p leads the
    params of every check that reaches a moment kernel, so the first walk
    of a point set is at its largest p and serves every smaller one.
    """
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate check ids in {list(ids)}")
    walk = sorted(map(get_check, ids), key=operator.attrgetter("id"))
    uses = Counter(side for check in walk for side in (check.lhs, check.rhs))
    table: dict = {}  # side -> {params: value}, and the kernels' moment vectors
    results: list[CheckResult] = []
    summary: dict[str, dict[str, int]] = dict.fromkeys(ids)
    with _kept_in(table):
        for check in walk:
            lhs, rhs = (
                _tabled(check, name, table.setdefault(side, {}))
                if uses[side] > 1 or name in check.hk_symmetric else side
                for name, side in (("lhs", check.lhs), ("rhs", check.rhs))
            )
            block = [_evaluate(check, values, lhs, rhs)
                     for values in [*grid._walk(check.param_names)][::-1]][::-1]
            held, skip = sum([r.holds for r in block]), sum([r.skipped for r in block])
            summary[check.id] = {"pass": held, "fail": len(block) - held - skip, "skip": skip}
            results += block
    return AuditReport(grid=grid.description(), results=tuple(results), summary=summary)
