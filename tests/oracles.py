"""Independent oracles used to derive (and re-derive) expected test values.

Everything here is deliberately built from scratch: Euler/Bernoulli values
come from truncated power-series division of the generating functions plus
a Pascal-triangle binomial, and every sum is a direct enumeration.  None of
it shares code with the package's production paths, so agreement between
the two is evidence, not tautology.  The pure functions ``pascal``,
``euler_value`` and ``dc`` are memoized.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

ORACLE_DEPTH = 40


@lru_cache(maxsize=None)
def pascal(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def _series_quot(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    q: list[Fraction] = []
    for n in range(len(num)):
        s = num[n]
        for i in range(n):
            s -= q[i] * den[n - i]
        q.append(s / den[0])
    return q


def series_coeffs_oracle(n_max: int, kind: str, x=0) -> list[Fraction]:
    """Values [E_0(x), ..., E_{n_max}(x)] (or B_n(x)) from the generating series.

    Computes the first n_max+1 Taylor coefficients of 2e^{xt}/(e^t+1)
    (kind='euler') or t e^{xt}/(e^t-1) (kind='bernoulli', rewritten as
    e^{xt} / ((e^t-1)/t)) by exact truncated power-series division, then
    scales by n!.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    x = Fraction(x)
    if kind == "euler":
        num = [2 * x**n / factorial(n) for n in range(n_max + 1)]
        den = [Fraction(1, factorial(n)) for n in range(n_max + 1)]
        den[0] += 1
    elif kind == "bernoulli":
        num = [x**n / factorial(n) for n in range(n_max + 1)]
        den = [Fraction(1, factorial(n + 1)) for n in range(n_max + 1)]
    else:
        raise ValueError(f"kind must be 'euler' or 'bernoulli', got {kind!r}")
    q = _series_quot(num, den)
    return [q[n] * factorial(n) for n in range(n_max + 1)]


def _euler_numbers_series(n_max: int) -> list[Fraction]:
    # The benchmark's oracle for `dcsums eulernum` (perfbench/workloads.py).
    return series_coeffs_oracle(n_max, "euler")


EULER_NUMBERS = _euler_numbers_series(ORACLE_DEPTH)
BERNOULLI_NUMBERS = series_coeffs_oracle(ORACLE_DEPTH, "bernoulli")


# Bounded: a direct sum over a large k (dc, t9_rhs) evaluates tens of
# thousands of distinct points once each, and an unbounded memo keeps them
# all.  1024 entries keep 35 408 of the 37 342 hits that one check_sides pass
# over the standard-grid report gets from an unbounded one.
@lru_cache(maxsize=1024)
def euler_value(p: int, x) -> Fraction:
    """E_p(x) from series-derived numbers and the Pascal-triangle binomial."""
    x = Fraction(x)
    return sum(
        (pascal(p, l) * EULER_NUMBERS[l] * x ** (p - l) for l in range(p + 1)),
        Fraction(0),
    )


def bernoulli_value(p: int, x) -> Fraction:
    x = Fraction(x)
    return sum(
        (pascal(p, l) * BERNOULLI_NUMBERS[l] * x ** (p - l) for l in range(p + 1)),
        Fraction(0),
    )


def floor_of(x) -> int:
    x = Fraction(x)
    return x.numerator // x.denominator


def frac_of(x) -> Fraction:
    x = Fraction(x)
    return x - floor_of(x)


def saw(x) -> Fraction:
    fr = frac_of(x)
    return Fraction(0) if fr == 0 else fr - Fraction(1, 2)


def ebar(p: int, x) -> Fraction:
    value = euler_value(p, frac_of(x))
    return -value if floor_of(x) % 2 else value


def bbar(p: int, x) -> Fraction:
    return bernoulli_value(p, frac_of(x))


def dedekind(h: int, k: int) -> Fraction:
    return sum(
        (saw(Fraction(u, k)) * saw(Fraction(h * u, k)) for u in range(1, k)),
        Fraction(0),
    )


def dedekind_euclid(h: int, k: int) -> Fraction:
    """S(h,k) for coprime h >= 0, k >= 1 in O(log k) steps, by the Euclidean algorithm.

    S(h,k) = S(h mod k, k), and reciprocity S(h,k) + S(k,h) = -1/4 +
    (h^2 + k^2 + 1)/(12hk) swaps the arguments down to S(0, 1) = 0
    (Rademacher & Grosswald, Dedekind Sums, 1972; Knuth, TAOCP vol. 2,
    3.3.3).  No term of the defining sum is evaluated.
    """
    total, sign = Fraction(0), 1
    h %= k
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign = -sign
        h, k = k % h, h
    return total


def gen_dedekind(p: int, h: int, k: int) -> Fraction:
    return sum(
        (Fraction(a, k) * bbar(p, Fraction(a * h, k)) for a in range(1, k)),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def dc(p: int, h: int, k: int) -> Fraction:
    total = Fraction(0)
    for u in range(1, k):
        sign = 1 if u % 2 else -1
        total += sign * Fraction(u, k) * ebar(p, Fraction(h * u, k))
    return 2 * total


def alt_sum(n: int, l: int) -> Fraction:
    total = 0
    for k in range(n):
        term = k**l
        total += term if k % 2 == 0 else -term
    return Fraction(2 * total)


def t8_rhs(p: int, h: int, k: int, periodic: bool) -> Fraction:
    total = Fraction(0)
    for u in range(k):
        for v in range(h):
            sign = -1 if (u + v) % 2 == 0 else 1
            arg = Fraction(u, k) + Fraction(v, h)
            value = ebar(p, arg) if periodic else euler_value(p, arg)
            total += sign * Fraction(u * h + v * k, h * k) * value
    return 2 * (h * k) ** p * total


def upow2(a, xa, b, xb, p: int) -> Fraction:
    """(a(E + xa) + b(E' + xb))^p, expanded term by term."""
    a, b = Fraction(a), Fraction(b)
    return sum(
        (
            pascal(p, s) * a**s * euler_value(s, xa) * b ** (p - s) * euler_value(p - s, xb)
            for s in range(p + 1)
        ),
        Fraction(0),
    )


def t9_rhs(p: int, h: int, k: int) -> Fraction:
    total = Fraction(0)
    for u in range(k):
        j = (h * u) // k
        if (u - j) % 2 == 1:
            total += upow2(k * h, Fraction(u, k), k, Fraction(h - j), p)
    return 2 * total + upow2(h, 0, k, 0, p) + (p + 2) * EULER_NUMBERS[p]


def reciprocity_lhs(p: int, h: int, k: int) -> Fraction:
    return k**p * dc(p, h, k) + h**p * dc(p, k, h)


def integral_01_x_euler(p: int) -> Fraction:
    """int_0^1 x E_p(x) dx by term-wise integration of the binomial form."""
    return sum(
        (pascal(p, s) * EULER_NUMBERS[s] / Fraction(p - s + 2) for s in range(p + 1)),
        Fraction(0),
    )


# --- per-check recomputation, mirroring the registry on these primitives ---

def check_sides(check_id: str, params: dict[str, int]) -> tuple[Fraction, Fraction]:
    """Recompute (lhs, rhs) for a registered check id, independently."""
    p = params.get("p")
    h = params.get("h")
    k = params.get("k")
    n = params.get("n")
    l = params.get("l")
    m = params.get("m")
    s = params.get("s")
    if check_id == "eq7_printed":
        return alt_sum(n, l), (-1) ** (n % 2) * euler_value(l, n) + EULER_NUMBERS[l]
    if check_id == "eq7_corrected":
        return alt_sum(n, l), (-1) ** ((n + 1) % 2) * euler_value(l, n) + EULER_NUMBERS[l]
    if check_id == "eq10":
        x, y = Fraction(h, k), Fraction(k, h)
        rhs = sum(
            (pascal(p, i) * euler_value(i, x) * y ** (p - i) for i in range(p + 1)),
            Fraction(0),
        )
        return euler_value(p, x + y), rhs
    if check_id == "eq11":
        x = Fraction(1, 2 * m)
        rhs = m**p * sum(
            ((-1) ** (i % 2) * euler_value(p, x + Fraction(i, m)) for i in range(m)),
            Fraction(0),
        )
        return euler_value(p, m * x), rhs
    if check_id in ("eq12_13_printed", "eq12_13_corrected", "lemma1_printed", "lemma1_corrected"):
        lhs = integral_01_x_euler(p)
        rhs = (
            Fraction(0)
            if check_id.endswith("printed")
            else 2 * EULER_NUMBERS[p + 2] / Fraction((p + 1) * (p + 2))
        )
        return lhs, rhs
    if check_id in ("thm2_printed", "thm2_slt"):
        lhs = sum(
            (
                Fraction(pascal(p, v) * pascal(p - v + 1, s)) * EULER_NUMBERS[v]
                for v in range(p + 1)
            ),
            Fraction(0),
        )
        c = pascal(p, s)
        rhs = Fraction(0) if c == 0 else -c * EULER_NUMBERS[p - s]
        return lhs, rhs
    if check_id == "thm3":
        rhs = sum(
            (
                pascal(p, v)
                * EULER_NUMBERS[v]
                * Fraction(1, m ** (p + 1 - v))
                * (euler_value(p - v + 1, m) - EULER_NUMBERS[p - v + 1])
                for v in range(p + 1)
            ),
            Fraction(0),
        )
        return dc(p, 1, m), rhs
    if check_id == "cor4":
        rhs = sum(
            (
                pascal(p, v)
                * EULER_NUMBERS[v]
                * sum(
                    (
                        Fraction(pascal(p - v + 1, i)) * EULER_NUMBERS[i] * m ** (p - i)
                        for i in range(p - v + 1)
                    ),
                    Fraction(0),
                )
                for v in range(p + 1)
            ),
            Fraction(0),
        )
        return m**p * dc(p, 1, m), rhs
    if check_id == "prop5":
        lead = m**p * sum(
            (Fraction(pascal(p, v)) * EULER_NUMBERS[v] for v in range(p + 1)),
            Fraction(0),
        )
        middle = Fraction(0)
        for i in range(1, p - 1):
            for v in range(p - i + 1):
                middle += (
                    pascal(p, v)
                    * EULER_NUMBERS[v]
                    * pascal(p - v + 1, i)
                    * EULER_NUMBERS[i]
                    * m ** (p - i)
                )
        return m**p * dc(p, 1, m), lead + middle + (p + 1) * EULER_NUMBERS[p]
    if check_id == "thm6":
        rhs = sum(
            (
                pascal(p, i) * euler_value(p - i, 1) * EULER_NUMBERS[i] * m ** (p - i)
                for i in range(p + 1)
            ),
            Fraction(0),
        ) + p * EULER_NUMBERS[p]
        return m**p * dc(p, 1, m), rhs
    if check_id == "thm7":
        lhs = sum(
            (
                pascal(p, i)
                * k ** (p - i)
                * EULER_NUMBERS[i]
                * h ** (p - i)
                * euler_value(p - i, 1)
                for i in range(p + 1)
            ),
            Fraction(0),
        )
        rhs = Fraction(0)
        for u in range(k):
            inner = sum(
                (
                    pascal(p, i)
                    * h**i
                    * euler_value(i, Fraction(u, k))
                    * euler_value(p - i, h - (h * u) // k)
                    for i in range(p + 1)
                ),
                Fraction(0),
            )
            rhs += inner if u % 2 == 0 else -inner
        return lhs, k**p * rhs
    if check_id == "thm8_periodic":
        return reciprocity_lhs(p, h, k), t8_rhs(p, h, k, periodic=True)
    if check_id == "thm8_poly":
        return reciprocity_lhs(p, h, k), t8_rhs(p, h, k, periodic=False)
    if check_id == "thm9":
        return reciprocity_lhs(p, h, k), t9_rhs(p, h, k)
    if check_id == "dedekind_recip":
        lhs = dedekind(h, k) + dedekind(k, h)
        return lhs, Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
    raise ValueError(f"no oracle for check id {check_id!r}")
