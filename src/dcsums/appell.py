"""Euler and Bernoulli numbers and polynomials with exact coefficients.

Two genuinely different code paths are kept alive on purpose.  The
production path builds both number sequences from one integer table of
tangent numbers T_m,

    E_(2m-1) = (-1)^m T_m / 2^(2m-1)
    B_(2m)   = (-1)^(m-1) 2m T_m / (4^m (4^m - 1))        (m >= 1)

and the polynomials from the binomial expansion around those numbers,
E_n(x) = sum_l C(n,l) E_l x^(n-l).  ``series_coeffs_oracle`` re-derives the
same values by truncated power-series division of the generating functions
2e^{xt}/(e^t+1) and t e^{xt}/(e^t-1); the tests and the audit engine use it
to cross-check the tangent-table path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Iterable

from .rationals import Rational, binomial, format_rational

__all__ = [
    "Poly",
    "euler_number",
    "bernoulli_number",
    "euler_poly",
    "bernoulli_poly",
    "poly_derivative",
    "poly_integral",
    "series_coeffs_oracle",
]


class Poly:
    """Dense univariate polynomial over Rational, lowest degree first.

    The highest stored coefficient is nonzero (the zero polynomial stores
    nothing), so coefficient tuples compare as polynomials.  Instances are
    treated as immutable.

    Evaluation is exact and runs on integers.  With ``den`` the lcm of the
    coefficient denominators and ``num[i] = den * [x^i] P``, for every
    integer n and m >= 1 a degree-d polynomial satisfies

        m^d den P(n/m) = sum_i num[i] n^i m^(d-i),

    an integer polynomial in n evaluated by Horner's rule.  ``eval`` runs it
    once per point; ``scaled`` returns its coefficients for callers that
    evaluate many points over one fixed m.
    """

    __slots__ = ("coeffs", "den", "num")

    def __init__(self, coeffs: Iterable[Rational | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)
        self.den: int = lcm(*(c.denominator for c in cs))
        self.num: tuple[int, ...] = tuple(c.numerator * (self.den // c.denominator) for c in cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def eval(self, x: Rational | int) -> Rational:
        """Exact P(x): an integer Horner pass in n for x = n/m, then one Fraction."""
        x = Fraction(x)
        n, m = x.numerator, x.denominator
        acc, mpow = 0, 1
        for c in reversed(self.num):
            acc = acc * n + c * mpow
            mpow *= m
        # The loop leaves mpow = m^(d+1) (1 for the zero polynomial), so the
        # extra factor m on top cancels it down to den m^d.
        return Fraction(acc * m, self.den * mpow)

    def scaled(self, m: int) -> tuple[int, ...]:
        """Horner coefficients, highest power first, of n -> m^d den P(n/m)."""
        d = self.degree
        return tuple(self.num[i] * m ** (d - i) for i in range(d, -1, -1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Poly([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly | Rational | int") -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(Fraction(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        """Text form in descending powers, e.g. ``x^3 - 3/2*x^2 + 1/4``."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = format_rational(abs(c))
            if i == 0:
                term = mag
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                term = xpow if mag == "1" else f"{mag}*{xpow}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f" + {term}" if c > 0 else f" - {term}")
        return "".join(parts) if parts else "0"


# E_0..E_N and B_0..B_N.  An index past the end rebuilds both from one
# tangent table at least twice the size.  Each tuple is bound in a single
# assignment, so a reader on another thread sees the old or the new tuple,
# both correct prefixes, and no lock is needed.
_EULER_NUMBERS: tuple[Fraction, ...] = ()
_BERNOULLI_NUMBERS: tuple[Fraction, ...] = ()


def _rebuild(n: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Publish and return E_0..E_(2top) and B_0..B_(2top) for some 2top > n.

    Fills the integer table T_1..T_top of tangent numbers (Knuth &
    Buckholtz, Math. Comp. 21, 1967; Brent & Harvey, arXiv:1108.0286,
    Algorithm TangentNumbers) and maps it by the formulas in the module
    docstring.  E_0 = B_0 = 1, B_1 = -1/2, and E_(2m), B_(2m+1) vanish for
    m >= 1.
    """
    global _EULER_NUMBERS, _BERNOULLI_NUMBERS
    top = max(n // 2 + 1, len(_EULER_NUMBERS))
    t = [0, 1] + [0] * (top - 1)
    for k in range(2, top + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, top + 1):
        for j in range(k, top + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    euler = [Fraction(1)] + [Fraction(0)] * (2 * top)
    bernoulli = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (2 * top - 1)
    for m in range(1, top + 1):
        sign = -1 if m % 2 else 1
        euler[2 * m - 1] = Fraction(sign * t[m], 2 ** (2 * m - 1))
        bernoulli[2 * m] = Fraction(-sign * 2 * m * t[m], 4**m * (4**m - 1))
    _EULER_NUMBERS = euler_tuple = tuple(euler)
    _BERNOULLI_NUMBERS = bernoulli_tuple = tuple(bernoulli)
    return euler_tuple, bernoulli_tuple


def euler_number(n: int) -> Rational:
    """n-th Euler number E_n = E_n(0); E_1 = -1/2 and E_{2k} = 0 for k >= 1."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    numbers = _EULER_NUMBERS
    if n >= len(numbers):
        numbers = _rebuild(n)[0]
    return numbers[n]


def bernoulli_number(n: int) -> Rational:
    """n-th Bernoulli number with B_1 = -1/2."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    numbers = _BERNOULLI_NUMBERS
    if n >= len(numbers):
        numbers = _rebuild(n)[1]
    return numbers[n]


@lru_cache(maxsize=None)
def euler_poly(n: int) -> Poly:
    """Euler polynomial E_n(x) = sum_l C(n,l) E_l x^(n-l)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    coeffs = [Fraction(0)] * (n + 1)
    for l in range(n + 1):
        coeffs[n - l] = binomial(n, l) * euler_number(l)
    return Poly(coeffs)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> Poly:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = binomial(n, k) * bernoulli_number(k)
    return Poly(coeffs)


def poly_derivative(p: Poly) -> Poly:
    """Formal derivative.  For Euler polynomials, E_n' = n * E_{n-1}."""
    return Poly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def poly_integral(p: Poly) -> Poly:
    """Antiderivative q with q(0) = 0.

    The zero constant pins down the corrected integral identity
    int_0^x E_n = (E_{n+1}(x) - E_{n+1}) / (n+1); the commonly printed form
    omits the -E_{n+1} term and already fails at n = 0.
    """
    if not p.coeffs:
        return Poly()
    return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p.coeffs)])


def _series_div(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    # Truncated power-series quotient; den[0] must be nonzero.
    q: list[Fraction] = []
    for n in range(len(num)):
        s = num[n]
        for i in range(n):
            s -= q[i] * den[n - i]
        q.append(s / den[0])
    return q


def series_coeffs_oracle(n_max: int, kind: str, x: Rational | int = 0) -> list[Rational]:
    """Values [E_0(x), ..., E_{n_max}(x)] (or B_n(x)) from the generating series.

    Computes the first n_max+1 Taylor coefficients of 2e^{xt}/(e^t+1)
    (kind='euler') or t e^{xt}/(e^t-1) (kind='bernoulli', rewritten as
    e^{xt} / ((e^t-1)/t)) by exact truncated power-series division, then
    scales by n!.  This never touches the tangent table above, so the two
    can validate each other.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    x = Fraction(x)
    xpow = [Fraction(1)]
    for _ in range(n_max):
        xpow.append(xpow[-1] * x)
    if kind == "euler":
        num = [2 * xpow[n] / factorial(n) for n in range(n_max + 1)]
        den = [Fraction(1, factorial(n)) for n in range(n_max + 1)]
        den[0] += 1
    elif kind == "bernoulli":
        num = [xpow[n] / factorial(n) for n in range(n_max + 1)]
        den = [Fraction(1, factorial(n + 1)) for n in range(n_max + 1)]
    else:
        raise ValueError(f"kind must be 'euler' or 'bernoulli', got {kind!r}")
    q = _series_div(num, den)
    return [q[n] * factorial(n) for n in range(n_max + 1)]
