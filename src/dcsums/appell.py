"""Euler and Bernoulli numbers and polynomials with exact coefficients.

Both number sequences are stored as one integer table e_s = 2^s E_s, with
e_0 = 1, e_(2m-1) = (-1)^m T_m for the tangent numbers T_m, e_(2m) = 0:

    E_n = e_n / 2^n,    B_n = -n e_(n-1) / (2^n (2^n - 1))    (n >= 1; B_0 = 1),

the second from E_(n-1)(0) = -2 (2^n - 1) B_n / n (Abramowitz & Stegun
23.1.20).  Both polynomial families come from one Appell expansion around
those numbers, E_n(x) = sum_l C(n,l) E_l x^(n-l), evaluated on integers by
``Poly.scaled`` plus ``_horner`` (``Poly.ratio`` and ``Poly.eval`` included).
An independent path, truncated power-series division of the generating
functions 2e^{xt}/(e^t+1) and t e^{xt}/(e^t-1), lives in
``tests/oracles.py``; the tests and a demo use it to cross-check this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import lcm
from typing import Callable, Iterable

from .rationals import Rational, binomial, exact, format_rational

__all__ = ["Poly", "euler_number", "bernoulli_number", "euler_poly", "bernoulli_poly",
           "poly_derivative", "poly_integral"]


class Poly:
    """Dense univariate polynomial over Rational, lowest degree first.

    The highest stored coefficient is nonzero (the zero polynomial stores
    nothing), so coefficient tuples compare as polynomials.  Instances are
    treated as immutable.

    Evaluation is exact and runs on integers.  With ``den`` the lcm of the
    coefficient denominators and ``num[i] = den * [x^i] P``, for every
    integer n and m >= 1 a degree-d polynomial satisfies

        m^d den P(n/m) = sum_i num[i] n^i m^(d-i),

    an integer polynomial in n.  ``scaled`` gives its Horner coefficients and
    ``_horner`` runs them at n; ``eval`` is the two at one point, and callers
    that evaluate many points over one fixed m keep the ``scaled`` vector.
    """

    __slots__ = ("coeffs", "den", "num")

    def __init__(self, coeffs: Iterable[Rational | int] = ()):
        cs = [Fraction(exact(c)) for c in coeffs]
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
        """Exact P(x): ``ratio`` at x = n/m, then one Fraction."""
        return Fraction(*self.ratio(*exact(x).as_integer_ratio()))

    def ratio(self, n: int, m: int = 1) -> tuple[int, int]:
        """P(n/m) as the unreduced pair (m^d den P(n/m), m^d den): one ``_horner`` pass."""
        b = self.scaled(m)
        return _horner(b, n), self.den * m ** max(len(b) - 1, 0)

    def scaled(self, m: int) -> tuple[int, ...]:
        """Horner coefficients, highest power first, of n -> m^d den P(n/m)."""
        return tuple([c * m**j for j, c in enumerate(reversed(self.num))])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Poly | Rational | int") -> "Poly":
        if isinstance(other, Poly):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(exact(other) * c for c in self.coeffs)

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
        return "".join(parts)


def _horner(b: tuple[int, ...], r: int) -> int:
    """The integer polynomial with Horner vector b (as from ``Poly.scaled``) at r."""
    acc = 0
    for c in b:
        acc = acc * r + c
    return acc


# e_0..e_N with e_s = 2^s E_s: the one stored form of both number sequences.
# An index past the end rebuilds it from a tangent table at least twice the
# size.  The tuple is bound in a single assignment, so a reader on another
# thread sees the old or the new one, each a correct prefix, and no lock is
# needed.
_NUMBERS: tuple[int, ...] = ()


def _rebuild(n: int) -> tuple[int, ...]:
    """Publish and return e_0..e_(2top) for some 2top > n.

    Fills the integer table T_1..T_top of tangent numbers (Knuth &
    Buckholtz, Math. Comp. 21, 1967; Brent & Harvey, arXiv:1108.0286,
    Algorithm TangentNumbers) and maps it as in the module docstring.
    """
    global _NUMBERS
    top = max(n // 2 + 1, len(_NUMBERS))
    t = [0, 1] + [0] * (top - 1)
    for k in range(2, top + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, top + 1):
        for j in range(k, top + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    e = [1] + [0] * (2 * top)
    for m in range(1, top + 1):
        e[2 * m - 1] = -t[m] if m % 2 else t[m]
    _NUMBERS = numbers = tuple(e)
    return numbers


def _euler_ints(n: int) -> tuple[int, ...]:
    """e_0..e_N, N >= n: the published table, or the one this call builds if it is short."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    e = _NUMBERS
    if n >= len(e):
        e = _rebuild(n)
    return e


def euler_number(n: int) -> Rational:
    """n-th Euler number E_n = E_n(0); E_1 = -1/2 and E_{2k} = 0 for k >= 1."""
    return Fraction(_euler_ints(n)[n], 1 << n)


def bernoulli_number(n: int) -> Rational:
    """n-th Bernoulli number with B_1 = -1/2."""
    e = _euler_ints(n)
    return Fraction(-n * e[n - 1], (1 << n) * ((1 << n) - 1)) if n else Fraction(1)


def _appell_poly(n: int, number: Callable[[int], Rational]) -> Poly:
    """The Appell polynomial sum_l C(n,l) a_l x^(n-l) with a_l = number(l)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return Poly(reversed([binomial(n, l) * number(l) for l in range(n + 1)]))


@lru_cache(maxsize=None)
def euler_poly(n: int) -> Poly:
    """Euler polynomial E_n(x) = sum_l C(n,l) E_l x^(n-l)."""
    return _appell_poly(n, euler_number)


@lru_cache(maxsize=None)
def bernoulli_poly(n: int) -> Poly:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k)."""
    return _appell_poly(n, bernoulli_number)


def poly_derivative(p: Poly) -> Poly:
    """Formal derivative.  For Euler polynomials, E_n' = n * E_{n-1}."""
    return Poly(i * c for i, c in enumerate(p.coeffs) if i > 0)


def poly_integral(p: Poly) -> Poly:
    """Antiderivative q with q(0) = 0.

    The zero constant pins down the corrected integral identity
    int_0^x E_n = (E_{n+1}(x) - E_{n+1}) / (n+1); the commonly printed form
    omits the -E_{n+1} term and already fails at n = 0.
    """
    return Poly([Fraction(0)] + [c / (i + 1) for i, c in enumerate(p.coeffs)])

