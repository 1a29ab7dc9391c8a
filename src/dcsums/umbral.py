"""Umbral evaluation: powers of linear forms in independent Euler umbrae.

An umbral expression is a sum of terms a_i * (E_i + x_i) over distinct
umbrae E_i.  Raising it to the p-th power replaces each E_i^s by the Euler
polynomial value E_s(x_i) in one binomial convolution, ``_umbral``:

    (a(E + x) + b(E' + y))^p = sum_s C(p,s) a^s E_s(x) b^(p-s) E_{p-s}(y)

More umbrae fold one at a time, each term against the rest of the form.  A
single unshifted umbra recovers the plain Euler numbers: (E + 0)^p = E_p.
Duplicate umbra ids are rejected — there is no defined semantics for adding
two shifted copies of one umbra.

``lattice_power_sum`` is the one kernel behind the theorem 7 and 9 right
sides.  It runs on the integer form of ``Poly``: over D = lcm_s den_s den_(p-s)
each two-umbra power is t_u / D, with t_u an int built from the Horner vectors
``E_s.scaled(k)`` at u and ``E_(p-s).scaled(1)`` at h - floor(hu/k).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .appell import _horner, euler_number, euler_poly
from .rationals import Rational, binomial

__all__ = ["umbral_power", "theorem9_rhs"]


def _as_terms(terms: Iterable[tuple]) -> list[tuple[Fraction, Fraction, int]]:
    out = [(Fraction(coeff), Fraction(shift), umbra) for coeff, shift, umbra in terms]
    ids = [umbra for _, _, umbra in out]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate umbra ids in {ids}")
    return out


def _umbral(p: int, a: Callable[[int], Rational], b: Callable[[int], Rational]) -> Fraction:
    """(A + B)^p = sum_s C(p,s) a(s) b(p-s), reading A^s as a(s) and B^j as b(j);
    b(p-s) is not consulted where C(p,s) a(s) = 0 (half the Euler numbers)."""
    terms = (c * b(p - s) for s in range(p + 1) if (c := binomial(p, s) * a(s)))
    return sum(terms, Fraction(0))


def umbral_power(terms: Sequence[tuple], p: int) -> Rational:
    """Evaluate (sum_i a_i (E_i + x_i))^p with independent umbrae.

    Each term is a ``(coeff, shift, umbra)`` tuple for a_i * (E_i + x_i).  Term
    i and the terms after it are two independent umbrae, joined by ``_umbral``.
    """
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    ts = _as_terms(terms)
    if not ts:
        return Fraction(int(p == 0))

    def power(i: int, j: int) -> Rational:
        coeff, shift, _ = ts[i]
        own = lambda s: coeff**s * euler_poly(s).eval(shift)
        if i == len(ts) - 1:
            return own(j)
        return _umbral(j, own, lambda r: power(i + 1, r))

    return power(0, p)


def lattice_power_sum(p: int, h: int, k: int, weight: Callable[[int, int], int]) -> Rational:
    """Sum over u in [0, k) of weight(u, j) (kh(E + u/k) + k(E' + h - j))^p, j = floor(hu/k)."""
    polys = [euler_poly(s) for s in range(p + 1)]
    dens = [polys[s].den * polys[p - s].den for s in range(p + 1)]
    den = lcm(*dens)
    terms = [(binomial(p, s) * h**s * k ** (p - s) * (den // dens[s]),
              polys[s].scaled(k), polys[p - s].scaled(1)) for s in range(p + 1)]
    total = 0
    for u in range(k):
        j = h * u // k
        if w := weight(u, j):
            total += w * sum(a * _horner(xu, u) * _horner(xc, h - j) for a, xu, xc in terms)
    return Fraction(total, den)


def theorem9_rhs(p: int, h: int, k: int) -> Rational:
    """Right side of the umbral reciprocity statement, for odd p.

    Assembles, entirely from umbral powers,

        2 * sum over u in [0, k) with u - floor(hu/k) odd of
              (kh(E + u/k) + k(E' + h - floor(hu/k)))^p
        + (hE + kE')^p + (p+2) E_p.
    """
    if h < 1 or k < 1:
        raise ValueError(f"h and k must be positive, got ({h}, {k})")
    if p < 1 or p % 2 == 0:
        raise ValueError(f"power must be odd and positive, got {p}")
    odd = lattice_power_sum(p, h, k, lambda u, j: (u - j) % 2)
    mixed = umbral_power([(h, 0, 0), (k, 0, 1)], p)
    return 2 * odd + mixed + (p + 2) * euler_number(p)
