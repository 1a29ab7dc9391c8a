"""Umbral evaluation: powers of linear forms in independent Euler umbrae.

An umbral expression is a sum of terms a_i * (E_i + x_i) over distinct
umbrae E_i.  Raising it to the p-th power replaces each E_i^s by the Euler
polynomial value E_s(x_i) in one binomial convolution, ``_umbral``:

    (a(E + x) + b(E' + y))^p = sum_s C(p,s) a^s E_s(x) b^(p-s) E_{p-s}(y)

More umbrae fold one at a time, each term against the rest of the form.  A
single unshifted umbra recovers the plain Euler numbers: (E + 0)^p = E_p.
Duplicate umbra ids are rejected — there is no defined semantics for adding
two shifted copies of one umbra.

Every evaluation runs on integers and builds one ``Fraction`` per result:
``_umbral`` adds its terms over one common denominator, and ``umbral_power``
reads each umbra's values a^s E_s(x), s <= p, from the integer form of
``Poly`` (``scaled`` plus ``_horner``) once per call.

``lattice_power_sum`` is the one kernel behind the theorem 7 and 9 right
sides.  With z_u = hu + k(h - floor(hu/k)), each lattice power is

    (khE + kE' + z_u)^p = sum_t C(p,t) M_t z_u^(p-t),   M_t = (khE + kE')^t,

so the sum over u is the moments M_t against the weighted power sums of z_u,
O(k p + p^2) integer operations.  Since 2^s E_s is an integer (the tangent
numbers in ``appell``), 2^t M_t is one, and the call divides once by 2^p.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .appell import _horner, euler_number, euler_poly
from .rationals import Rational, binomial, exact

__all__ = ["umbral_power", "theorem9_rhs"]


def _as_terms(terms: Iterable[tuple]) -> list[tuple[Fraction, Fraction, int]]:
    out = [(Fraction(exact(coeff)), Fraction(exact(shift)), umbra)
           for coeff, shift, umbra in terms]
    ids = [umbra for _, _, umbra in out]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate umbra ids in {ids}")
    return out


def _umbral(p: int, a: Callable[[int], Rational], b: Callable[[int], Rational]) -> Fraction:
    """(A + B)^p = sum_s C(p,s) a(s) b(p-s), reading A^s as a(s) and B^j as b(j).

    The terms add as ints over the lcm of their denominators.  b(p-s) is not
    consulted where C(p,s) a(s) = 0 (half the Euler numbers)."""
    nums, dens = [], []
    for s in range(p + 1):
        an, ad = a(s).as_integer_ratio()
        if an:
            bn, bd = b(p - s).as_integer_ratio()
            nums.append(binomial(p, s) * an * bn)
            dens.append(ad * bd)
    den = lcm(*dens)
    return Fraction(sum(n * (den // d) for n, d in zip(nums, dens)), den)


def _sequence(coeff: Fraction, shift: Fraction, p: int) -> list[Fraction]:
    """a^s E_s(x) for s = 0..p at a = coeff, x = shift, one Horner pass each."""
    c, d = coeff.as_integer_ratio()
    n, m = shift.as_integer_ratio()
    return [Fraction(c**s * _horner(e.scaled(m), n), (d * m) ** s * e.den)
            for s, e in enumerate(map(euler_poly, range(p + 1)))]


def umbral_power(terms: Sequence[tuple], p: int) -> Rational:
    """Evaluate (sum_i a_i (E_i + x_i))^p with independent umbrae.

    Each term is a ``(coeff, shift, umbra)`` tuple for a_i * (E_i + x_i).  The
    terms fold from the last: term i and the terms after it are two
    independent umbrae, joined by ``_umbral`` at every power up to p, and the
    first term only at p.
    """
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    ts = _as_terms(terms)
    if not ts:
        return Fraction(int(p == 0))
    first, *rest = [_sequence(coeff, shift, p) for coeff, shift, _ in ts]
    if not rest:
        return first[p]
    tail = rest.pop()
    for seq in reversed(rest):
        tail = [_umbral(j, seq.__getitem__, tail.__getitem__) for j in range(p + 1)]
    return _umbral(p, first.__getitem__, tail.__getitem__)


def lattice_power_sum(p: int, h: int, k: int, weight: Callable[[int, int], int]) -> Rational:
    """Sum over u in [0, k) of weight(u, j) (kh(E + u/k) + k(E' + h - j))^p, j = floor(hu/k)."""
    # Doubled umbrae stay integral: e_s = 2^s E_s, moments[t] = 2^t M_t, and
    # sums[i] = sum_u weight (2 z_u)^i; each product carries 2^p.
    e = [q.numerator * (2**s // q.denominator)
         for s, q in enumerate(map(euler_number, range(p + 1)))]
    moments = [k**t * sum(binomial(t, s) * h**s * e[s] * e[t - s] for s in range(t + 1) if e[s])
               for t in range(p + 1)]
    sums = [0] * (p + 1)
    for u in range(k):
        j = h * u // k
        if w := weight(u, j):
            z = 2 * (h * u + k * (h - j))
            for i in range(p + 1):
                sums[i] += w
                w *= z
    return Fraction(sum(binomial(p, t) * moments[t] * sums[p - t] for t in range(p + 1)), 2**p)


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
