"""Umbral evaluation: powers of linear forms in independent Euler umbrae.

An umbral expression is a sum of terms a_i * (E_i + x_i) over distinct
umbrae E_i.  Raising it to the p-th power replaces each E_i^s by the Euler
polynomial value E_s(x_i) in one binomial convolution, ``_umbral``:

    (a(E + x) + b(E' + y))^p = sum_s C(p,s) a^s E_s(x) b^(p-s) E_{p-s}(y)

A single unshifted umbra recovers the plain Euler numbers: (E + 0)^p = E_p.
Duplicate umbra ids are rejected — there is no defined semantics for adding
two shifted copies of one umbra.

The integer side protocol: ``_umbral`` reads each power A^s, B^j as an
unreduced pair (numerator, denominator) of ints and returns its sum as one
such pair, which ``_pair_sum`` adds over the lcm of the term denominators.
Its callers take c^s E_s from ``_euler_pairs`` as (c^s e_s, 2^s), e_s =
2^s E_s from the integer table of ``appell``, and polynomial values from
the integer form of ``Poly``; each result is one ``Fraction``.  Euler
against Euler needs no pairs: ``_euler_euler`` gives the integers
2^j (aE + bE')^j = sum_s C(j,s) a^s b^(j-s) e_s e_(j-s), which is
(a^j + b^j) e_j at odd j, as e_s = 0 at even s > 0.  So the theorem 7 and 9
kernel ``lattice_power_sum`` is one integer sum over 2^p, O(kp + p^2): with
z_u = hu + k(h - floor(hu/k)) and Z_i = sum_u w_u z_u^i,

    2^p sum_u w_u (khE + kE' + z_u)^p = sum_j C(p,j) 2^j (khE + kE')^j 2^(p-j) Z_(p-j).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, lcm
from typing import Callable, Iterable, Sequence

from .appell import _euler_ints, _horner, euler_poly
from .rationals import Rational, exact

__all__ = ["umbral_power", "theorem9_rhs"]

Pair = tuple[int, int]


def _as_terms(terms: Iterable[tuple]) -> list[tuple[Pair, Pair, int]]:
    out = [(exact(coeff).as_integer_ratio(), exact(shift).as_integer_ratio(), umbra)
           for coeff, shift, umbra in terms]
    ids = [umbra for _, _, umbra in out]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate umbra ids in {ids}")
    return out


def _euler_pairs(p: int, c: int = 1) -> Callable[[int], Pair]:
    """s -> c^s E_s as the pair (c^s 2^s E_s, 2^s), for s <= p."""
    e = _euler_ints(p)
    return [(c**s * e[s], 1 << s) for s in range(p + 1)].__getitem__


def _pair_sum(pairs: Sequence[Pair]) -> Pair:
    """The sum of the pairs, over the lcm of their denominators."""
    den = lcm(*[d for _, d in pairs])
    return sum([n * (den // d) for n, d in pairs]), den


def _umbral(p: int, a: Callable[[int], Pair], b: Callable[[int], Pair]) -> Pair:
    """(A + B)^p = sum_s C(p,s) a(s) b(p-s), with b(p-s) unread where a(s) = 0."""
    terms = []
    for s in range(p + 1):
        an, ad = a(s)
        if an:
            bn, bd = b(p - s)
            terms.append((comb(p, s) * an * bn, ad * bd))
    return _pair_sum(terms)


def _sequence(coeff: Pair, shift: Pair, p: int) -> list[Pair]:
    """a^s E_s(x) for s = 0..p at a = c/d, x = n/m."""
    (c, d), (n, m) = coeff, shift
    return [(c**s * _horner(e.scaled(m), n), (d * m) ** s * e.den)
            for s, e in enumerate(map(euler_poly, range(p + 1)))]


def umbral_power(terms: Sequence[tuple], p: int) -> Rational:
    """Evaluate (sum_i a_i (E_i + x_i))^p with independent umbrae.

    Each term is a ``(coeff, shift, umbra)`` tuple for a_i * (E_i + x_i); the
    terms fold from the last, each joined to the ones after it by ``_umbral``.
    """
    if p < 0:
        raise ValueError(f"power must be nonnegative, got {p}")
    ts = _as_terms(terms)
    if not ts:
        return Fraction(int(p == 0))
    first, *rest = [_sequence(coeff, shift, p) for coeff, shift, _ in ts]
    if not rest:
        return Fraction(*first[p])
    tail = rest.pop()
    for seq in reversed(rest):
        tail = [_umbral(j, seq.__getitem__, tail.__getitem__) for j in range(p + 1)]
    return Fraction(*_umbral(p, first.__getitem__, tail.__getitem__))


def _euler_euler(p: int, a: int, b: int) -> list[int]:
    """2^j (aE + bE')^j for j = 0..p, over the nonzero e_s (s = 0 and odd s) only."""
    e = _euler_ints(p)
    live = [s for s in range(p + 1) if e[s]]
    ae, be = [a**s * e[s] for s in range(p + 1)], [b**s * e[s] for s in range(p + 1)]
    out = [0] * (p + 1)
    for s, t in product(live, repeat=2):
        if s + t <= p:
            out[s + t] += comb(s + t, s) * ae[s] * be[t]
    return out


def lattice_power_sum(p: int, h: int, k: int, weight: Callable[[int, int], int]) -> Pair:
    """Sum over u in [0, k) of weight(u, j) (kh(E + u/k) + k(E' + h - j))^p, j = floor(hu/k)."""
    sums = [0] * (p + 1)
    for u in range(k):
        j = h * u // k
        if w := weight(u, j):
            z = h * u + k * (h - j)
            for i in range(p + 1):
                sums[i] += w
                w *= z
    mixed = _euler_euler(p, k * h, k)
    return sum([comb(p, j) * mixed[j] * sums[p - j] << (p - j) for j in range(p + 1)]), 1 << p


def theorem9_rhs(p: int, h: int, k: int) -> Rational:
    """Right side of the umbral reciprocity statement, for odd p, with j = floor(hu/k):

        2 sum_{u in [0, k), u - j odd} (kh(E + u/k) + k(E' + h - j))^p + (hE + kE')^p + (p+2) E_p
    """
    if h < 1 or k < 1:
        raise ValueError(f"h and k must be positive, got ({h}, {k})")
    if p < 1 or p % 2 == 0:
        raise ValueError(f"power must be odd and positive, got {p}")
    odd, den = lattice_power_sum(p, h, k, lambda u, j: (u - j) % 2)
    return Fraction(2 * odd + (h**p + k**p + p + 2) * _euler_ints(p)[p], den)
