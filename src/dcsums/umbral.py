"""Umbral evaluation: powers of linear forms in independent Euler umbrae.

An umbral expression is a sum of terms a_i * (E_i + x_i) over distinct
umbrae E_i.  Raising it to the p-th power replaces each E_i^s by the Euler
polynomial value E_s(x_i) in one binomial convolution, ``_umbral``:

    (a(E + x) + b(E' + y))^p = sum_s C(p,s) a^s E_s(x) b^(p-s) E_{p-s}(y)

More umbrae fold one at a time, each term against the rest of the form.  A
single unshifted umbra recovers the plain Euler numbers: (E + 0)^p = E_p.
Duplicate umbra ids are rejected — there is no defined semantics for adding
two shifted copies of one umbra.

The integer side protocol: ``_umbral`` reads each power A^s, B^j as an
unreduced pair (numerator, denominator) of ints and returns its sum as one
such pair, which ``_pair_sum`` adds over the lcm of the term denominators.
Its callers, here and in the audit's sides, take c^s E_s only from
``_euler_pairs``, as (c^s 2^s E_s, 2^s) from the integer table in ``appell``,
and polynomial values from the integer form of ``Poly``; they add pairs with
``_pair_sum`` and build one ``Fraction`` per result.  ``umbral_power`` folds
its umbrae as pairs.

``lattice_power_sum`` is the one kernel behind the theorem 7 and 9 right
sides.  With z_u = hu + k(h - floor(hu/k)) and a lattice umbra Z whose
powers are the weighted power sums Z^i = sum_u w_u z_u^i,

    sum_u w_u (khE + kE' + z_u)^p = (khE + (kE' + Z))^p,

two nested ``_umbral`` convolutions over pairs: O(k p + p^2) integer
operations.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .appell import _euler_ints, _horner, euler_poly
from .rationals import Rational, binomial, exact

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
            terms.append((binomial(p, s) * an * bn, ad * bd))
    return _pair_sum(terms)


def _sequence(coeff: Pair, shift: Pair, p: int) -> list[Pair]:
    """a^s E_s(x) for s = 0..p at a = c/d, x = n/m."""
    (c, d), (n, m) = coeff, shift
    return [(c**s * _horner(e.scaled(m), n), (d * m) ** s * e.den)
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
        return Fraction(*first[p])
    tail = rest.pop()
    for seq in reversed(rest):
        tail = [_umbral(j, seq.__getitem__, tail.__getitem__) for j in range(p + 1)]
    return Fraction(*_umbral(p, first.__getitem__, tail.__getitem__))


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
    kh, k1 = _euler_pairs(p, k * h), _euler_pairs(p, k)
    return _umbral(p, kh, lambda j: _umbral(j, k1, lambda i: (sums[i], 1)))


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
    odd_num, odd_den = lattice_power_sum(p, h, k, lambda u, j: (u - j) % 2)
    mixed = _umbral(p, _euler_pairs(p, h), _euler_pairs(p, k))
    e_num, e_den = _euler_pairs(p)(p)
    return Fraction(*_pair_sum([(2 * odd_num, odd_den), mixed, ((p + 2) * e_num, e_den)]))
