"""Finite sums: classical/generalized Dedekind sums, DC sums, and friends.

The *values* are the contract: each sum returns exactly the rational its
defining summation gives.  The direct definitions live, term by term in
``Fraction`` arithmetic, in ``tests/oracles.py``, which shares no code with
this module and re-checks it.  Here every summand is scaled onto one common
denominator, so a sum accumulates Python ints in O(k) or O(hk) steps and
builds a single ``Fraction`` at the end.  The scaling is the integer form of
``Poly`` (see its docstring): ``P.scaled(m)`` holds the Horner coefficients
of r -> m^p D P(r/m), an integer polynomial in r, with D = ``P.den``.
Coprimality is demanded only where the definition itself needs it; theorem
hypotheses are enforced by the audit registry, not here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .appell import bernoulli_poly, euler_poly
from .rationals import Rational

__all__ = [
    "dedekind_sum",
    "gen_dedekind_sum",
    "dc_sum",
    "alt_power_sum",
    "theorem8_rhs",
    "lattice_partition",
]


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _require_coprime(h: int, k: int) -> None:
    if gcd(h, k) != 1:
        raise ValueError(f"arguments must be coprime, got gcd({h}, {k}) = {gcd(h, k)}")


def _horner(b: tuple[int, ...], r: int) -> int:
    acc = 0
    for c in b:
        acc = acc * r + c
    return acc


def dedekind_sum(h: int, k: int) -> Rational:
    """Classical Dedekind sum S(h,k) = sum_{u=1}^{k-1} ((u/k)) ((hu/k)).

    Requires gcd(h, k) = 1.  S(h, 1) = 0 (empty sum).  With r = hu mod k,
    ((u/k)) ((hu/k)) = (2u-k)(2r-k) / (4k^2) when r != 0 and 0 when r = 0.
    """
    _require_positive("h", h)
    _require_positive("k", k)
    _require_coprime(h, k)
    total = 0
    for u in range(1, k):
        r = h * u % k
        if r:
            total += (2 * u - k) * (2 * r - k)
    return Fraction(total, 4 * k * k)


def gen_dedekind_sum(p: int, h: int, k: int) -> Rational:
    """Generalized Dedekind sum S_p(h,k) = sum_{a=1}^{k-1} (a/k) Bbar_p(ah/k).

    With r = ah mod k, Bbar_p(ah/k) = B_p(r/k), and k^p D B_p(r/k) is the
    integer polynomial sum_i num_i r^i k^(p-i) in the Bernoulli coefficients,
    so S_p(h,k) = sum_a a (k^p D B_p(r/k)) / (D k^(p+1)).
    """
    _require_positive("p", p)
    _require_positive("h", h)
    _require_positive("k", k)
    _require_coprime(h, k)
    poly = bernoulli_poly(p)
    b = poly.scaled(k)
    total = sum(a * _horner(b, a * h % k) for a in range(1, k))
    return Fraction(total, poly.den * k ** (p + 1))


def dc_sum(p: int, h: int, k: int) -> Rational:
    """DC sum T_p(h,k) = 2 sum_{u=1}^{k-1} (-1)^(u-1) (u/k) Ebar_p(hu/k).

    With q, r = divmod(hu, k), Ebar_p(hu/k) = (-1)^q E_p(r/k), and
    k^p D E_p(r/k) is the integer polynomial sum_i num_i r^i k^(p-i), so
    T_p(h,k) = 2 sum_u (-1)^(u-1+q) u (k^p D E_p(r/k)) / (D k^(p+1)).

    The definition needs no coprimality, so none is demanded here; the
    reciprocity audits impose their own hypotheses.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    _require_positive("h", h)
    _require_positive("k", k)
    poly = euler_poly(p)
    b = poly.scaled(k)
    total = 0
    for u in range(1, k):
        q, r = divmod(h * u, k)
        term = u * _horner(b, r)
        total += term if (u + q) % 2 else -term
    return Fraction(2 * total, poly.den * k ** (p + 1))


def alt_power_sum(n: int, l: int) -> Rational:
    """Alternating power sum 2 sum_{k=0}^{n-1} (-1)^k k^l, with 0^0 = 1."""
    _require_positive("n", n)
    if l < 0:
        raise ValueError(f"l must be nonnegative, got {l}")
    total = 0
    for k in range(n):
        term = k**l  # 0**0 == 1 in Python, matching the convention
        total += term if k % 2 == 0 else -term
    return Fraction(2 * total)


def theorem8_rhs(p: int, h: int, k: int, periodic: bool = True) -> Rational:
    """Double sum 2(hk)^p sum_{u,v} (-1)^(u+v-1) ((uh+vk)/(hk)) F_p(u/k + v/h).

    F is the antiperiodic Euler function when ``periodic`` (the form the
    derivation uses) and the plain Euler polynomial otherwise (the form the
    reciprocity statement prints).  The two differ exactly on the lattice
    points with u/k + v/h >= 1.

    With n = uh + vk both the weight and the argument are n/(hk).  The
    periodic form takes q, r = divmod(n, hk) and F_p(n/(hk)) = (-1)^q
    E_p(r/(hk)); the plain form takes q, r = 0, n.  Since (hk)^p D E_p(r/(hk))
    is the integer polynomial sum_i num_i r^i (hk)^(p-i), the double sum is
    2 sum_{u,v} (-1)^(u+v-1+q) n ((hk)^p D E_p(r/(hk))) / (D hk).
    """
    _require_positive("p", p)
    _require_positive("h", h)
    _require_positive("k", k)
    m = h * k
    poly = euler_poly(p)
    b = poly.scaled(m)
    total = 0
    for u in range(k):
        for v in range(h):
            n = u * h + v * k
            q, r = divmod(n, m) if periodic else (0, n)
            term = n * _horner(b, r)
            total += term if (u + v + q) % 2 else -term
    return Fraction(2 * total, poly.den * m)


def lattice_partition(h: int, k: int) -> tuple[list[int], list[int]]:
    """Split the values uh+vk (0<=u<k, 0<=v<h) into [0, hk) and [hk+1, 2hk).

    For coprime h, k no value ever equals hk, the two sorted lists jointly
    exhaust the hk lattice points, and their residues mod hk form a
    complete residue system.
    """
    _require_positive("h", h)
    _require_positive("k", k)
    _require_coprime(h, k)
    low: list[int] = []
    high: list[int] = []
    for u in range(k):
        for v in range(h):
            value = u * h + v * k
            if value < h * k:
                low.append(value)
            else:
                high.append(value)
    return sorted(low), sorted(high)
