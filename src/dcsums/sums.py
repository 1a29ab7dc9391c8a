"""Finite sums: classical/generalized Dedekind sums, DC sums, and friends.

Everything here is a direct summation over the defining index range — the
direct sum is the contract, not an implementation detail, because these
values also serve as oracles for the reciprocity-law audits.  Coprimality
is demanded only where the definition itself needs it; theorem hypotheses
are enforced by the audit registry, not here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .appell import euler_poly
from .periodic import bernoulli_function, euler_function, sawtooth
from .rationals import Rational

__all__ = [
    "dedekind_sum",
    "gen_dedekind_sum",
    "dc_sum",
    "alt_power_sum",
    "theorem8_rhs",
    "restricted_lattice_sum",
    "lattice_partition",
]


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _require_coprime(h: int, k: int) -> None:
    if gcd(h, k) != 1:
        raise ValueError(f"arguments must be coprime, got gcd({h}, {k}) = {gcd(h, k)}")


def dedekind_sum(h: int, k: int) -> Rational:
    """Classical Dedekind sum S(h,k) = sum_{u=1}^{k-1} ((u/k)) ((hu/k)).

    Requires gcd(h, k) = 1.  S(h, 1) = 0 (empty sum).
    """
    _require_positive("h", h)
    _require_positive("k", k)
    _require_coprime(h, k)
    return sum(
        (sawtooth(Fraction(u, k)) * sawtooth(Fraction(h * u, k)) for u in range(1, k)),
        Fraction(0),
    )


def gen_dedekind_sum(p: int, h: int, k: int) -> Rational:
    """Generalized Dedekind sum S_p(h,k) = sum_{a=1}^{k-1} (a/k) Bbar_p(ah/k)."""
    _require_positive("p", p)
    _require_positive("h", h)
    _require_positive("k", k)
    _require_coprime(h, k)
    return sum(
        (Fraction(a, k) * bernoulli_function(p, Fraction(a * h, k)) for a in range(1, k)),
        Fraction(0),
    )


def dc_sum(p: int, h: int, k: int) -> Rational:
    """DC sum T_p(h,k) = 2 sum_{u=1}^{k-1} (-1)^(u-1) (u/k) Ebar_p(hu/k).

    The definition needs no coprimality, so none is demanded here; the
    reciprocity audits impose their own hypotheses.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    _require_positive("h", h)
    _require_positive("k", k)
    total = Fraction(0)
    for u in range(1, k):
        sign = 1 if u % 2 else -1
        total += sign * Fraction(u, k) * euler_function(p, Fraction(h * u, k))
    return 2 * total


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
    """
    _require_positive("p", p)
    _require_positive("h", h)
    _require_positive("k", k)
    total = Fraction(0)
    for u in range(k):
        for v in range(h):
            sign = -1 if (u + v) % 2 == 0 else 1
            arg = Fraction(u, k) + Fraction(v, h)
            value = euler_function(p, arg) if periodic else euler_poly(p).eval(arg)
            total += sign * Fraction(u * h + v * k, h * k) * value
    return 2 * (h * k) ** p * total


def restricted_lattice_sum(p: int, h: int, k: int) -> Rational:
    """2 sum over 0<=u<k, 0<=v<h with uh+vk < hk of (-1)^(u+v-1) E_p(u/k + v/h)."""
    _require_positive("p", p)
    _require_positive("h", h)
    _require_positive("k", k)
    poly = euler_poly(p)
    total = Fraction(0)
    for u in range(k):
        for v in range(h):
            if u * h + v * k < h * k:
                sign = -1 if (u + v) % 2 == 0 else 1
                total += sign * poly.eval(Fraction(u, k) + Fraction(v, h))
    return 2 * total


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
