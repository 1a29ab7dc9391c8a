"""Finite sums: classical/generalized Dedekind sums, DC sums, and friends.

The *values* are the contract: each sum returns exactly the rational its
defining summation gives.  The direct definitions live, term by term in
``Fraction`` arithmetic, in ``tests/oracles.py``, which shares no code with
this module and re-checks it.  Here every summand is scaled onto one common
denominator, so a sum accumulates Python ints and builds a single
``Fraction`` at the end.  The scaling is the integer form of ``Poly`` (see
its docstring): ``P.scaled(m)`` holds the Horner coefficients of
r -> m^p D P(r/m), with D = ``P.den``, and ``appell._horner`` runs it.

Each sum pairs its terms by a reflection x -> 1 - x of the residues, with
E_p(1 - x) = (-1)^p E_p(x) and B_p(1 - x) = (-1)^p B_p(x), so one
evaluation serves a term and its mirror, about k/2 or hk/2 in all:

- ``gen_dedekind_sum``: a and k - a have residues r and k - r (never 0
  for coprime h, k); the weight is a + (-1)^p (k - a).
- ``_signed_line`` (all of ``dc_sum``, and each edge of ``theorem8_rhs``):
  with count step = c modulus, j and count - j have residues r and
  modulus - r and quotients q and c - q - 1; the weight is
  j + (-1)^(count+c+1+p) (count - j).  At r = 0 the partner's residue is
  0 too and its quotient c - q.
- ``theorem8_rhs``, m = hk: (u, v) -> (-u mod k, -v mod h) sends
  n = uh + vk to m - n on the edges u = 0, v = 0, and inside the lattice
  a point with n < m (q = 0, r = n) to 2m - n (q = 1, r = m - n); the
  weight is n + (-1)^(h+k+1+p) (2m - n).  The plain form's partner value
  E_p(1 + y) = 2y^p - E_p(y), y = (m - n)/m, adds 2D (m - n)^p.

Summed directly are the terms the reflection fixes (the middle of an even
count) and those it does not pair that way (residue 0, and n = m on the
lattice, which only a non-coprime h, k reaches).

The classical Dedekind sum S(h,k) is computed as its p = 1 member S_1(h,k).
Coprimality is demanded only where the definition itself needs it; theorem
hypotheses are enforced by the audit registry, not here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .appell import _horner, bernoulli_poly, euler_poly
from .rationals import Rational

__all__ = ["dedekind_sum", "gen_dedekind_sum", "dc_sum", "alt_power_sum", "theorem8_rhs",
           "lattice_partition"]


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _require_coprime(h: int, k: int) -> None:
    if gcd(h, k) != 1:
        raise ValueError(f"arguments must be coprime, got gcd({h}, {k}) = {gcd(h, k)}")


def dedekind_sum(h: int, k: int) -> Rational:
    """Classical Dedekind sum S(h,k) = sum_{u=1}^{k-1} ((u/k)) ((hu/k)).

    Requires gcd(h, k) = 1.  S(h, 1) = 0 (empty sum).  S(h,k) = S_1(h,k):
    Bbar_1 = ((.)) off the integers, ah/k is never an integer for 0 < a < k,
    and (a/k) - ((a/k)) = 1/2 adds (1/2) sum_a ((ah/k)) = 0.
    """
    return gen_dedekind_sum(1, h, k)


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
    sign = -1 if p % 2 else 1
    total = sum((a + sign * (k - a)) * _horner(b, a * h % k) for a in range(1, (k + 1) // 2))
    if k % 2 == 0:
        total += k // 2 * _horner(b, k // 2 * h % k)
    return Fraction(total, poly.den * k ** (p + 1))


def _signed_line(b: tuple[int, ...], p: int, step: int, modulus: int, count: int) -> int:
    """sum_{j=1}^{count-1} (-1)^(j+q-1) j P(r), with q, r = divmod(j step, modulus).

    P is E_p scaled to the modulus (b = ``euler_poly(p).scaled(modulus)``),
    and count step is a multiple of the modulus.
    """
    c = count * step // modulus
    flip = 1 if (count + c + p) % 2 else -1
    flip_at_zero = -1 if (count + c) % 2 else 1
    total = 0
    for j in range(1, (count + 1) // 2):
        q, r = divmod(j * step, modulus)
        if r:
            term = (j + flip * (count - j)) * _horner(b, r)
        else:
            term = (j + flip_at_zero * (count - j)) * b[-1]
        total += term if (j + q) % 2 else -term
    if count % 2 == 0:
        j = count // 2
        q, r = divmod(j * step, modulus)
        term = j * _horner(b, r)
        total += term if (j + q) % 2 else -term
    return total


def dc_sum(p: int, h: int, k: int) -> Rational:
    """DC sum T_p(h,k) = 2 sum_{u=1}^{k-1} (-1)^(u-1) (u/k) Ebar_p(hu/k).

    With q, r = divmod(hu, k), Ebar_p(hu/k) = (-1)^q E_p(r/k), and
    k^p D E_p(r/k) is the integer polynomial sum_i num_i r^i k^(p-i), so
    T_p(h,k) = 2 sum_u (-1)^(u-1+q) u (k^p D E_p(r/k)) / (D k^(p+1)),
    which is ``_signed_line`` with step h and modulus and count k.

    The definition needs no coprimality, so none is demanded here; the
    reciprocity audits impose their own hypotheses.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    _require_positive("h", h)
    _require_positive("k", k)
    poly = euler_poly(p)
    return Fraction(2 * _signed_line(poly.scaled(k), p, h, k, k), poly.den * k ** (p + 1))


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
    total = k * _signed_line(b, p, k, m, h) + h * _signed_line(b, p, h, m, k)
    flip = 1 if (h + k + p) % 2 else -1
    lift = 0 if periodic else (-2 if (h + k) % 2 else 2) * poly.den
    for u in range(1, k):
        for uv, n in enumerate(range(u * h + k, m, k), u + 1):  # uv = u + v, v >= 1
            term = (n + flip * (2 * m - n)) * _horner(b, n)
            if lift:
                term += lift * (2 * m - n) * (m - n) ** p
            total += term if uv % 2 else -term
        if u * h % k == 0:  # n = m at v = h - uh/k
            q, r = (1, 0) if periodic else (0, m)
            term = m * _horner(b, r)
            total += term if (u + h - u * h // k + q) % 2 else -term
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
