"""Finite sums: classical/generalized Dedekind sums, DC sums, and friends.

The *values* are the contract: each sum returns exactly the rational its
defining summation gives.  The direct definitions live, term by term in
``Fraction`` arithmetic, in ``tests/oracles.py``, which shares no code with
this module and re-checks it.  Here every summand is scaled onto one common
denominator, so a sum accumulates Python ints and builds a single
``Fraction`` at the end.  The scaling is an integer form of ``Poly`` (see
its docstring), with D = ``P.den``:

- ``gen_dedekind_sum`` reads B_p through ``P.scaled(m)``, the Horner
  coefficients of r -> m^p D P(r/m).  At p = 1, which S(h,k) is, the
  centred form measured slower: forming y and y^2 costs more than the one
  Horner step it saves.
- The DC sums read E_p through ``P.centered(m)``: at y = 2r - m,
  (2m)^p D E_p(r/m) = y^(p%2) Q(y^2).  Their denominators carry the 2^p.

Each sum pairs its terms by a reflection x -> 1 - x of the residues, with
E_p(1 - x) = (-1)^p E_p(x) and B_p(1 - x) = (-1)^p B_p(x), so one
evaluation serves a term and its mirror, about k/2 or hk/2 in all.  In the
centred form the reflection is y -> -y: Q(y^2) is unchanged and y^(p%2)
gives the sign (-1)^p.

- ``gen_dedekind_sum``: a and k - a have residues r and k - r (never 0
  for coprime h, k); the weight is a + (-1)^p (k - a).
- ``_line_points`` (all of ``dc_sum``, and each edge of ``theorem8_rhs``):
  with count step = c modulus, j and count - j have residues r and
  modulus - r and quotients q and c - q - 1; the weight is
  j + (-1)^(count+c+1+p) (count - j).  At r = 0 (y = -modulus) the
  partner's residue is 0 too and its quotient c - q.
- ``theorem8_rhs``, m = hk: (u, v) -> (-u mod k, -v mod h) sends
  n = uh + vk to m - n on the edges u = 0, v = 0, and inside the lattice
  a point with n < m (q = 0, r = n) to 2m - n (q = 1, r = m - n); the
  weight is n + (-1)^(h+k+1+p) (2m - n).  The plain form's partner value
  E_p(1 + z) = 2z^p - E_p(z), z = (m - n)/m, adds 2D (m - n)^p, or
  2D (2m - 2n)^p on the centred scale: with the pair weight,
  D (2m + z) z^p at z = 2m - 2n, a moment of the points z weighted 2m + z
  (``_lift_points``).

Summed directly are the terms the reflection fixes (the middle of an even
count) and those it does not pair that way (residue 0, and n = m on the
lattice: the g - 1 points u = tk/g, 0 < t < g, of g = gcd(h, k) > 1,
where both forms of F_p read -E_p(0) = E_p(1), as p >= 1).

The DC kernels do not evaluate Q point by point.  A reflection pair of
terms is a point x = y^2 with an integer weight w that holds the pair's
sign and weight and y^(p%2), so a sum is sum_i q_i M_i over Q's
coefficients q_i and the power moments M_i = sum w x^i of its points
(``moments``).  The points depend on p only through p % 2, so inside a
``sweep`` one moment vector per point set serves every p of the grid.

The classical Dedekind sum S(h,k) is computed as its p = 1 member S_1(h,k).
Coprimality is demanded only where the definition itself needs it; theorem
hypotheses are enforced by the audit registry, not here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle
from math import gcd
from typing import Iterator

from .appell import _horner, bernoulli_poly, euler_poly
from .moments import _dot, _moments
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


def _line_points(step: int, modulus: int, count: int, odd: int, scale: int = 1
                 ) -> Iterator[tuple[int, int]]:
    """The points (w, x) of the line sum_{j=1}^{count-1} (-1)^(j+q-1) j P(r).

    Here q, r = divmod(j step, modulus), P is E_p centred on the modulus,
    odd = p % 2, and count step is a multiple of the modulus.  With
    y = 2r - modulus, P(r) = y^odd Q(y^2), so a reflection pair is the
    point x = y^2 with weight +-(j + flip (count - j)) y^odd, times ``scale``;
    the middle term of an even count comes last.
    """
    c = count * step // modulus
    flip = 1 if (count + c + odd) % 2 else -1
    flip_at_zero = -1 if (count + c) % 2 else 1
    for j in range(1, (count + 1) // 2):
        q, r = divmod(j * step, modulus)
        y = 2 * r - modulus
        w = (j + (flip if r else flip_at_zero) * (count - j)) * scale
        if odd:
            w *= y
        yield (w if (j + q) % 2 else -w), y * y
    if count % 2 == 0:  # j = count/2: r = 0 for even c, modulus/2 for odd c
        j, q = count // 2, c // 2
        y = 0 if c % 2 else -modulus
        w = j * scale * y**odd
        yield (w if (j + q) % 2 else -w), y * y


def _dc_line(p: int, h: int, k: int) -> int:
    """The integer S with T_p(h,k) = 2 S / (D k^(p+1) 2^p), D = ``euler_poly(p).den``.

    S is the line with step h and modulus and count k; ``dc_sum`` and the
    audit's reciprocity left side both build on it.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    _require_positive("h", h)
    _require_positive("k", k)
    return _dot(p, euler_poly(p).centered(k), _line_points, h, k, k, p % 2)


def dc_sum(p: int, h: int, k: int) -> Rational:
    """DC sum T_p(h,k) = 2 sum_{u=1}^{k-1} (-1)^(u-1) (u/k) Ebar_p(hu/k).

    With q, r = divmod(hu, k), Ebar_p(hu/k) = (-1)^q E_p(r/k), and
    (2k)^p D E_p(r/k) is the integer y^(p%2) Q(y^2) at y = 2r - k, so
    T_p(h,k) = 2 sum_u (-1)^(u-1+q) u ((2k)^p D E_p(r/k)) / (D k^(p+1) 2^p),
    which is ``_dc_line``.

    The definition needs no coprimality, so none is demanded here; the
    reciprocity audits impose their own hypotheses.
    """
    return Fraction(2 * _dc_line(p, h, k), euler_poly(p).den * k ** (p + 1) << p)


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


def _lattice_points(h: int, k: int, odd: int) -> Iterator[tuple[int, int]]:
    """The points of ``theorem8_rhs`` on the modulus m = hk: both edges, then the inside.

    The points n = m, which only a non-coprime h, k has, are left out.
    """
    m = h * k
    return chain(_line_points(k, m, h, odd, k), _line_points(h, m, k, odd, h),
                 _inside_rows(h, k, odd))


def _inside(h: int, k: int) -> Iterator[tuple[int, int]]:
    """The inside points n = uh + vk < m, u in [1, k), v >= 1, as pairs (sign, y).

    Here sign = (-1)^(u+v-1) and y = 2n - m.  Row u starts at v = 1 with
    sign (-1)^u and ends before v = h - floor(uh/k), where y = m + 2 (uh mod k).
    """
    m = h * k
    return chain.from_iterable(zip(cycle((-1, 1) if u % 2 else (1, -1)),
                                   range(2 * (u * h + k) - m, m + 2 * (u * h % k), 2 * k))
                               for u in range(1, k))


def _inside_rows(h: int, k: int, odd: int) -> Iterator[tuple[int, int]]:
    """The inside points (w, x), x = y^2, weighted sign (pair weight) y^odd."""
    m = h * k
    # The pair weight n + flip (2m - n), at n = (y + m)/2: 2m, or y - m.
    a, c = (2 * m, 0) if (h + k + odd) % 2 else (-m, 1)
    return ((s * (a + c * y) * (y if odd else 1), y * y) for s, y in _inside(h, k))


def _lift_points(h: int, k: int) -> Iterator[tuple[int, int]]:
    """The points z = m - y = 2(m - n) of the inside, weighted +-(2m + z) with the signs there."""
    m = h * k
    return ((s * (3 * m - y), m - y) for s, y in _inside(h, k))


def theorem8_rhs(p: int, h: int, k: int, periodic: bool = True) -> Rational:
    """Double sum 2(hk)^p sum_{u,v} (-1)^(u+v-1) ((uh+vk)/(hk)) F_p(u/k + v/h).

    F is the antiperiodic Euler function when ``periodic`` (the form the
    derivation uses) and the plain Euler polynomial otherwise (the form the
    reciprocity statement prints).  The two differ exactly on the lattice
    points with u/k + v/h >= 1.

    With n = uh + vk both the weight and the argument are n/(hk).  The
    periodic form takes q, r = divmod(n, hk) and F_p(n/(hk)) = (-1)^q
    E_p(r/(hk)); the plain form takes q, r = 0, n.  Since (2hk)^p D
    E_p(r/(hk)) is the integer y^(p%2) Q(y^2) at y = 2r - hk, the double sum
    is 2 sum_{u,v} (-1)^(u+v-1+q) n ((2hk)^p D E_p(r/(hk))) / (D hk 2^p):
    the moments of ``_lattice_points``, the n = m terms, and in the plain
    form the moments of ``_lift_points``.
    """
    _require_positive("p", p)
    _require_positive("h", h)
    _require_positive("k", k)
    k, h = sorted((h, k))  # the sum is symmetric: walk the lattice in the fewest rows
    m = h * k
    odd = p % 2
    poly = euler_poly(p)
    b = poly.centered(m)
    total = _dot(p, b, _lattice_points, h, k, odd)
    g = gcd(h, k)
    if g > 1:  # n = m at u = tk/g, v = h - th/g, 0 < t < g: y = -m in both forms
        signs = sum([(-1) ** ((h + t * (k - h) // g) % 2) for t in range(1, g)])
        total += signs * m * (-m if odd else 1) * _horner(b, m * m)
    if not periodic:  # 2D (2m - n) (2m - 2n)^p = D (2m + z) z^p
        lift = _moments(p, _lift_points, h, k)[p]
        total += (-1 if (h + k) % 2 else 1) * poly.den * lift
    return Fraction(2 * total, poly.den * m << p)


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
