"""Sawtooth, periodic Bernoulli function, and antiperiodic Euler function.

All three are total on the rationals, with floor taken toward minus
infinity.  The Euler function is the unique extension of E_p off [0, 1)
satisfying Ebar_p(x + 1) = -Ebar_p(x); it is evaluated in closed form as
(-1)^floor(x) * E_p(frac(x)), never by summing its Fourier expansion.
"""

from __future__ import annotations

from fractions import Fraction

from .appell import bernoulli_poly, euler_poly
from .rationals import Rational, exact

__all__ = ["floor_frac", "sawtooth", "bernoulli_function", "euler_function"]


def floor_frac(x: Rational | int) -> tuple[int, Rational]:
    """Split x into (floor(x), fractional part) with 0 <= frac < 1."""
    x = Fraction(exact(x))
    fl = x.numerator // x.denominator
    return fl, x - fl


def sawtooth(x: Rational | int) -> Rational:
    """((x)): x - floor(x) - 1/2 for non-integer x, and 0 at integers."""
    _, fr = floor_frac(x)
    if fr == 0:
        return Fraction(0)
    return fr - Fraction(1, 2)


def bernoulli_function(p: int, x: Rational | int) -> Rational:
    """Period-1 Bernoulli function Bbar_p(x) = B_p(x - floor(x)), p >= 1."""
    if p < 1:
        raise ValueError(f"order must be positive, got {p}")
    _, fr = floor_frac(x)
    return bernoulli_poly(p).eval(fr)


def euler_function(p: int, x: Rational | int) -> Rational:
    """Antiperiodic Euler function Ebar_p(x) = (-1)^floor(x) * E_p(x - floor(x))."""
    if p < 0:
        raise ValueError(f"order must be nonnegative, got {p}")
    fl, fr = floor_frac(x)
    val = euler_poly(p).eval(fr)
    return -val if fl % 2 else val
