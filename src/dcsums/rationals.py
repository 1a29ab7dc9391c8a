"""Exact scalar arithmetic: canonical rationals, binomials, text encoding.

The universal scalar is ``fractions.Fraction``, which maintains exactly the
canonical form the rest of the package relies on: positive denominator,
gcd(|numerator|, denominator) = 1, and zero stored as 0/1.  ``Rational`` is
an alias so call sites read like the identities they implement.  Values are
immutable and safe to share between threads.  No floats anywhere: ``exact``
is the one gate that public entry points pass their rational inputs through.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

__all__ = [
    "Rational",
    "binomial",
    "format_rational",
    "parse_rational",
]

Rational = Fraction

# 'a' or 'a/b' in ASCII digits with an optional leading minus; nothing else.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def exact(x: Rational | int) -> Rational | int:
    """x itself if it is an int or a Fraction; a float, str or other type raises TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 whenever k > n.

    The k > n convention matters: several audited identities place a
    binomial outside its triangle and are only evaluable because the
    out-of-range factor vanishes.
    """
    if n < 0 or k < 0:
        raise ValueError(f"binomial expects nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


def format_rational(q: Rational | int) -> str:
    """Canonical text form: ``-13/108``; integers render without ``/1``."""
    q = exact(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse ``a`` or ``a/b`` (optional leading ``-``) into a canonical Rational."""
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    den = int(match[2] or 1)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(match[1]), den)
