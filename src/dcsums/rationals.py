"""Exact scalar arithmetic: canonical rationals, binomials, text encoding.

The universal scalar is ``fractions.Fraction``, which maintains exactly the
canonical form the rest of the package relies on: positive denominator,
gcd(|numerator|, denominator) = 1, and zero stored as 0/1.  ``Rational`` is
an alias so call sites read like the identities they implement.  Values are
immutable and safe to share between threads.
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
_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


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
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Rational:
    """Parse ``a`` or ``a/b`` (optional leading ``-``) into a canonical Rational."""
    s = text.strip()
    if _RATIONAL_RE.fullmatch(s) is None:
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None
