import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcsums import (
    Poly,
    bernoulli_function,
    binomial,
    euler_function,
    euler_poly,
    floor_frac,
    format_rational,
    parse_rational,
    sawtooth,
    umbral_power,
)

rationals = st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6)


def test_binomial_base_cases():
    assert binomial(5, 0) == 1
    assert binomial(3, 1) == 3
    assert binomial(5, 2) == 10  # matches the Pascal-triangle oracle below
    assert binomial(0, 0) == 1


def test_binomial_vanishes_above_triangle():
    assert binomial(3, 5) == 0
    assert binomial(0, 1) == 0
    assert binomial(7, 100) == 0


def test_binomial_rejects_negative_arguments():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_binomial_satisfies_pascal_recurrence():
    # Independent oracle: build the triangle row by row.
    row = [1]
    for n in range(1, 61):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        for k in range(1, n + 1):
            assert binomial(n, k) == row[k]
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_format_rational():
    assert format_rational(Fraction(13, 54)) == "13/54"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(-7) == "-7"


def test_parse_rational_accepts_canonical_and_unreduced_forms():
    assert parse_rational("13/54") == Fraction(13, 54)
    assert parse_rational("-13/108") == Fraction(-13, 108)
    assert parse_rational("7") == 7
    assert parse_rational("-2") == -2
    assert parse_rational("4/2") == 2
    assert parse_rational(" 1/3 ") == Fraction(1, 3)
    assert parse_rational("\t-13/108\n") == Fraction(-13, 108)
    assert parse_rational("007/010") == Fraction(7, 10)
    assert parse_rational("-0/5") == 0


@pytest.mark.parametrize(
    "bad", ["", "1.5", "+3", "1/-2", "a/b", "1/2/3", "1/0", "--1", "\u0661/\u0663"]
)
def test_parse_rational_rejects_non_literals(bad):
    message = "zero denominator" if bad == "1/0" else "not a rational literal"
    with pytest.raises(ValueError, match=message):
        parse_rational(bad)


def test_inexact_inputs_raise_type_error():
    # No floats anywhere: a binary float or a string is rejected, never converted.
    calls = [
        lambda: euler_poly(3).eval(0.1),
        lambda: euler_poly(2).eval("1/3"),
        lambda: sawtooth(0.1),
        lambda: bernoulli_function(2, 0.1),
        lambda: euler_function(3, 0.1),
        lambda: floor_frac("1/2"),
        lambda: umbral_power([(0.5, 0, 0)], 3),
        lambda: umbral_power([(1, "1/3", 0)], 3),
        lambda: Poly([1, 0.5]),
        lambda: Poly(["1/2"]),
        lambda: Poly([1, 2]) * 0.5,
        lambda: 0.5 * Poly([1, 2]),
        lambda: format_rational(0.5),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            call()


@given(rationals, rationals)
def test_addition_is_exact(a, b):
    assert (a + b) - b == a


@given(rationals, rationals.filter(lambda q: q != 0))
def test_multiplication_is_exact(a, b):
    assert (a * b) / b == a


@given(rationals)
def test_canonical_form_invariants(q):
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    assert parse_rational(format_rational(q)) == q
