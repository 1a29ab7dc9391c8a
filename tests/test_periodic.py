import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsums import (
    bernoulli_function,
    bernoulli_number,
    euler_function,
    euler_number,
    euler_poly,
    floor_frac,
    sawtooth,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def rand_rational(rng, span=50, den=40):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def test_floor_frac_examples():
    assert floor_frac(Fraction(7, 3)) == (2, Fraction(1, 3))
    assert floor_frac(Fraction(-1, 2)) == (-1, Fraction(1, 2))
    assert floor_frac(4) == (4, 0)


@given(rationals)
def test_floor_frac_reconstructs(x):
    fl, fr = floor_frac(x)
    assert fl + fr == x
    assert 0 <= fr < 1


def test_sawtooth_examples():
    assert sawtooth(2) == 0
    assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(4, 3)) == Fraction(-1, 6)
    assert sawtooth(Fraction(1, 2)) == 0


@given(rationals)
def test_sawtooth_range_and_zero_locus(x):
    value = sawtooth(x)
    assert Fraction(-1, 2) < value < Fraction(1, 2)
    _, fr = floor_frac(x)
    assert (value == 0) == (2 * fr in (0, 1))


@given(rationals)
def test_sawtooth_is_odd_and_periodic(x):
    assert sawtooth(-x) == -sawtooth(x)
    assert sawtooth(x + 1) == sawtooth(x)


def test_bernoulli_function_examples():
    assert bernoulli_function(1, Fraction(3, 2)) == 0
    assert bernoulli_function(2, Fraction(7, 3)) == Fraction(-1, 18)
    for p in range(1, 8):
        assert bernoulli_function(p, 0) == bernoulli_number(p)


def test_bernoulli_function_requires_positive_order():
    with pytest.raises(ValueError):
        bernoulli_function(0, Fraction(1, 2))


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=8), rationals)
def test_bernoulli_function_is_periodic(p, x):
    assert bernoulli_function(p, x + 1) == bernoulli_function(p, x)


def test_euler_function_examples():
    assert euler_function(3, Fraction(1, 3)) == Fraction(13, 108)
    assert euler_function(3, Fraction(4, 3)) == Fraction(-13, 108)
    assert euler_function(1, Fraction(-1, 2)) == 0
    for p in range(8):
        assert euler_function(p, 0) == euler_number(p)


def test_euler_function_antiperiodicity_over_random_rationals():
    rng = random.Random(1731)
    for _ in range(200):
        x = rand_rational(rng)
        for p in range(10):
            assert euler_function(p, x + 1) == -euler_function(p, x)


def test_euler_function_restricts_to_polynomial_on_unit_interval():
    rng = random.Random(2716)
    samples = [Fraction(0), Fraction(1, 2), Fraction(999, 1000)]
    samples += [Fraction(rng.randint(0, 999), 1000) for _ in range(60)]
    for x in samples:
        assert 0 <= x < 1
        for p in range(10):
            assert euler_function(p, x) == euler_poly(p).eval(x)


def test_euler_function_distribution_formula():
    # Ebar_p(h x) = h^p sum_v (-1)^v Ebar_p(x + v/h) for odd h.
    rng = random.Random(90125)
    for _ in range(100):
        x = rand_rational(rng)
        for h in (1, 3, 5):
            for p in range(8):
                rhs = h**p * sum(
                    (-1) ** (v % 2) * euler_function(p, x + Fraction(v, h))
                    for v in range(h)
                )
                assert euler_function(p, h * x) == rhs


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=9), rationals)
def test_euler_function_antiperiodicity_property(p, x):
    assert euler_function(p, x + 1) == -euler_function(p, x)
