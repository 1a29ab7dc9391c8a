import random
import sys
import threading
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcsums import (
    Poly,
    appell,
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    poly_derivative,
    poly_integral,
)

import oracles

small_rationals = st.fractions(min_value=-100, max_value=100, max_denominator=60)


def rand_rational(rng, span=30, den=24):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


# --- Euler and Bernoulli numbers -------------------------------------------

def test_first_euler_numbers():
    assert [euler_number(n) for n in range(4)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 4),
    ]
    assert euler_number(6) == 0
    assert euler_number(5) == Fraction(-1, 2)  # value fixed by the series oracle


def test_even_euler_numbers_vanish():
    for k in range(1, 16):
        assert euler_number(2 * k) == 0


def test_first_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)


def fresh_number_tables(monkeypatch):
    monkeypatch.setattr(appell, "_NUMBERS", ())


def test_numbers_match_series_oracle(monkeypatch):
    # From empty tables, counting up to 200 crosses several rebuilds.
    fresh_number_tables(monkeypatch)
    euler_series = oracles.series_coeffs_oracle(200, "euler")
    bern_series = oracles.series_coeffs_oracle(200, "bernoulli")
    for n in range(201):
        assert euler_number(n) == euler_series[n]
        assert bernoulli_number(n) == bern_series[n]


def test_bernoulli_numbers_satisfy_von_staudt_clausen(monkeypatch):
    # From empty tables to n = 600, far past the series oracle above: for even
    # n, B_n + sum over primes q with (q - 1) | n of 1/q is an integer and the
    # sign of B_n alternates; B_n = 0 for odd n >= 3.
    fresh_number_tables(monkeypatch)
    primes = [q for q in range(2, 602) if all(q % d for d in range(2, isqrt(q) + 1))]
    for n in range(2, 601):
        b = bernoulli_number(n)
        if n % 2:
            assert b == 0, n
        else:
            assert (b + sum(Fraction(1, q) for q in primes if n % (q - 1) == 0)).denominator == 1, n
            assert (-1) ** (n // 2 + 1) * b > 0, n


def test_concurrent_growth_matches_single_thread_values(monkeypatch):
    indices = (97, 198, 299, 400)
    expected = {n: (euler_number(n), bernoulli_number(n)) for n in indices}
    fresh_number_tables(monkeypatch)
    barrier = threading.Barrier(len(indices))
    results = {}

    def work(n):
        barrier.wait(timeout=10)
        results[n] = (euler_number(n), bernoulli_number(n))

    threads = [threading.Thread(target=work, args=(n,)) for n in indices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


def test_lookup_returns_the_tuple_it_built(monkeypatch):
    # A smaller concurrent rebuild may bind the global last; a lookup must
    # answer from the tuple its own rebuild returned, not re-read the global.
    expected = (euler_number(51), bernoulli_number(50))
    fresh_number_tables(monkeypatch)
    rebuild = appell._rebuild

    def rebuild_then_lose_the_race(n):
        built = rebuild(n)
        appell._NUMBERS = ()
        return built

    monkeypatch.setattr(appell, "_rebuild", rebuild_then_lose_the_race)
    assert (euler_number(51), bernoulli_number(50)) == expected


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        euler_number(-1)
    with pytest.raises(ValueError):
        bernoulli_number(-3)
    for poly in (euler_poly, bernoulli_poly):
        with pytest.raises(ValueError, match="index must be nonnegative"):
            poly(-1)


# --- Polynomials ------------------------------------------------------------

def test_euler_poly_coefficients():
    assert euler_poly(0).coeffs == (Fraction(1),)
    assert euler_poly(1).coeffs == (Fraction(-1, 2), Fraction(1))
    assert euler_poly(3).coeffs == (Fraction(1, 4), Fraction(0), Fraction(-3, 2), Fraction(1))


def test_bernoulli_poly_coefficients():
    assert bernoulli_poly(0).coeffs == (Fraction(1),)
    assert bernoulli_poly(1).coeffs == (Fraction(-1, 2), Fraction(1))
    assert bernoulli_poly(2).coeffs == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_poly_eval_examples():
    assert euler_poly(3).eval(Fraction(1, 3)) == Fraction(13, 108)
    assert euler_poly(1).eval(1) == Fraction(1, 2)
    for n in range(12):
        assert euler_poly(n).eval(0) == euler_number(n)


def test_value_at_one_is_minus_euler_number():
    for n in range(1, 21):
        assert euler_poly(n).eval(1) == -euler_number(n)


def test_poly_text_form():
    assert str(euler_poly(3)) == "x^3 - 3/2*x^2 + 1/4"
    assert str(euler_poly(1)) == "x - 1/2"
    assert str(euler_poly(0)) == "1"
    assert str(Poly()) == "0"
    assert str(poly_derivative(euler_poly(3))) == "3*x^2 - 3*x"


def test_poly_normalization_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))
    assert Poly([0]).coeffs == ()
    assert Poly().degree == -1
    assert euler_poly(7).degree == 7
    # Equal coefficient tuples are one polynomial, and nothing else equals it.
    assert hash(Poly([1, 2, 0])) == hash(Poly([1, 2]))
    assert len({Poly([1, 2, 0]), Poly([1, 2])}) == 1
    assert Poly([1, 2]).__eq__((1, 2)) is NotImplemented
    assert Poly([1, 2]) != (Fraction(1), Fraction(2))


def test_poly_arithmetic_with_zero_and_unequal_lengths():
    assert Poly([1]) * Poly() == Poly() * Poly([1, 2]) == Poly()
    assert Poly([1]) + Poly([0, 2, 3]) == Poly([0, 2, 3]) + Poly([1]) == Poly([1, 2, 3])
    assert Poly([1, 2]) + Poly([3, -2]) == Poly([4])
    assert Poly() + Poly([5]) == Poly([5]) - Poly() == Poly([5])
    assert Poly([1, 2]) - Poly([1, 2]) == Poly()
    # Only a Poly adds to a Poly, from either side (scalars multiply).
    for add in (lambda: Poly([1]) + 1, lambda: Poly([1]) - 1,
                lambda: 1 + Poly([1]), lambda: 1 - Poly([1])):
        with pytest.raises(TypeError):
            add()


# Arbitrary rational coefficients (zeros and non-dyadic denominators
# included); short lists give the zero polynomial and constants often.
coefficients = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30)),
)
polys = st.one_of(
    st.lists(coefficients, max_size=1), st.lists(coefficients, max_size=12)
).map(Poly)
points = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=24),
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


def _direct_value(poly, x):
    x = Fraction(x)
    return sum((c * x**i for i, c in enumerate(poly.coeffs)), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(polys, points)
def test_integer_scaled_eval_matches_direct_sum(poly, x):
    value = poly.eval(x)
    assert type(value) is Fraction
    assert value == _direct_value(poly, x)


@settings(max_examples=200, deadline=None)
@given(polys, st.integers(-(10**6), 10**6), st.integers(1, 10**6))
def test_scaled_horner_vector_is_the_integer_form(poly, r, m):
    scale = m ** max(poly.degree, 0) * poly.den
    assert len(poly.scaled(m)) == len(poly.coeffs)
    assert appell._horner(poly.scaled(m), r) == scale * _direct_value(poly, Fraction(r, m))


def test_derivative_examples():
    assert poly_derivative(euler_poly(3)) == 3 * euler_poly(2)
    assert poly_derivative(Poly([5])) == Poly()
    assert poly_derivative(Poly([0, 1])) == Poly([1])


def test_derivative_identity():
    for n in range(1, 13):
        assert poly_derivative(euler_poly(n)) == n * euler_poly(n - 1)


def test_integral_examples():
    assert poly_integral(euler_poly(0)) == Poly([0, 1])
    assert poly_integral(euler_poly(1)) == Poly([0, Fraction(-1, 2), Fraction(1, 2)])
    assert poly_integral(Poly()) == Poly()


def test_integral_identity_with_constant_term():
    # int_0^x E_n = (E_{n+1}(x) - E_{n+1}) / (n+1); the printed form without
    # the constant already fails at n = 0 (x vs x - 1/2).
    for n in range(13):
        expected = (euler_poly(n + 1) - Poly([euler_number(n + 1)])) * Fraction(1, n + 1)
        assert poly_integral(euler_poly(n)) == expected
    assert poly_integral(euler_poly(0)) != euler_poly(1) * Fraction(1, 1)


def test_addition_theorem_at_random_rational_pairs():
    rng = random.Random(20080917)
    for _ in range(50):
        x, y = rand_rational(rng), rand_rational(rng)
        for p in range(11):
            expected = sum(
                comb(p, s) * euler_poly(s).eval(x) * y ** (p - s)
                for s in range(p + 1)
            )
            assert euler_poly(p).eval(x + y) == expected


def _shifted_coeffs(coeffs, c):
    # p(x + c) expanded with the binomial theorem
    out = [Fraction(0)] * len(coeffs)
    for j, a in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += a * comb(j, i) * c ** (j - i)
    return out


def test_multiplication_theorem_as_polynomial_identity():
    for m in (1, 3, 5, 7):
        for p in range(11):
            base = euler_poly(p).coeffs
            lhs = [a * m**i for i, a in enumerate(base)]  # E_p(mx)
            rhs = [Fraction(0)] * len(base)
            for s in range(m):
                shifted = _shifted_coeffs(list(base), Fraction(s, m))
                sign = 1 if s % 2 == 0 else -1
                for i, a in enumerate(shifted):
                    rhs[i] += sign * a
            rhs = [m**p * a for a in rhs]
            assert lhs == rhs


@settings(max_examples=60)
@given(small_rationals, small_rationals, st.integers(min_value=0, max_value=8))
def test_addition_theorem_property(x, y, p):
    expected = sum(
        comb(p, s) * euler_poly(s).eval(x) * y ** (p - s) for s in range(p + 1)
    )
    assert euler_poly(p).eval(x + y) == expected


def test_binomial_sum_equals_exact_integral():
    # sum_s C(p,s) E_s / (p-s+2) is exactly int_0^1 x E_p(x) dx.
    for p in range(14):
        lhs = sum(
            comb(p, s) * euler_number(s) / Fraction(p - s + 2) for s in range(p + 1)
        )
        q = poly_integral(Poly([0, 1]) * euler_poly(p))
        assert lhs == q.eval(1) - q.eval(0)


def test_agreement_with_independent_test_oracle():
    for n in range(oracles.ORACLE_DEPTH + 1):
        assert euler_number(n) == oracles.EULER_NUMBERS[n]
        assert bernoulli_number(n) == oracles.BERNOULLI_NUMBERS[n]


def test_memo_prefix_is_stable(monkeypatch):
    fresh_number_tables(monkeypatch)
    before = euler_number(3), bernoulli_number(2)
    euler_number(500)  # past the first rebuild
    assert (euler_number(3), bernoulli_number(2)) == before == (Fraction(1, 4), Fraction(1, 6))
