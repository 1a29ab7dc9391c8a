import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from dcsums import (
    euler_number,
    euler_poly,
    get_check,
    theorem9_rhs,
    umbral_power,
)
from dcsums.umbral import lattice_power_sum

import oracles


def rand_rational(rng, span=20, den=16):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def test_single_unshifted_umbra_gives_euler_numbers():
    for p in range(12):
        assert umbral_power([(1, 0, 0)], p) == euler_number(p)


def test_two_umbra_examples():
    assert umbral_power([(1, 0, 0), (1, 0, 1)], 3) == Fraction(1, 2)
    for h, k in [(1, 1), (2, 5), (3, 7)]:
        assert umbral_power([(h, 0, 0), (k, 0, 1)], 1) == Fraction(-(h + k), 2)
    assert umbral_power([(3, Fraction(1, 3), 0), (3, 1, 1)], 3) == Fraction(-25, 2)


def test_duplicate_umbra_ids_rejected():
    with pytest.raises(ValueError):
        umbral_power([(1, 0, 0), (1, Fraction(1, 2), 0)], 2)


def test_single_umbra_consistency_with_euler_polynomials():
    # (E + x)^n = E_n(x)
    rng = random.Random(424242)
    for _ in range(100):
        x = rand_rational(rng)
        for n in range(11):
            assert umbral_power([(1, x, 0)], n) == euler_poly(n).eval(x)


def test_two_umbra_expansion_matches_term_by_term_oracle():
    rng = random.Random(5151)
    for _ in range(25):
        a, b = rand_rational(rng), rand_rational(rng)
        xa, xb = rand_rational(rng, 6, 6), rand_rational(rng, 6, 6)
        for p in range(10):
            expected = oracles.upow2(a, xa, b, xb, p)
            assert umbral_power([(a, xa, 0), (b, xb, 1)], p) == expected


def test_three_umbrae_against_multinomial_expansion():
    # umbral_power folds one umbra at a time; the independent path is the
    # multinomial sum over s1 + s2 + s3 = p of p!/(s1! s2! s3!) prod a^s E_s(x).
    rng = random.Random(77)
    for _ in range(10):
        a, b, c = (rand_rational(rng, 6, 4) for _ in range(3))
        x, y, z = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
                   for _ in range(3))
        for p in range(7):
            expected = Fraction(0)
            for s1 in range(p + 1):
                for s2 in range(p - s1 + 1):
                    s3 = p - s1 - s2
                    coef = factorial(p) // (
                        factorial(s1) * factorial(s2) * factorial(s3)
                    )
                    expected += (
                        coef
                        * a**s1 * oracles.euler_value(s1, x)
                        * b**s2 * oracles.euler_value(s2, y)
                        * c**s3 * oracles.euler_value(s3, z)
                    )
            got = umbral_power([(a, x, 0), (b, y, 1), (c, z, 2)], p)
            assert got == expected


def test_four_umbrae_against_multinomial_expansion():
    # Two inner folds: the umbra sequences are read at every power up to p.
    rng = random.Random(4444)
    for _ in range(6):
        terms = [(rand_rational(rng, 5, 4), rand_rational(rng, 6, 6), umbra)
                 for umbra in (3, 0, 7, 1)]
        for p in range(7):
            expected = Fraction(0)
            for head in product(range(p + 1), repeat=3):
                if sum(head) > p:
                    continue
                powers = (*head, p - sum(head))
                term = Fraction(factorial(p))
                for s, (a, x, _) in zip(powers, terms):
                    term *= a**s * oracles.euler_value(s, x) / factorial(s)
                expected += term
            assert umbral_power(terms, p) == expected, (terms, p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9), st.integers(1, 12), st.integers(1, 12),
       st.lists(st.lists(st.integers(-5, 5), min_size=12, max_size=12),
                min_size=12, max_size=12))
def test_lattice_power_sum_matches_term_by_term_oracle(p, h, k, table):
    # Any integer weight over (u, j); p may be 0 or even, and h, k need not be coprime.
    expected = Fraction(0)
    for u in range(k):
        j = h * u // k
        expected += table[u][j] * oracles.upow2(k * h, Fraction(u, k), k, h - j, p)
    assert lattice_power_sum(p, h, k, lambda u, j: table[u][j]) == expected


def test_empty_form_and_power_zero():
    assert umbral_power([], 0) == 1
    assert umbral_power([], 3) == 0
    assert umbral_power([(2, Fraction(1, 2), 0)], 0) == 1
    for terms in ([], [(1, 0, 0)]):
        with pytest.raises(ValueError):
            umbral_power(terms, -1)


def test_theorem9_rhs_values():
    # (3,1,1): empty u-sum; (E+E')^3 = 1/2 plus 5 E_3 = 5/4.
    assert theorem9_rhs(3, 1, 1) == Fraction(7, 4)
    assert theorem9_rhs(3, 1, 3) == Fraction(-67, 4)


def test_theorem9_rhs_matches_independent_oracle():
    for p in (1, 3, 5):
        for h in (1, 2, 3, 5):
            for k in (1, 3, 4, 7):
                assert theorem9_rhs(p, h, k) == oracles.t9_rhs(p, h, k)
    # The lattice kernel up to p = 11, with even and non-coprime pairs.
    for p in (7, 9, 11):
        for h, k in [(1, 1), (2, 4), (4, 6), (6, 9), (3, 8), (5, 7), (8, 3), (12, 10), (9, 12)]:
            assert theorem9_rhs(p, h, k) == oracles.t9_rhs(p, h, k)
    assert theorem9_rhs(11, 13, 501) == oracles.t9_rhs(11, 13, 501)


def test_thm7_rhs_matches_independent_oracle():
    rhs = get_check("thm7").rhs
    for p in (3, 5, 7, 9, 11):
        for h, k in [(1, 1), (1, 3), (2, 5), (4, 9), (6, 9), (7, 3), (10, 7), (13, 11), (8, 12)]:
            params = {"p": p, "h": h, "k": k}
            assert rhs(p, h, k) == oracles.check_sides("thm7", params)[1], params
    assert rhs(5, 4, 301) == oracles.check_sides("thm7", {"p": 5, "h": 4, "k": 301})[1]


def test_theorem9_rhs_rejects_even_power():
    with pytest.raises(ValueError):
        theorem9_rhs(2, 1, 3)
    with pytest.raises(ValueError):
        theorem9_rhs(0, 1, 3)
    with pytest.raises(ValueError):
        theorem9_rhs(3, 0, 3)


def test_theorem9_summand_count_bounded_by_modulus():
    for h in (1, 2, 3, 7):
        for k in (1, 2, 5, 9):
            count = sum(
                1 for u in range(k) if (u - (h * u) // k) % 2 == 1
            )
            assert 0 <= count <= k


def test_mixed_closed_sum_equals_double_sum_when_h_is_one():
    # The closed mixed Euler sum agrees with the k^p-weighted double sum for
    # h = 1 (and more generally whenever h is 1 mod k); the audit registry
    # records the exact residual elsewhere.
    for p in (3, 5):
        for h, k in [(1, 3), (1, 5), (7, 3), (4, 3)]:
            assert gcd(h, k) == 1
            lhs = sum(
                comb(p, s)
                * k ** (p - s)
                * euler_number(s)
                * h ** (p - s)
                * euler_poly(p - s).eval(1)
                for s in range(p + 1)
            )
            inner_total = Fraction(0)
            for u in range(k):
                inner = sum(
                    comb(p, s)
                    * h**s
                    * euler_poly(s).eval(Fraction(u, k))
                    * euler_poly(p - s).eval(h - (h * u) // k)
                    for s in range(p + 1)
                )
                inner_total += inner if u % 2 == 0 else -inner
            assert lhs == k**p * inner_total
