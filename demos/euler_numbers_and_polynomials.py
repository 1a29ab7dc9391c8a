"""Tour of the exact Euler/Bernoulli layer.

Shows the number sequences, the polynomials, the derivative and corrected
integral identities, and the independent generating-series oracle that
cross-checks the tangent-number path.  Run: python demos/euler_numbers_and_polynomials.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dcsums import (
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    format_rational,
    poly_derivative,
    poly_integral,
    series_coeffs_oracle,
)

print("Euler numbers E_0..E_9 (E_1 = -1/2; even indices >= 2 vanish):")
print(" ", ", ".join(format_rational(euler_number(n)) for n in range(10)))

print("\nBernoulli numbers B_0..B_6 (B_1 = -1/2 convention):")
print(" ", ", ".join(format_rational(bernoulli_number(n)) for n in range(7)))

print("\nEuler polynomials:")
for n in range(5):
    print(f"  E_{n}(x) = {euler_poly(n)}")

print("\nBernoulli polynomials:")
for n in range(4):
    print(f"  B_{n}(x) = {bernoulli_poly(n)}")

x = Fraction(1, 3)
print(f"\nExact evaluation: E_3(1/3) = {format_rational(euler_poly(3).eval(x))}")

print("\nDerivative identity E_n'(x) = n E_(n-1)(x):")
for n in (3, 7):
    print(f"  E_{n}' = {poly_derivative(euler_poly(n))}")
    assert poly_derivative(euler_poly(n)) == n * euler_poly(n - 1)

print("\nAntiderivative with zero constant term; note the -E_(n+1) shift that")
print("the commonly printed integral formula drops (compare n = 0: x vs x - 1/2):")
for n in (0, 1, 3):
    print(f"  int_0^x E_{n} = {poly_integral(euler_poly(n))}")

print("\nGenerating-series oracle vs tangent-number path, n <= 12 at x = 0 and x = 1/3:")
for x in (Fraction(0), Fraction(1, 3)):
    oracle = series_coeffs_oracle(12, "euler", x)
    assert all(oracle[n] == euler_poly(n).eval(x) for n in range(13))
    print(f"  agree at x = {format_rational(x)}")

print("\nAll identities above checked exactly (no floating point anywhere).")
