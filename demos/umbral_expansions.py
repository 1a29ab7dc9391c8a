"""Umbral notation: (E + x)^n and powers of linear forms in several umbrae.

Run: python demos/umbral_expansions.py
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dcsums import (
    dc_sum,
    euler_number,
    euler_poly,
    format_rational,
    theorem9_rhs,
    umbral_power,
)

print("A single unshifted umbra is the Euler number sequence, (E+0)^p = E_p:")
for p in range(6):
    assert umbral_power([(1, 0, 0)], p) == euler_number(p)
print("  checked for p <= 5")

print("\nA shifted umbra is the Euler polynomial, (E + x)^n = E_n(x):")
x = Fraction(1, 3)
for n in (1, 3):
    value = umbral_power([(1, x, 0)], n)
    assert value == euler_poly(n).eval(x)
    print(f"  (E + 1/3)^{n} = {format_rational(value)}")

print("\nTwo independent umbrae expand binomially:")
print("  (E + E')^3        =", format_rational(umbral_power([(1, 0, 0), (1, 0, 1)], 3)))
print("  (hE + kE')^1      =", format_rational(umbral_power([(2, 0, 0), (5, 0, 1)], 1)),
      " for h=2, k=5  (always -(h+k)/2)")
print("  (3(E+1/3)+3(E'+1))^3 =",
      format_rational(umbral_power([(3, Fraction(1, 3), 0), (3, 1, 1)], 3)))

print("\nThe umbral reciprocity right side, assembled purely from these powers:")
for p, h, k in [(3, 1, 1), (3, 1, 3), (5, 3, 7)]:
    rhs = theorem9_rhs(p, h, k)
    lhs = k**p * dc_sum(p, h, k) + h**p * dc_sum(p, k, h)
    print(f"  p={p}, (h,k)=({h},{k}): lhs {format_rational(lhs):>12}  "
          f"rhs {format_rational(rhs):>12}  residual {format_rational(lhs - rhs)}")
print("  (the audit registry records these exact residuals; see FINDINGS.md)")
