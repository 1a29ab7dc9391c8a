from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dcsums import (
    alt_power_sum,
    dc_sum,
    dedekind_sum,
    euler_function,
    euler_number,
    euler_poly,
    gen_dedekind_sum,
    lattice_partition,
    theorem8_rhs,
)

import oracles


# Each kernel evaluates E_p or B_p once per reflection pair (u, k - u), or
# (u, v) and its mirror on the lattice.  The property tests draw both
# parities of p, h and k, h > k, k in {1, 2}, and common factors g, so they
# reach the points a pairing must sum directly: the middle u = k/2, the
# lattice centre (k/2, h/2), residue 0, and n = hk.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def moduli(draw):
    """(h, k) <= 40; a drawn common factor g makes a non-coprime pair likely."""
    g = draw(st.sampled_from((1, 1, 2, 3, 4, 6)))
    side = st.one_of(st.sampled_from((1, 2)), st.integers(1, 40 // g))
    return g * draw(side), g * draw(side)


# --- classical Dedekind sums -------------------------------------------------

def test_dedekind_sum_values():
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 3) == Fraction(-1, 18)
    for h in (1, 2, 5):
        assert dedekind_sum(h, 1) == 0


def test_dedekind_sum_matches_direct_oracle():
    for k in range(1, 16):
        for h in range(1, 16):
            if gcd(h, k) == 1:
                assert dedekind_sum(h, k) == oracles.dedekind(h, k)
    for h, k in ((3, 1001), (37, 20011), (7, 20000), (50, 9999)):
        assert dedekind_sum(h, k) == oracles.dedekind(h, k)


def test_dedekind_sum_requires_coprime_arguments():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum(0, 3)


def test_classical_reciprocity():
    for k in range(1, 31):
        for h in range(1, k + 1):
            if gcd(h, k) == 1:
                lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
                assert lhs == Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)


# --- generalized Dedekind sums ----------------------------------------------

def test_gen_dedekind_sum_values():
    assert gen_dedekind_sum(1, 1, 2) == 0
    assert gen_dedekind_sum(1, 1, 3) == Fraction(1, 18)
    for p in (1, 2, 3):
        assert gen_dedekind_sum(p, 4, 1) == 0


def test_gen_dedekind_sum_matches_direct_oracle():
    for p in range(1, 7):
        for k in (1, 2, 3, 5, 8, 9):
            for h in (1, 2, 3, 7):
                if gcd(h, k) == 1:
                    assert gen_dedekind_sum(p, h, k) == oracles.gen_dedekind(p, h, k)
    assert gen_dedekind_sum(5, 3, 1001) == oracles.gen_dedekind(5, 3, 1001)


@PROPERTY
@given(st.integers(1, 9), moduli())
@example(2, (3, 2)).via("the middle a = k/2 at even p")
@example(1, (40, 39)).via("h > k")
def test_gen_dedekind_sum_property(p, hk):
    h, k = hk
    assume(gcd(h, k) == 1)
    assert gen_dedekind_sum(p, h, k) == oracles.gen_dedekind(p, h, k)


def test_gen_dedekind_sum_preconditions():
    with pytest.raises(ValueError):
        gen_dedekind_sum(0, 1, 3)
    with pytest.raises(ValueError):
        gen_dedekind_sum(1, 2, 4)


# --- DC sums ------------------------------------------------------------------

def test_dc_sum_golden_values():
    # Golden values fixed by the direct-summation oracle, then pinned.
    assert oracles.dc(1, 1, 3) == Fraction(-1, 3)
    assert oracles.dc(3, 1, 3) == Fraction(13, 54)
    assert oracles.dc(1, 2, 3) == Fraction(-1, 9)
    assert dc_sum(1, 1, 3) == Fraction(-1, 3)
    assert dc_sum(3, 1, 3) == Fraction(13, 54)
    assert dc_sum(1, 2, 3) == Fraction(-1, 9)


def test_dc_sum_empty_for_unit_modulus():
    for p in (0, 1, 4):
        for h in (1, 2, 9):
            assert dc_sum(p, h, 1) == 0


def test_dc_sum_preconditions():
    with pytest.raises(ValueError, match="p must be nonnegative"):
        dc_sum(-1, 1, 3)


def test_dc_sum_allows_non_coprime_arguments():
    # The definition needs no coprimality; only the reciprocity audits do.
    # Checked against the direct oracle for both parities of p, coprime and
    # non-coprime (h, k), k = 1, and one large k.
    assert dc_sum(1, 2, 4) == oracles.dc(1, 2, 4)
    assert dc_sum(3, 6, 9) == oracles.dc(3, 6, 9)
    for p in range(10):
        for h in (1, 2, 3, 4, 6, 9):
            for k in (1, 2, 3, 4, 6, 9, 10):
                assert dc_sum(p, h, k) == oracles.dc(p, h, k)
    assert dc_sum(7, 3, 1001) == oracles.dc(7, 3, 1001)


@PROPERTY
@given(st.integers(0, 9), moduli())
@example(0, (3, 6)).via("residue 0 at u = 2 and the middle u = 3, p = 0")
@example(2, (3, 2)).via("the middle u = k/2 at even p")
def test_dc_sum_property(p, hk):
    h, k = hk
    assert dc_sum(p, h, k) == oracles.dc(p, h, k)


def test_dc_sum_matches_distribution_expansion():
    # Recompute with Ebar(hu/k) opened through the odd-h distribution formula.
    for h in (1, 3, 5, 7, 9):
        for k in (1, 3, 5, 7, 9):
            if gcd(h, k) != 1:
                continue
            for p in range(6):
                expanded = Fraction(0)
                for u in range(1, k):
                    sign = 1 if u % 2 else -1
                    value = h**p * sum(
                        (-1) ** (v % 2)
                        * euler_function(p, Fraction(u, k) + Fraction(v, h))
                        for v in range(h)
                    )
                    expanded += sign * Fraction(u, k) * value
                assert dc_sum(p, h, k) == 2 * expanded


# --- alternating power sums ---------------------------------------------------

def test_alt_power_sum_values():
    assert alt_power_sum(1, 2) == 0
    assert alt_power_sum(2, 1) == -2
    assert alt_power_sum(3, 1) == 2
    assert alt_power_sum(1, 0) == 2  # 0^0 = 1 by convention
    with pytest.raises(ValueError, match="l must be nonnegative"):
        alt_power_sum(3, -1)


def test_alt_power_sum_corrected_closed_form():
    # 2 sum_{k<n} (-1)^k k^l = E_l + (-1)^(n+1) E_l(n); the printed sign
    # (-1)^n fails already at n=2, l=1 (audited separately).
    for n in range(1, 21):
        for l in range(11):
            closed = euler_number(l) + (-1) ** ((n + 1) % 2) * euler_poly(l).eval(n)
            assert alt_power_sum(n, l) == closed


# --- reciprocity right side ----------------------------------------------------

def test_theorem8_rhs_values():
    assert theorem8_rhs(3, 1, 3, periodic=True) == Fraction(13, 2)
    assert theorem8_rhs(3, 1, 3, periodic=False) == Fraction(13, 2)
    assert theorem8_rhs(3, 3, 1, periodic=True) == Fraction(13, 2)
    for p in (1, 3, 5):
        assert theorem8_rhs(p, 1, 1, periodic=True) == 0
        assert theorem8_rhs(p, 1, 1, periodic=False) == 0


def test_theorem8_variants_agree_iff_arguments_stay_below_one():
    # With h = 1 every argument u/k stays in [0,1): the variants agree.
    for p in (3, 5):
        for k in (3, 5, 7):
            assert theorem8_rhs(p, 1, k, periodic=True) == theorem8_rhs(
                p, 1, k, periodic=False
            )
    # With h, k >= 3 some u/k + v/h reaches beyond 1 and they split.
    assert theorem8_rhs(3, 3, 5, periodic=True) != theorem8_rhs(3, 3, 5, periodic=False)


def test_theorem8_rhs_matches_direct_oracle():
    for p in range(1, 10):
        for h in (1, 2, 3, 5, 8, 9):
            for k in (1, 2, 3, 4, 5, 9):
                for periodic in (True, False):
                    assert theorem8_rhs(p, h, k, periodic=periodic) == oracles.t8_rhs(
                        p, h, k, periodic
                    )
    for periodic in (True, False):
        assert theorem8_rhs(5, 7, 61, periodic) == oracles.t8_rhs(5, 7, 61, periodic)


@PROPERTY
@given(st.integers(1, 9), moduli(), st.booleans())
@example(2, (4, 6), True).via("the centre (k/2, h/2) and n = hk, periodic")
@example(2, (4, 6), False).via("the centre (k/2, h/2) and n = hk, plain")
@example(3, (6, 3), True).via("n = hk off the centre, odd p")
def test_theorem8_rhs_property(p, hk, periodic):
    h, k = hk
    assert theorem8_rhs(p, h, k, periodic) == oracles.t8_rhs(p, h, k, periodic)


# --- lattice partition -----------------------------------------------------------

def test_lattice_partition_examples():
    assert lattice_partition(1, 1) == ([0], [])
    assert lattice_partition(1, 3) == ([0, 1, 2], [])
    low, high = lattice_partition(3, 5)
    assert len(low) + len(high) == 15
    assert sorted(v % 15 for v in low + high) == list(range(15))


def test_lattice_partition_complete_residue_system():
    for h in range(1, 16, 2):
        for k in range(1, 16, 2):
            if gcd(h, k) != 1:
                continue
            low, high = lattice_partition(h, k)
            assert len(low) + len(high) == h * k
            assert all(0 <= v < h * k for v in low)
            assert all(h * k + 1 <= v < 2 * h * k for v in high)
            assert sorted(v % (h * k) for v in low + high) == list(range(h * k))


def test_lattice_partition_requires_coprime_arguments():
    with pytest.raises(ValueError):
        lattice_partition(2, 4)
