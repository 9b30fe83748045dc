"""Exact rational polynomials, necklace and cycle polynomials."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidchar.partitions import centralizer_order, divisors, multiplicities, partitions
from braidchar.ratpoly import (
    ONE,
    Z,
    ZERO,
    RatPoly,
    cycle_polynomial,
    necklace_polynomial,
    poly_binomial,
    scaled_cycle_polynomial,
)
from braidchar.tables import COMMAND_LIMITS

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.lists(small_fractions, max_size=5).map(RatPoly)


def test_construction_normalizes():
    assert RatPoly((1, 2, 0, 0)) == RatPoly((1, 2))
    assert RatPoly(()) == ZERO
    assert RatPoly((0,)) == ZERO
    assert not ZERO
    assert ONE.coeffs == (Fraction(1),)
    assert Z.degree == 1
    assert ZERO.degree == -1


def test_coefficient_access():
    p = RatPoly((Fraction(1, 2), 0, 3))
    assert p.coeffs[0] == Fraction(1, 2)
    assert p.coeffs[1] == 0
    assert p.coeffs[2] == 3
    assert p.degree == 2


def test_str_rendering():
    p = (Z**4 - 2 * Z**3 + Z**2) / 4
    assert str(p) == "1/4*z^4 - 1/2*z^3 + 1/4*z^2"
    assert str(ZERO) == "0"


def test_string_roundtrip_constant_first():
    p = RatPoly((Fraction(1, 2), 0, 1))
    assert p.to_strings() == ["1/2", "0", "1"]
    assert ZERO.to_strings() == []


def test_pow():
    assert Z**0 == ONE
    assert Z**5 == RatPoly((0,) * 5 + (1,))
    assert (ONE + Z) ** 2 == ONE + 2 * Z + Z**2
    with pytest.raises(ValueError):
        Z ** (-1)


@pytest.mark.parametrize(
    "j, expected",
    [
        (1, Z),
        (2, (Z**2 - Z) / 2),
        (3, (Z**3 - Z) / 3),
        (4, (Z**4 - Z**2) / 4),
        (6, (Z**6 - Z**3 - Z**2 + Z) / 6),
    ],
)
def test_necklace_polynomials_frozen(j, expected):
    assert necklace_polynomial(j) == expected


def test_necklace_polynomial_rejects_nonpositive():
    with pytest.raises(ValueError):
        necklace_polynomial(0)


def test_necklace_counts_at_small_primes():
    # degree-d irreducible counts over F_2: 2, 1, 2, 3, 6, 9
    assert [necklace_polynomial(d)(2) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
    assert necklace_polynomial(2)(3) == 3
    assert necklace_polynomial(3)(5) == 40


def test_necklace_inversion():
    for j in range(1, 13):
        total = ZERO
        for d in divisors(j):
            total = total + d * necklace_polynomial(d)
        assert total == Z**j


def test_necklace_denominator_clears():
    for j in range(1, 31):
        for c in (j * necklace_polynomial(j)).coeffs:
            assert c.denominator == 1


def test_poly_binomial_frozen():
    assert poly_binomial(Z, 4) == (Z**4 - 6 * Z**3 + 11 * Z**2 - 6 * Z) / 24
    assert poly_binomial(necklace_polynomial(2), 2) == (Z**4 - 2 * Z**3 - Z**2 + 2 * Z) / 8
    assert poly_binomial(Z, 0) == ONE
    assert poly_binomial(ZERO, 0) == ONE


def test_poly_binomial_degree():
    for m in range(1, 6):
        assert poly_binomial(Z**2 + Z, m).degree == 2 * m


@pytest.mark.parametrize(
    "lam, expected",
    [
        ((2, 1, 1), (Z**4 - 2 * Z**3 + Z**2) / 4),
        ((2, 2), (Z**4 - 2 * Z**3 - Z**2 + 2 * Z) / 8),
        ((3, 1), (Z**4 - Z**2) / 3),
        ((1, 1, 1, 1), poly_binomial(Z, 4)),
        ((5,), necklace_polynomial(5)),
    ],
)
def test_cycle_polynomials_frozen(lam, expected):
    assert cycle_polynomial(lam) == expected


def test_cycle_polynomial_validates_partition():
    assert cycle_polynomial([2, 1, 1]) == cycle_polynomial((2, 1, 1))
    with pytest.raises(ValueError, match="weakly decreasing"):
        cycle_polynomial((1, 2))


def test_scaled_cycle_polynomial_matches_binomial_product():
    """The integer product equals z_lam prod_j binom(M_j, m_j), formed over Q."""
    # past n = 12: one long group of ones, and eleven distinct parts, the
    # deepest recursion over part groups
    cases = [lam for n in range(1, 13) for lam in partitions(n)]
    cases += [(1,) * 60, tuple(range(11, 0, -1))]
    for lam in cases:
        expected = RatPoly((centralizer_order(lam),))
        for j, m in multiplicities(lam).items():
            expected = expected * poly_binomial(necklace_polynomial(j), m)
        scaled = scaled_cycle_polynomial(lam)
        assert all(type(c) is int for c in scaled), lam
        assert scaled == expected.coeffs, lam


def test_scaled_cycle_polynomial_at_the_cycle_poly_limit():
    """1^800 is z(z - 1)...(z - 799), reached in one group: no recursion per part."""
    n = COMMAND_LIMITS["cycle-poly"]
    scaled_cycle_polynomial.cache_clear()
    scaled = scaled_cycle_polynomial((1,) * n)
    assert scaled_cycle_polynomial.cache_info().currsize == 2  # 1^800 and ()
    assert len(scaled) == n + 1
    assert scaled[0] == 0 and scaled[n] == 1
    assert scaled[1] == (-1) ** (n - 1) * factorial(n - 1)


@pytest.mark.parametrize("j", range(1, 7))
@pytest.mark.parametrize("m", range(1, 7))
def test_scaled_cycle_polynomial_rectangles(j, m):
    """(j^m): binom(M_j, m) j^m m! is the integer factor prod_{i<m} (j M_j - i j)."""
    factor = poly_binomial(necklace_polynomial(j), m) * (j**m * factorial(m))
    assert scaled_cycle_polynomial((j,) * m) == factor.coeffs


def test_cycle_polynomial_shape():
    for n in range(2, 10):
        for lam in partitions(n):
            p = cycle_polynomial(lam)
            assert p.degree == n
            assert p(0) == 0
            assert p(1) == 0
            assert p.coeffs[n] == Fraction(1, centralizer_order(lam))


def test_cycle_polynomial_sum():
    for n in range(2, 13):
        total = ZERO
        for lam in partitions(n):
            total = total + cycle_polynomial(lam)
        assert total == Z**n - Z ** (n - 1)


def test_scalar_division():
    assert (2 * Z) / 2 == Z
    assert (Z**2 + Z) / Fraction(1, 3) == 3 * Z**2 + 3 * Z


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    assert a * ONE == a
    assert a * ZERO == ZERO


@given(polys, polys, small_fractions)
def test_evaluation_is_a_homomorphism(a, b, x):
    assert (a * b)(x) == a(x) * b(x)
    assert (a + b)(x) == a(x) + b(x)


@given(polys)
def test_string_roundtrip_hypothesis(p):
    assert [Fraction(s) for s in p.to_strings()] == list(p.coeffs)
