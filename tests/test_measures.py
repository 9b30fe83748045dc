"""Splitting measure coefficients and evaluation."""

import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidchar import reference
from braidchar.measures import (
    SplittingMeasure,
    measure_value,
    splitting_coefficients,
)
from braidchar.partitions import class_data, partitions
from braidchar.ratpoly import RatPoly, Z, cycle_polynomial


def test_degree_four_identity_row_frozen():
    # one row spelled out in full, the rest against the frozen table
    m = splitting_coefficients((1, 1, 1, 1))
    assert m.scaled == (1, -5, 6, 0)
    assert m.alpha == (
        Fraction(1, 24),
        Fraction(-5, 24),
        Fraction(1, 4),
        Fraction(0),
    )


@pytest.mark.parametrize("n", sorted(reference.MEASURE_ROWS))
def test_reference_measure_tables(n):
    rows = {lam: (c, z, scaled) for lam, c, z, scaled in reference.MEASURE_ROWS[n]}
    assert set(rows) == set(partitions(n))
    for lam, (c, z, scaled) in rows.items():
        data = class_data(lam)
        assert (data.class_size, data.centralizer_order) == (c, z)
        assert splitting_coefficients(lam).scaled == scaled


def test_scaled_coefficients_are_integers():
    for n in range(1, 13):
        for lam in partitions(n):
            m = splitting_coefficients(lam)
            z_order = class_data(lam).centralizer_order
            assert len(m.alpha) == len(m.scaled) == n
            for a, s in zip(m.alpha, m.scaled):
                assert isinstance(s, int)
                assert a * z_order == s


def test_last_coefficient_vanishes():
    for n in range(2, 13):
        for lam in partitions(n):
            assert splitting_coefficients(lam).alpha[-1] == 0


def test_alpha_is_the_quotient_by_z_minus_one():
    # (z - 1) * sum_k alpha_k z_lam z^(n-1-k) = z_lam N_lam, multiplied out in RatPoly
    for n in range(2, 13):
        for lam in partitions(n):
            z_lam = class_data(lam).centralizer_order
            alpha = splitting_coefficients(lam).alpha
            quotient = RatPoly(a * z_lam for a in reversed(alpha))
            assert (Z - 1) * quotient == cycle_polynomial(lam) * z_lam, lam


def test_coefficient_columns_sum_to_delta():
    for n in range(2, 13):
        sums = [Fraction(0)] * n
        for lam in partitions(n):
            for k, a in enumerate(splitting_coefficients(lam).alpha):
                sums[k] += a
        assert sums[0] == 1
        assert all(s == 0 for s in sums[1:])


def test_degree_one_measure_is_constant():
    m = splitting_coefficients((1,))
    assert m.alpha == (Fraction(1),)
    assert m.value(Fraction(7)) == 1
    assert m.value(Fraction(0)) == 1
    assert measure_value((1,), Fraction(-3)) == 1


@pytest.mark.parametrize(
    "lam, z, expected",
    [
        ((1, 1, 1, 1), 2, Fraction(0)),
        ((1, 1, 1, 1), 3, Fraction(0)),
        ((1, 1, 1, 1), 5, Fraction(1, 100)),
        ((2, 2), -1, Fraction(0)),
        ((3, 1), 2, Fraction(1, 2)),
        ((2,), 0, Fraction(1, 2)),
    ],
)
def test_measure_values_frozen(lam, z, expected):
    assert measure_value(lam, Fraction(z)) == expected


def test_measure_at_minus_one_is_half_on_special_classes():
    for n in range(2, 10):
        special = {(1,) * n, (2,) + (1,) * (n - 2)}
        for lam in partitions(n):
            value = measure_value(lam, Fraction(-1))
            assert value == (Fraction(1, 2) if lam in special else 0)


def test_per_element_scaling():
    for lam in partitions(5):
        total = measure_value(lam, Fraction(3))
        per = measure_value(lam, Fraction(3), per_element=True)
        assert per * class_data(lam).class_size == total


def test_partition_validated_before_the_cache():
    assert splitting_coefficients([2, 1, 1]) == splitting_coefficients((2, 1, 1))
    assert measure_value([2, 1, 1], 2) == measure_value((2, 1, 1), 2)
    for bad in ((1, 2), (2, 0), ()):
        with pytest.raises(ValueError):
            splitting_coefficients(bad)


@pytest.mark.parametrize("z", [0.1, 0.5, Decimal("0.5"), "1/2"])
def test_a_non_rational_z_is_refused(z):
    message = f"z of a splitting measure is {z!r} of class {type(z).__name__}"
    with pytest.raises(TypeError, match=re.escape(message)):
        measure_value((2, 1, 1), z)
    with pytest.raises(TypeError, match=re.escape(message)):
        splitting_coefficients((3, 1)).value(z, per_element=True)


def test_numpy_integer_z_is_its_int():
    for z in (np.int64(-3), np.int32(7), np.uint8(2)):
        for lam in partitions(5):
            assert measure_value(lam, z) == measure_value(lam, int(z))
            assert type(measure_value(lam, z).numerator) is int


def test_pole_at_zero_refused():
    with pytest.raises(ValueError, match="pole"):
        measure_value((1, 1, 1, 1), Fraction(0))
    with pytest.raises(ValueError, match="pole"):
        splitting_coefficients((3, 2)).value(Fraction(0))


def test_measure_object_fields():
    m = splitting_coefficients((2, 1, 1))
    assert isinstance(m, SplittingMeasure)
    assert m.n == 4
    assert m.partition == (2, 1, 1)
    assert [f.name for f in fields(m)] == ["n", "partition", "scaled"]
    assert m == SplittingMeasure(4, (2, 1, 1), (1, -1, 0, 0))
    assert SplittingMeasure(4, (2, 1, 1), (1, -1, 0, 0)).alpha == m.alpha
    assert len(m.alpha) == 4


@given(
    n=st.integers(min_value=2, max_value=8),
    index=st.integers(min_value=0, max_value=10**6),
    z=st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
        lambda q: q not in (0, 1)
    ),
)
def test_measure_equals_cycle_polynomial_ratio(n, index, z):
    lams = partitions(n)
    lam = lams[index % len(lams)]
    expected = cycle_polynomial(lam)(z) / (z**n - z ** (n - 1))
    assert measure_value(lam, z) == expected


def horner_value(m, z, per_element=False):
    """A frozen copy of SplittingMeasure.value by Fraction Horner in 1/z."""
    w = 1 / Fraction(z)
    total = Fraction(0)
    for a in reversed(m.alpha):
        total = total * w + a
    if per_element:
        total /= class_data(m.partition).class_size
    return total


def test_integer_value_matches_fraction_horner():
    points = [Fraction(2), Fraction(-1), Fraction(-1, 3), Fraction(1, 2), Fraction(7, 2)]
    for n in range(1, 13):
        for lam in partitions(n):
            m = splitting_coefficients(lam)
            for z in points:
                for per_element in (False, True):
                    got = m.value(z, per_element)
                    assert type(got) is Fraction
                    assert got == horner_value(m, z, per_element), (lam, z, per_element)
