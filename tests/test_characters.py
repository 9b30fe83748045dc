"""Cohomology characters, closed forms, and graded sum identities."""

from fractions import Fraction
from math import factorial

import pytest

import braidchar
from braidchar import characters, fforacle, measures, reference, specht, tables, verify
from braidchar.characters import (
    ClassFunction,
    NoClosedFormError,
    a_character,
    b_character,
    b_character_signed,
    braid_character,
    closed_form_check,
    inner_product,
    sign_twisted_sum,
)
from braidchar.measures import measure_value, splitting_coefficients
from braidchar.partitions import class_data, partitions, sign_character
from braidchar.ratpoly import cycle_polynomial
from braidchar.specht import decompose, irrep_dimension, irreducible_character


def unsigned_stirling_row(n: int) -> list[int]:
    """Coefficients of z(z+1)...(z+n-1), an independent Stirling oracle.

    row[j] is the coefficient of z^j, the number of permutations of n
    with exactly j cycles.
    """
    row = [1]
    for shift in range(n):
        row = [0] + row
        row = [c + shift * row[i + 1] if i + 1 < len(row) else c for i, c in enumerate(row)]
    return row


def test_stirling_oracle_self_check():
    assert unsigned_stirling_row(4) == [0, 6, 11, 6, 1]
    assert sum(unsigned_stirling_row(6)) == factorial(6)


def test_identity_column_matches_stirling():
    for n in range(1, 10):
        row = unsigned_stirling_row(n)
        for k in range(n + 1):
            expected = row[n - k] if n - k < len(row) else 0
            assert braid_character(n, k)((1,) * n) == expected


@pytest.mark.parametrize("n", sorted(reference.BETTI_TRIANGLE))
def test_betti_triangle_frozen(n):
    expected = reference.BETTI_TRIANGLE[n]
    for k, want in enumerate(expected):
        got = braid_character(n, k)((1,) * n) if k <= n else 0
        assert got == want


@pytest.mark.parametrize("n", sorted(reference.A_DIM_TRIANGLE))
def test_graded_dimension_triangle_frozen(n):
    expected = reference.A_DIM_TRIANGLE[n]
    for k, want in enumerate(expected):
        got = a_character(n, k)((1,) * n) if k <= n - 1 else 0
        assert got == want


def test_spot_values_frozen():
    assert braid_character(4, 2)((1, 1, 1, 1)) == 11
    assert braid_character(4, 2)((2, 2)) == -1
    assert a_character(4, 1)((1, 1, 1, 1)) == 5
    assert a_character(5, 2)((1, 1, 1, 1, 1)) == 26


def test_edge_grades():
    for n in range(1, 13):
        for lam in partitions(n):
            assert braid_character(n, 0)(lam) == 1
            assert braid_character(n, n)(lam) == 0
            if n >= 2:
                assert a_character(n, n - 1)(lam) == 0


def test_values_are_integers():
    for n in range(1, 10):
        for k in range(n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                assert isinstance(h(lam), int)


def test_grade_bounds_rejected():
    with pytest.raises(ValueError):
        braid_character(4, 5)
    with pytest.raises(ValueError):
        braid_character(4, -1)
    with pytest.raises(ValueError):
        a_character(4, 4)


def test_telescoping():
    for n in range(1, 13):
        for k in range(1, n):
            h = braid_character(n, k)
            lo = a_character(n, k - 1)
            hi = a_character(n, k)
            for lam in partitions(n):
                assert h(lam) == lo(lam) + hi(lam)


def test_support_small_part():
    for n in range(1, 13):
        for k in range(1, n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                if min(lam) > 2 * k:
                    assert h(lam) == 0


def test_support_distinct_part_sizes():
    for n in range(1, 13):
        for k in range(n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                if len(set(lam)) > n - k:
                    assert h(lam) == 0


@pytest.mark.parametrize(
    "n, k, lam, expected",
    [
        (4, 1, (2, 1, 1), 2),
        (4, 3, (2, 2), -2),
        (4, 3, (4,), 0),
        (6, 1, (2, 2, 1, 1), 3),
        (6, 4, (2, 2, 2), 2),
        (5, 4, (5,), -1),
        (6, 3, (6,), 1),
        (8, 4, (8,), -1),
    ],
)
def test_closed_form_spot_values(n, k, lam, expected):
    assert closed_form_check(n, k, lam) == expected
    assert braid_character(n, k)(lam) == expected


def test_closed_forms_cover_and_agree():
    covered = 0
    for n in range(1, 13):
        for k in range(n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                try:
                    value = closed_form_check(n, k, lam)
                except NoClosedFormError:
                    continue
                covered += 1
                assert value == h(lam)
    assert covered > 500


def test_no_closed_form_raises():
    with pytest.raises(NoClosedFormError):
        closed_form_check(7, 3, (3, 2, 2))
    assert issubclass(NoClosedFormError, ValueError)


def test_sign_twisted_sum_is_regular():
    for n in range(2, 10):
        twisted = sign_twisted_sum(n)
        for lam in partitions(n):
            expected = factorial(n) if lam == (1,) * n else 0
            assert twisted(lam) == expected


def test_sign_twisted_sum_spot_values():
    twisted = sign_twisted_sum(4)
    assert twisted((1, 1, 1, 1)) == 24
    assert twisted((2, 1, 1)) == 0
    assert twisted((2, 2)) == 0


def test_unsigned_sum_supported_on_special_classes():
    for n in range(2, 10):
        special = {(1,) * n, (2,) + (1,) * (n - 2)}
        for lam in partitions(n):
            theta = sum(braid_character(n, k)(lam) for k in range(n + 1))
            want = class_data(lam).centralizer_order if lam in special else 0
            assert theta == want


def test_b_character_dimensions():
    for n in range(2, 10):
        for m in (1, 2, 3):
            prod = 1
            for j in range(2, n):
                prod *= 1 + j * m
            assert b_character(n, m)((1,) * n) == prod


def test_b_character_signed_split():
    plus, minus = b_character_signed(4, 1)
    assert plus((1, 1, 1, 1)) == 7
    assert minus((1, 1, 1, 1)) == 5
    for n in range(2, 9):
        for m in (1, 2):
            plus, minus = b_character_signed(n, m)
            total = b_character(n, m)
            for lam in partitions(n):
                assert plus(lam) + minus(lam) == total(lam)


# Loop definitions of the derived characters, frozen as a reference for the
# ClassFunction arithmetic in `characters`.


def loop_a_character(n, k):
    """chi_n^k as the alternating partial sum of h_n^0 .. h_n^k."""
    values = {lam: 0 for lam in partitions(n)}
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        h = braid_character(n, j)
        for lam in values:
            values[lam] += sign * h.values[lam]
    return values


def loop_b_character_signed(n, m):
    """(B+, B-): chi_n^k m^k summed over even and over odd k."""
    plus = {lam: 0 for lam in partitions(n)}
    minus = {lam: 0 for lam in partitions(n)}
    for k in range(n):
        chi = loop_a_character(n, k)
        target = plus if k % 2 == 0 else minus
        for lam in target:
            target[lam] += chi[lam] * m**k
    return plus, minus


def loop_sign_twisted_sum(n):
    """sum_k h_n^k sgn^k, one class at a time."""
    values = {lam: 0 for lam in partitions(n)}
    for k in range(n + 1):
        h = braid_character(n, k)
        for lam in values:
            values[lam] += h.values[lam] * (sign_character(lam) if k % 2 else 1)
    return values


@pytest.mark.parametrize("n", range(1, 10))
def test_derived_characters_match_loop_definitions(n):
    for k in range(n):
        assert a_character(n, k).values == loop_a_character(n, k)
    for m in (1, 2, 3) if n >= 2 else ():
        plus, minus = b_character_signed(n, m)
        assert (plus.values, minus.values) == loop_b_character_signed(n, m)
    assert sign_twisted_sum(n).values == loop_sign_twisted_sum(n)


def test_b_character_is_weighted_sum():
    for n in range(2, 8):
        for m in (1, 2, 3):
            b = b_character(n, m)
            for lam in partitions(n):
                expected = sum(
                    a_character(n, k)(lam) * m**k for k in range(n)
                )
                assert b(lam) == expected


def test_inner_product_normalization():
    one = ClassFunction.from_rule(5, lambda lam: 1)
    assert inner_product(one, one) == 1


def test_inner_product_indicator_extracts_values():
    for lam in partitions(4):
        ind = ClassFunction.from_rule(4, lambda mu: 1 if mu == lam else 0)
        h = braid_character(4, 1)
        z = class_data(lam).centralizer_order
        assert inner_product(ind, h) == Fraction(h(lam), z)


def test_inner_product_against_irreducible():
    assert inner_product(braid_character(4, 1), irreducible_character((3, 1))) == 1
    assert inner_product(braid_character(4, 1), irreducible_character((1, 1, 1, 1))) == 0


def test_class_function_algebra():
    f = ClassFunction.from_rule(3, lambda lam: 1)
    g = ClassFunction.sign(3)
    assert (f + g)((1, 1, 1)) == 2
    assert (f - g)((2, 1)) == 2
    assert (3 * f)((3,)) == 3
    assert (f * g)((2, 1)) == -1
    for lam in partitions(3):
        assert g(lam) == sign_character(lam)


def test_class_function_errors():
    with pytest.raises(ValueError):
        ClassFunction(3, {(3,): 1})  # missing classes
    f = ClassFunction.from_rule(3, lambda lam: 1)
    g = ClassFunction.from_rule(4, lambda lam: 1)
    with pytest.raises(ValueError):
        _ = f + g
    with pytest.raises(ValueError):
        inner_product(f, g)
    with pytest.raises(ValueError, match=r"S_4 evaluated at \(2, 1\), a partition of 3"):
        braid_character(4, 1)((2, 1))


def test_class_function_call_validates_only_a_miss(monkeypatch):
    f = braid_character(3, 1)
    checked = []
    real = characters.check_partition
    monkeypatch.setattr(
        characters, "check_partition", lambda lam: checked.append(lam) or real(lam)
    )
    assert [f(lam) for lam in partitions(3)] == [f.values[lam] for lam in partitions(3)]
    assert checked == []
    # a miss is normalized or refused as before
    assert f([2, 1]) == f((2.0, 1)) == f.values[(2, 1)]
    for bad, text in [
        ([1, 2], r"weakly decreasing, got \(1, 2\)"),
        (("a",), "parts must be integers, got 'a'"),
        ((3, 0), "parts must be positive, got 0"),
        ((2, 2), r"S_3 evaluated at \(2, 2\), a partition of 4"),
    ]:
        with pytest.raises(ValueError, match=text):
            f(bad)
    assert checked == [[2, 1], [1, 2], ("a",), (3, 0), (2, 2)]


def test_partitions_are_validated_where_input_enters(monkeypatch):
    checked = []
    real = characters.check_partition
    for module in vars(braidchar).values():
        if getattr(module, "check_partition", None) is real:
            monkeypatch.setattr(
                module, "check_partition", lambda lam: checked.append(lam) or real(lam)
            )
    # the cached cores start cold, so their first computation is recorded too
    measures._splitting_measure.cache_clear()
    specht._irrep_dimension.cache_clear()
    tables.measures_table(12)
    assert decompose(a_character(12, 2)).dimension == a_character(12, 2).dimension
    assert verify.run_suite("identities").passed
    # the sweeps over partitions(n) that read measure values read the core too
    small = verify.VerifyLimits(max_n=6, max_n_class=6)
    for suite in ("tables", "regular-rep", "theorems"):
        assert verify.run_suite(suite, small).passed
    assert fforacle.census_vs_theory(3, 4).all_ok
    assert checked == []
    # every public entry point still refuses a bad partition, with the same message
    entries = [
        irrep_dimension,
        splitting_coefficients,
        lambda lam: measure_value(lam, 2),
        lambda lam: closed_form_check(3, 1, lam),
        cycle_polynomial,
    ]
    for bad, text in [
        ([1, 2], r"weakly decreasing, got \(1, 2\)"),
        (("a",), "parts must be integers, got 'a'"),
        ((3, 0), "parts must be positive, got 0"),
    ]:
        for entry in entries:
            with pytest.raises(ValueError, match=text):
                entry(bad)
    assert checked == [bad for bad in ([1, 2], ("a",), (3, 0)) for _ in entries]


def test_regular_class_function():
    reg = ClassFunction.regular(5)
    assert reg((1, 1, 1, 1, 1)) == 120
    assert all(reg(lam) == 0 for lam in partitions(5) if lam != (1, 1, 1, 1, 1))
