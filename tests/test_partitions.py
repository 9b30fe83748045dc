"""Partition enumeration, conjugacy class data, and serialization."""

from itertools import permutations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidchar.partitions import (
    centralizer_order,
    check_partition,
    class_data,
    conjugate,
    divisors,
    format_partition,
    moebius,
    multiplicities,
    parse_partition,
    partitions,
    sign_character,
)


def partition_count_table(top: int) -> list[int]:
    """p(0..top) by the parts-bounded-by-m recurrence, independent of the library."""
    table = [[0] * (top + 1) for _ in range(top + 1)]
    for m in range(top + 1):
        table[m][0] = 1
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            table[m][n] = table[m - 1][n] + (table[m][n - m] if n >= m else 0)
    return [table[top][n] for n in range(top + 1)]


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def test_enumeration_counts_match_recurrence():
    counts = partition_count_table(14)
    for n in range(1, 15):
        assert len(partitions(n)) == counts[n]
    assert len(partitions(9)) == 30


# p(n) for n = 0..32 (OEIS A000041)
PARTITION_COUNTS = (
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231, 297, 385,
    490, 627, 792, 1002, 1255, 1575, 1958, 2436, 3010, 3718, 4565, 5604, 6842, 8349,
)


def test_partition_counts_frozen_up_to_32():
    assert tuple(len(partitions(n)) for n in range(33)) == PARTITION_COUNTS


def test_enumeration_is_reverse_lex_and_valid():
    for n in range(1, 21):
        parts = partitions(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert check_partition(lam) == lam
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(part >= 1 for part in lam)


@pytest.mark.parametrize(
    "bad",
    [(0,), (-2, 1), (1, 2), (2.5,), (3, 0)],
)
def test_check_partition_rejects(bad):
    with pytest.raises((ValueError, TypeError)):
        check_partition(bad)


def test_class_sizes_against_bruteforce_permutations():
    for n in range(1, 7):
        tally: dict[tuple[int, ...], int] = {}
        for perm in permutations(range(n)):
            t = cycle_type(perm)
            tally[t] = tally.get(t, 0) + 1
        assert set(tally) == set(partitions(n))
        for lam, count in tally.items():
            assert class_data(lam).class_size == count


def test_class_equation_and_centralizer_product():
    for n in range(1, 11):
        total = 0
        for lam in partitions(n):
            data = class_data(lam)
            assert data.class_size * data.centralizer_order == factorial(n)
            assert centralizer_order(lam) == data.centralizer_order
            total += data.class_size
        assert total == factorial(n)


@pytest.mark.parametrize(
    "lam, z",
    [((1, 1, 1, 1), 24), ((2, 1, 1), 4), ((2, 2), 8), ((3, 2), 6), ((5,), 5)],
)
def test_centralizer_orders_frozen(lam, z):
    assert centralizer_order(lam) == z


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {1: 1, 2: 2, 3: 1}
    assert multiplicities(()) == {}
    mult = multiplicities((4, 4, 4))
    assert mult == {4: 3}


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((1, 1, 1, 1)) == (4,)
    assert conjugate(()) == ()
    for n in range(1, 10):
        for lam in partitions(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n


def test_sign_character():
    for n in range(1, 9):
        for lam in partitions(n):
            assert sign_character(lam) == (-1) ** (n - len(lam))
    assert sign_character((1, 1, 1)) == 1
    assert sign_character((2, 1)) == -1
    assert sign_character((4,)) == -1


def test_moebius_frozen_values():
    expected = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [moebius(j) for j in range(1, 13)] == expected
    with pytest.raises(ValueError):
        moebius(0)
    with pytest.raises(ValueError):
        moebius(-5)


def test_moebius_divisor_sums():
    for j in range(1, 31):
        total = sum(moebius(d) for d in divisors(j))
        assert total == (1 if j == 1 else 0)


def test_divisors():
    assert list(divisors(12)) == [1, 2, 3, 4, 6, 12]
    assert list(divisors(1)) == [1]
    assert list(divisors(13)) == [1, 13]


@pytest.mark.parametrize(
    "text, lam",
    [("3,1,1", (3, 1, 1)), ("5", (5,)), ("", ())],
)
def test_partition_serialization(text, lam):
    assert parse_partition(text) == lam
    assert format_partition(lam) == text


@pytest.mark.parametrize("bad", ["1,2", "0", "a,b", "3,,1", "-1"])
def test_parse_partition_rejects(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=0, max_size=8))
def test_roundtrip_hypothesis(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert check_partition(lam) == lam
    assert parse_partition(format_partition(lam)) == lam


@given(st.integers(min_value=1, max_value=40))
def test_moebius_squarefull_vanishes(j):
    square_free = all(j % (d * d) for d in range(2, j + 1) if d * d <= j)
    assert (moebius(j) != 0) == square_free
