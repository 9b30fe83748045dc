"""Integer partitions and conjugacy-class data for symmetric groups.

A partition is a plain tuple of weakly decreasing positive integers, so
``(3, 1, 1)`` is a partition of 5.  The empty tuple is the unique partition
of 0.  Partitions of n index both the conjugacy classes and the irreducible
characters of the symmetric group S_n; the class of lambda consists of the
permutations whose cycle type is lambda.

Partition lists are always produced in reverse lexicographic order
((4), (3,1), (2,2), (2,1,1), (1,1,1,1) for n = 4), and every table in this
package uses that order.  In that order the partitions of n with first
part f are f followed by the partitions of n - f with parts at most f, and
those are a suffix of the partitions of n - f (the first-part recurrence,
Andrews, The Theory of Partitions, 1976).  So each degree's list is built
from its tails in the cached lists below it, one suffix per first part,
and `_tail_start` says where each suffix begins.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from numbers import Rational
from typing import Iterable, NamedTuple

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize an iterable of parts.

    >>> check_partition([3, 1, 1])
    (3, 1, 1)
    """
    lam = []
    for p in parts:
        try:
            q = int(p)
        except (TypeError, ValueError):
            raise ValueError(f"parts must be integers, got {p!r}") from None
        if not isinstance(p, str) and q != p:
            raise ValueError(f"parts must be integers, got {p!r}")
        lam.append(q)
    lam = tuple(lam)
    for i, p in enumerate(lam):
        if p <= 0:
            raise ValueError(f"parts must be positive, got {p}")
        if i > 0 and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing, got {lam}")
    return lam


def check_rational(value: Rational, what: str) -> tuple[int, int]:
    """value's numerator and denominator as Python ints, for any `numbers.Rational`
    (numpy integers included); any other value is refused with TypeError."""
    if not isinstance(value, Rational):
        raise TypeError(f"{what} is {value!r} of class {type(value).__name__}")
    return int(value.numerator), int(value.denominator)


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order.

    A partition of n is its first part f followed by a partition of n - f
    with parts at most f, so for f = n down to 1 the list puts f in front
    of each cached partition of n - f from index ``_tail_start(n - f, f)`` on.

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return ((),)
    return tuple(
        (f,) + tail
        for f in range(n, 0, -1)
        for tail in partitions(n - f)[_tail_start(n - f, f) :]
    )


@cache
def _position(n: int) -> dict[Partition, int]:
    """The index of each partition of n in partitions(n), the one index every
    table and class function on S_n reads."""
    return {lam: i for i, lam in enumerate(partitions(n))}


@cache
def _tail_start(m: int, f: int) -> int:
    """The index in partitions(m) of its first partition with first part <= f.

    In reverse lexicographic order those partitions are a suffix, preceded
    by the ones whose first part g runs from m down to f + 1; there are
    len(partitions(m - g)) - _tail_start(m - g, g) of those for each g.
    """
    if f >= m:
        return 0
    g = f + 1
    return _tail_start(m, g) + len(partitions(m - g)) - _tail_start(m - g, g)


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map each part size j to its multiplicity m_j in lam."""
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    return mult


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram of lam."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


class ClassData(NamedTuple):
    centralizer_order: int
    class_size: int


def centralizer_order(lam: Partition) -> int:
    """Order z_lam of the centralizer of a permutation of cycle type lam.

    z_lam = prod_j j^{m_j} m_j!  where m_j is the multiplicity of j.
    """
    z = 1
    for j, m in multiplicities(lam).items():
        z *= j**m * factorial(m)
    return z


@cache
def class_data(lam: Partition) -> ClassData:
    """Centralizer order and class size of the cycle type lam.

    >>> class_data((2, 1, 1))
    ClassData(centralizer_order=4, class_size=6)
    """
    n = sum(lam)
    z = centralizer_order(lam)
    cls, rem = divmod(factorial(n), z)
    if rem:
        raise ArithmeticError(f"centralizer order {z} does not divide {n}!")
    return ClassData(z, cls)


def sign_character(lam: Partition) -> int:
    """Sign of any permutation of cycle type lam: (-1)^(n - number of parts)."""
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def moebius(d: int) -> int:
    """Moebius function of a positive integer, by trial division.

    >>> [moebius(d) for d in (1, 2, 6, 12)]
    [1, -1, 1, 0]
    """
    if d <= 0:
        raise ValueError(f"moebius is defined for positive integers, got {d}")
    result = 1
    q = 2
    while q * q <= d:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            result = -result
        q += 1
    if d > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    small, large = [], []
    q = 1
    while q * q <= n:
        if n % q == 0:
            small.append(q)
            if q != n // q:
                large.append(n // q)
        q += 1
    return small + large[::-1]


def format_partition(lam: Partition) -> str:
    """Serialize as comma-separated parts; the empty partition is ''."""
    return ",".join(str(p) for p in lam)


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition.

    >>> parse_partition("3,1,1")
    (3, 1, 1)
    """
    text = text.strip()
    if not text:
        return ()
    return check_partition(part.strip() for part in text.split(","))
