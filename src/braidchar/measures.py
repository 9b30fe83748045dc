"""z-splitting measures on conjugacy classes of the symmetric group.

For a partition lam of n >= 2 the class measure is the rational function

    nu_{n,z}(C_lam) = N_lam(z) / (z^n - z^{n-1}),

which turns out to be a polynomial in 1/z of degree < n:

    nu_{n,z}(C_lam) = sum_{k=0}^{n-1} alpha_k (1/z)^k.

The coefficients are read from the integer polynomial z_lam N_lam(z) (see
`ratpoly.scaled_cycle_polynomial`): its quotient by (z - 1), exact because
N_lam(1) = 0, has integer coefficients, and the quotient coefficient of
z^(n-1-k) is z_lam alpha_k = (-1)^k chi_n^k(lam), a character value.
`SplittingMeasure` stores those integers as ``scaled``; ``alpha`` divides
them by z_lam, and ``value`` evaluates them without forming alpha.  For
n = 1 the measure is the constant 1.  At z = q >= 2 a prime power, nu is the
probability that a random monic square-free polynomial of degree n over F_q
has factorization type lam; at other rational z (z = -1, z = 1/q, ...) it is
a signed "measure" with the same total mass 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from numbers import Rational

from .partitions import Partition, centralizer_order, check_partition, check_rational, class_data
from .ratpoly import scaled_cycle_polynomial


@dataclass(frozen=True)
class SplittingMeasure:
    """Measure of one conjugacy class, as integer coefficients in 1/z.

    scaled[k] = z_lam alpha_k is the integer coefficient of (1/z)^k, which is
    (-1)^k chi_n^k(lam); the top entry scaled[n-1] always vanishes for n >= 2.
    alpha, the Fraction coefficients themselves, is derived from it.
    """

    n: int
    partition: Partition
    scaled: tuple[int, ...]

    @cached_property
    def alpha(self) -> tuple[Fraction, ...]:
        """alpha[k], the coefficient of (1/z)^k: scaled[k] / z_lam."""
        z_lam = centralizer_order(self.partition)
        return tuple(Fraction(c, z_lam) for c in self.scaled)

    def value(self, z: Rational, per_element: bool = False) -> Fraction:
        """Evaluate at a rational z != 0.

        With per_element=True the class value is divided by the class size,
        giving the measure of a single permutation of cycle type lam.
        """
        r, s = check_rational(z, "z of a splitting measure")
        data = class_data(self.partition)
        if r == 0:
            if any(self.scaled[1:]):
                raise ValueError("pole at z = 0")
            total = Fraction(self.scaled[0], data.centralizer_order)
        else:
            # in integers: with z = r/s the value is
            # sum_k scaled_k s^k r^(n-1-k) / (z_lam r^(n-1)), one Fraction formed
            num, r_power = 0, 1
            for c in reversed(self.scaled):
                num = num * s + c * r_power
                r_power *= r
            total = Fraction(num, data.centralizer_order * r ** (len(self.scaled) - 1))
        if per_element:
            total /= data.class_size
        return total


def splitting_coefficients(lam: Partition) -> SplittingMeasure:
    """The class measure of lam: its integer coefficients and exact alpha vector.

    >>> splitting_coefficients((2, 1, 1)).scaled
    (1, -1, 0, 0)
    >>> [str(a) for a in splitting_coefficients((2, 1, 1)).alpha]
    ['1/4', '-1/4', '0', '0']
    """
    return _splitting_measure(check_partition(lam))


@cache
def _splitting_measure(lam: Partition) -> SplittingMeasure:
    n = sum(lam)
    if n == 0:
        raise ValueError("the empty partition has no splitting measure")
    if n == 1:
        return SplittingMeasure(1, lam, (1,))
    # N_lam / (z^n - z^(n-1)) = quot / (z_lam z^(n-1)), quot = z_lam N_lam / (z - 1).
    # Dividing from the top, quot's coefficient of z^(n-1-k) is the sum of the
    # k + 1 leading coefficients, and the sum of all of them is the remainder.
    *quot, rem = accumulate(reversed(scaled_cycle_polynomial(lam)))
    if rem:
        raise ArithmeticError(
            f"z_lam * cycle polynomial of {lam} is not divisible by (z - 1): remainder {rem}"
        )
    if quot[n - 1]:
        raise ArithmeticError(
            f"top coefficient z_lam * alpha_{n-1} nonzero for {lam}: {quot[n-1]}"
        )
    return SplittingMeasure(n, lam, tuple(quot))


def measure_value(lam: Partition, z: Rational, per_element: bool = False) -> Fraction:
    """nu_{n,z} of the class of lam (or of one element of it).

    >>> measure_value((2, 2), -1)
    Fraction(0, 1)
    """
    return splitting_coefficients(lam).value(z, per_element)
