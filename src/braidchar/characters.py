"""Characters of S_n acting on the rational cohomology of the pure braid group.

The cohomology H^k of the pure braid group on n strands carries an S_n
action whose character h_n^k is read off the cycle polynomial:

    h_n^k(lam) = (-1)^k * z_lam * [z^(n-k)] N_lam(z).

z_lam N_lam(z) has integer coefficients (see `ratpoly`), read with no division.
Each h_n^k splits as chi_n^(k-1) + chi_n^k where chi_n^k is the character of
an honest subrepresentation A_n^k (chi_n^(-1) = chi_n^n = 0), so chi_n^k =
h_n^k - chi_n^(k-1), the alternating partial sums of the h_n^j.  B+- and the
sign-twisted sum are likewise sums of `ClassFunction` terms.

The splitting measure coefficients are rescaled character values:
alpha_k(C_lam) = (-1)^k chi_n^k(lam) / z_lam.

Low-degree and top-degree values have closed forms in the cycle
multiplicities m_j, the Moebius function and harmonic numbers; the
``closed_form_*`` functions evaluate those directly, as an independent check
on the coefficient extraction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from math import comb, factorial
from numbers import Rational
from typing import Callable, Mapping

from .partitions import (
    Partition,
    _position,
    check_partition,
    check_rational,
    class_data,
    moebius,
    multiplicities,
    partitions,
    sign_character,
)
from .ratpoly import scaled_cycle_polynomial


class NoClosedFormError(ValueError):
    """Raised when no closed form covers the requested character value."""


@dataclass(frozen=True)
class ClassFunction:
    """A function on the conjugacy classes of S_n, stored per cycle type."""

    n: int
    values: Mapping[Partition, Fraction] = field(compare=True)

    def __post_init__(self):
        if self.values.keys() != _position(self.n).keys():
            raise ValueError(f"values must cover all partitions of {self.n}")

    def __call__(self, lam: Partition) -> Fraction:
        # a key of values is a valid partition, so only a miss is validated
        try:
            return self.values[lam]
        except (KeyError, TypeError):
            lam = check_partition(lam)
        try:
            return self.values[lam]
        except KeyError:
            raise ValueError(
                f"class function on S_{self.n} evaluated at {lam}, "
                f"a partition of {sum(lam)}, not of {self.n}"
            ) from None

    @property
    def dimension(self) -> Fraction:
        """Value at the identity class (1^n)."""
        return self.values[(1,) * self.n]

    def _pointwise(self, other, op) -> "ClassFunction":
        """op(self(lam), other(lam)) on every class, for other of the same degree."""
        if not isinstance(other, ClassFunction):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"degree mismatch: {self.n} != {other.n}")
        return ClassFunction(
            self.n, {lam: op(v, other.values[lam]) for lam, v in self.values.items()}
        )

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return self._pointwise(other, operator.add)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self._pointwise(other, operator.sub)

    def __mul__(self, other) -> "ClassFunction":
        if isinstance(other, ClassFunction):
            return self._pointwise(other, operator.mul)
        num, den = check_rational(other, "a ClassFunction scalar")
        other = num if den == 1 else Fraction(num, den)
        return ClassFunction(self.n, {lam: v * other for lam, v in self.values.items()})

    __rmul__ = __mul__

    @classmethod
    def from_rule(cls, n: int, rule: Callable[[Partition], Rational]) -> "ClassFunction":
        return cls(n, {lam: rule(lam) for lam in partitions(n)})

    @classmethod
    def sign(cls, n: int) -> "ClassFunction":
        return cls.from_rule(n, sign_character)

    @classmethod
    def regular(cls, n: int) -> "ClassFunction":
        return cls.from_rule(n, lambda lam: factorial(n) if lam == (1,) * n else 0)


def _as_integer(v: Fraction, what: str) -> int:
    if v.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {v}")
    return int(v)


@cache
def braid_character(n: int, k: int) -> ClassFunction:
    """Character h_n^k of S_n on degree-k pure braid cohomology.

    >>> braid_character(4, 2)((2, 2))
    -1
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    sign = -1 if k % 2 else 1
    return ClassFunction.from_rule(n, lambda lam: sign * scaled_cycle_polynomial(lam)[n - k])


@cache
def a_character(n: int, k: int) -> ClassFunction:
    """Character chi_n^k of the subrepresentation A_n^k.

    >>> a_character(5, 2)((1, 1, 1, 1, 1))
    26
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    h = braid_character(n, k)
    return h - a_character(n, k - 1) if k else h


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Standard S_n inner product (1/n!) sum_lam |C_lam| f(lam) g(lam).

    `specht.decompose` does not call it; the tests use it as the independent
    Fraction reference for the Murnaghan-Nakayama table's orthogonality.
    """
    if f.n != g.n:
        raise ValueError(f"degree mismatch: {f.n} != {g.n}")
    total = sum(
        class_data(lam).class_size * f.values[lam] * g.values[lam]
        for lam in partitions(f.n)
    )
    return Fraction(total, factorial(f.n))


def sign_twisted_sum(n: int) -> ClassFunction:
    """lam -> sum_k h_n^k(lam) sgn(lam)^k; equals the regular character.

    >>> sign_twisted_sum(4)((2, 2))
    0
    """
    sgn = ClassFunction.sign(n)
    terms = (braid_character(n, k) * (sgn if k % 2 else 1) for k in range(n + 1))
    return reduce(operator.add, terms)


def b_character(n: int, m: int) -> ClassFunction:
    """Character of B_{n,m} = sum_k A_n^k m^k, of dimension prod_{j=2}^{n-1} (1 + jm).

    >>> b_character(4, 1).dimension
    12
    """
    plus, minus = b_character_signed(n, m)
    return plus + minus


def b_character_signed(n: int, m: int) -> tuple[ClassFunction, ClassFunction]:
    """The even/odd split (B+, B-) of B_{n,m} by cohomological degree.

    dim B+- = (prod_{j=2}^{n-1} (1 + jm) +- prod_{j=2}^{n-1} (1 - jm)) / 2.
    """
    n, m = operator.index(n), operator.index(m)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    terms = [a_character(n, k) * m**k for k in range(n)]
    return reduce(operator.add, terms[0::2]), reduce(operator.add, terms[1::2])


# --- closed forms ---------------------------------------------------------


def _harmonic(m: int) -> Fraction:
    """H_m = 1 + 1/2 + ... + 1/m, exactly (H_0 = 0)."""
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


def _moebius_or_zero(num: int, den: int) -> int:
    """mu(num/den), taken to vanish when num/den is not a positive integer."""
    if num % den:
        return 0
    return moebius(num // den)


def closed_form_h1(lam: Partition) -> int:
    """h_n^1(lam) = C(m_1, 2) + m_2."""
    m = multiplicities(lam)
    return comb(m.get(1, 0), 2) + m.get(2, 0)


def closed_form_h2(lam: Partition) -> int:
    """h_n^2 in the cycle multiplicities m_1..m_4."""
    m = multiplicities(lam)
    m1, m2, m3, m4 = (m.get(j, 0) for j in (1, 2, 3, 4))
    return (
        2 * comb(m1, 3)
        + 3 * comb(m1, 4)
        + comb(m1, 2) * m2
        - comb(m2, 2)
        - m3
        - m4
    )


def closed_form_h_top(n: int, lam: Partition) -> int:
    """h_n^(n-1), supported on rectangles lam = (j^m)."""
    m = multiplicities(lam)
    if len(m) != 1:
        return 0
    (j, mj), = m.items()
    sign = -1 if (mj - n) % 2 else 1
    return sign * moebius(j) * j ** (mj - 1) * factorial(mj - 1)


def closed_form_h_subtop(n: int, lam: Partition) -> int:
    """h_n^(n-2), supported on cycle types with at most two distinct part sizes.

    On two part sizes, lam = (i^a j^b), it is the product of the top values
    of the two rectangles, closed_form_h_top at (i^a) and at (j^b); the
    signs' parities add up to that of a + b - n.  On a rectangle (j^m) the
    value involves an exact harmonic number:

        (-1)^(m-n) (m-1)! (mu(j)^2 H_{m-1} j^(m-2) - mu(j/2) j^(m-1)),

    with mu(j/2) = 0 for odd j.
    """
    m = multiplicities(lam)
    if len(m) > 2:
        return 0
    if len(m) == 2:
        (i, a), (j, b) = m.items()
        return closed_form_h_top(i * a, (i,) * a) * closed_form_h_top(j * b, (j,) * b)
    (j, mj), = m.items()
    sign = -1 if (mj - n) % 2 else 1
    val = factorial(mj - 1) * (
        moebius(j) ** 2 * _harmonic(mj - 1) * Fraction(j) ** (mj - 2)
        - _moebius_or_zero(j, 2) * j ** (mj - 1)
    )
    return _as_integer(sign * val, f"h_{n}^{n-2}({lam})")


def closed_form_h_ncycle(n: int, k: int) -> int:
    """h_n^k at the single n-cycle class lam = (n)."""
    t = n - k
    if t == 0 or n % t:
        return 0
    sign = -1 if k % 2 else 1
    return sign * moebius(n // t)


def closed_form_check(n: int, k: int, lam: Partition) -> int:
    """Evaluate h_n^k(lam) from a closed form, without touching polynomials.

    Covered: k in {1, 2}, k in {n-1, n-2}, and lam = (n).  When several
    closed forms apply they are all evaluated and must agree.  Raises
    NoClosedFormError outside the covered families.
    """
    lam = check_partition(lam)
    if sum(lam) != n:
        raise ValueError(f"{lam} is not a partition of {n}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}")
    value = _closed_form(n, k, lam)
    if value is None:
        raise NoClosedFormError(f"no closed form for h_{n}^{k} at {lam}")
    return value


def _closed_form(n: int, k: int, lam: Partition) -> int | None:
    """closed_form_check without validation, for lam from partitions(n) and
    0 <= k <= n; None where no closed form covers the cell."""
    candidates: list[int] = []
    if k == 1:
        candidates.append(closed_form_h1(lam))
    if k == 2:
        candidates.append(closed_form_h2(lam))
    if k == n - 1:
        candidates.append(closed_form_h_top(n, lam))
    if k == n - 2 and n >= 2:
        candidates.append(closed_form_h_subtop(n, lam))
    if lam == (n,):
        candidates.append(closed_form_h_ncycle(n, k))
    if not candidates:
        return None
    if any(c != candidates[0] for c in candidates):
        raise ArithmeticError(
            f"closed forms disagree for h_{n}^{k}({lam}): {candidates}"
        )
    return candidates[0]
