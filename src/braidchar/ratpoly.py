"""Dense univariate polynomials over Q, and the cycle polynomials built on them.

Coefficients are `fractions.Fraction` values stored constant term first with
no trailing zeros, so equality of polynomials is equality of coefficient
tuples.  The variable is written z throughout.

The two polynomial families this package revolves around:

* the necklace polynomial  M_j(z) = (1/j) sum_{d | j} mu(d) z^{j/d},
  whose value at a prime power q counts monic irreducible polynomials of
  degree j over F_q, and
* the cycle polynomial     N_lam(z) = prod_j binom(M_j(z), m_j),
  whose value at q counts monic square-free polynomials of degree n with
  factorization type lam (m_j = multiplicity of j in lam).

As j M_j(z) has integer coefficients, z_lam N_lam(z) is an integer product,
prod_j prod_{i < m_j} (j M_j(z) - i j), which `scaled_cycle_polynomial` forms
in plain ints, once per lam.  The characters h_n^k (`characters`), the
splitting measures (`measures`) and the census predictions (`fforacle`) all
read that integer polynomial.  `cycle_polynomial` is its public `Fraction`
view, divided by z_lam once, and `poly_binomial` keeps the `Fraction` route
as an independent reference.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from numbers import Rational
from typing import Iterable

from .partitions import (
    Partition,
    centralizer_order,
    check_partition,
    divisors,
    moebius,
)


class RatPoly:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients, constant term first, trailing zeros stripped."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self._coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatPoly):
            return self._coeffs == other._coeffs
        if isinstance(other, (int, Fraction)):
            return self._coeffs == RatPoly((other,))._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __neg__(self) -> "RatPoly":
        return RatPoly(-c for c in self._coeffs)

    def __add__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            other = RatPoly((other,))
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "RatPoly":
        return self + (-other if isinstance(other, RatPoly) else RatPoly((-Fraction(other),)))

    def __rsub__(self, other) -> "RatPoly":
        return (-self) + other

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self._coeffs)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return RatPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RatPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent}")
        out = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __truediv__(self, scalar) -> "RatPoly":
        return self * (1 / Fraction(scalar))

    def __call__(self, x: Rational) -> Fraction:
        """Evaluate by Horner's scheme."""
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def to_strings(self) -> list[str]:
        """Coefficients as exact 'p/q' strings, constant term first."""
        return [str(c) for c in self._coeffs]

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if not c:
                continue
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"RatPoly({list(self._coeffs)!r})"


ZERO = RatPoly()
ONE = RatPoly((1,))
Z = RatPoly((0, 1))


@cache
def necklace_polynomial(j: int) -> RatPoly:
    """M_j(z) = (1/j) sum over divisors d of j of mu(d) z^(j/d).

    The Fraction view of `_necklace_terms(j)` divided by j, as
    `cycle_polynomial` is of `scaled_cycle_polynomial`.

    >>> print(necklace_polynomial(2))
    1/2*z^2 - 1/2*z
    """
    if j <= 0:
        raise ValueError(f"necklace polynomial needs a positive index, got {j}")
    terms = dict(_necklace_terms(j))
    return RatPoly(terms.get(e, 0) for e in range(j + 1)) / j


def poly_binomial(p: RatPoly, m: int) -> RatPoly:
    """binom(p, m) = p (p - 1) ... (p - m + 1) / m!.

    The product is accumulated first and divided by m! once at the end, so
    intermediate coefficients stay small multiples of the inputs.  The
    library forms the integer product instead (`scaled_cycle_polynomial`);
    this is the tests' independent Fraction route to it.

    >>> print(poly_binomial(Z, 4))
    1/24*z^4 - 1/4*z^3 + 11/24*z^2 - 1/4*z
    """
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    out = ONE
    for k in range(m):
        out = out * (p - k)
    return out / factorial(m)


@cache
def _necklace_terms(j: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (power, coefficient) of j M_j(z) = sum over d | j of mu(d) z^(j/d)."""
    return tuple((j // d, mu) for d in divisors(j) if (mu := moebius(d)))


@cache
def scaled_cycle_polynomial(lam: Partition) -> tuple[int, ...]:
    """z_lam N_lam(z) as integer coefficients, constant term first.

    The product of the factors j M_j(z) - i j over i < m_j, monic of degree
    |lam|.  It starts from the cached polynomial of lam without its group
    of largest parts, j = lam[0], and multiplies in only that group's m_j
    sparse factors, schoolbook.  So partitions that share their smaller
    parts share that product, the recursion is as deep as lam has distinct
    parts, and the cache holds one entry per partition reached.  The
    largest parts go in last: each factor is one pass over the product so
    far, and the small parts, which bring the most factors, pass over it
    while it is still short.  The recursion peels a whole group, not one
    part: peeling lam[1:] would recurse once per part, past Python's
    recursion limit on the 800 ones of the `cycle-poly` limit, and cache
    every tail, hundreds of big-integer polynomials.

    >>> scaled_cycle_polynomial((2, 1, 1))
    (0, 0, 1, -2, 1)
    """
    if not lam:
        return (1,)
    j = lam[0]
    m = lam.count(j)
    out = scaled_cycle_polynomial(lam[m:])
    terms = _necklace_terms(j)
    for i in range(m):
        product = [0] * (len(out) + j)
        for e, c in (*terms, (0, -i * j)):
            for t, a in enumerate(out, e):
                product[t] += c * a
        out = product
    return tuple(out)


def cycle_polynomial(lam: Partition) -> RatPoly:
    """N_lam(z) = prod_j binom(M_j(z), m_j), of degree |lam|.

    At z = q this counts monic square-free polynomials over F_q whose
    factorization type is lam.

    >>> print(cycle_polynomial((2, 1, 1)))
    1/4*z^4 - 1/2*z^3 + 1/4*z^2
    """
    lam = check_partition(lam)
    return RatPoly(scaled_cycle_polynomial(lam)) / centralizer_order(lam)
