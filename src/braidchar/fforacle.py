"""Brute-force census of square-free polynomials over prime fields.

This module checks the polynomial identities of the rest of the package
against raw enumeration: monic polynomials of degree n over F_p are tested
for square-freeness via gcd(f, f') and factored, and the counts per
factorization type are compared with the cycle polynomial values N_lam(p).

Polynomials over F_p are coefficient tuples, constant term first, reduced
mod p, with no trailing zeros; a monic polynomial of degree d is also
identified with its code in [0, p^d): the integer whose base-p digits are
the d lower coefficients (the leading 1 is implicit).

Two census engines produce identical tallies:

* a scalar engine, _census_scalar, that walks all p^n polynomials one by
  one with per-polynomial gcd and trial division; it is the tests'
  independent reference, and
* a vectorized engine (numpy), the one every census runs.  It counts one
  polynomial per orbit of the substitutions f(x) -> f(x + a) and
  f(x) -> c^(-n) f(c x), which keep the factorization type and
  square-freeness, and weights each count by the orbit's size.  The
  enumerated codes are one range [0, N), cut into one or two slices that
  each fix the top digits (see _orbit_slices): a_{n-1} = 0 with weight p
  when p does not divide n; a_{n-1} = 0 with weight 1 and a_{n-1} = 1,
  a_{n-2} = 0 with weight p (p - 1) when an odd p divides n; every code
  when p = 2 divides n.  The counts are exact: the maps a slice's weight
  counts act on it freely, and they carry the enumerated codes onto every
  monic polynomial exactly once.  On those codes it runs the gcd batched
  over blocks, and replaces trial division by a factor sieve: for each
  irreducible g of degree e <= n/2 it writes the factorization type of
  every product g * h in the slices, that of h (read from the whole degree
  n - e table, built by the same sieve) with a part e added, and flags
  every multiple g^2 * k in the slices as having a repeated factor.  Fixing
  a product's top digits fixes h's, so each g runs over one range of h per
  slice.  The writes may come in any order, since each one writes the
  same value.

The vectorized engine always cross-checks every enumerated code's gcd
square-freeness verdict against the sieve's repeated-factor flag (a
repeated factor must appear exactly when the gcd is nonconstant), and the
irreducible count of every degree against the necklace polynomial value
M_d(p), weighted by the slices at degree n, and raises if either check
fails.

Its batched gcd packs each polynomial into one uint64 word of n + 1
coefficient lanes, after Boothby-Bradshaw 2009 ("Bitslicing and the Method
of Four Russians over larger finite fields").  Over F_2 a lane is one bit
and a Euclid step is a shift and an XOR.  Over odd p a step is
a + k * (b << shift), and the lanes are reduced mod p by conditional
subtractions tested on a spare top bit of each lane.  Wide lanes hold the
product of one multiply, carrying out of no lane; where n + 1 of them do
not fit a word, narrow lanes (about log2 p bits rather than 2 log2 p) take
k one bit at a time, with one conditional subtraction of p after each
addition and each doubling.
Degrees are exact, read from the bit length; swaps are XORs under a row
mask; and a row leaves the working arrays as soon as its gcd degree is
known.  A cell whose narrow lanes do not fit a word either, such as (3, 16)
or (2, 64), is refused with ValueError before any table is built; the
default budget admits no such cell.  The tests hold the kernel to scalar
Euclid.

The vectorized census runs on ``workers`` threads (by default the CPU
count), never more than it has gcd blocks; numpy releases the interpreter
lock in the loops that do the work.  The packed kernel's tables are built
first, on the calling thread.  The factor sieve is then the first task of
the pool, so that it runs beside the gcd blocks, none of which reads it:
each block writes its square-free verdicts into its own part of one
array, sized to the enumerated codes, and the calling thread cross-checks
the whole array and counts it slice by slice, with the slices' weights,
once the pool is done.  With one thread, or one block, all of it runs
serially on the calling thread.  With w threads each block has _BLOCK // w rows, so
about _BLOCK rows are in flight at any time and peak memory does not grow
with the number of threads.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .measures import measure_value
from .partitions import Partition, centralizer_order, partitions
from .ratpoly import necklace_polynomial, scaled_cycle_polynomial

PolyCoeffs = tuple[int, ...]

DEFAULT_BUDGET = 10**7
_BLOCK = 1 << 18
_PIECE = 1 << 12  # largest digit-run table of the packed kernel


class BudgetError(ValueError):
    """Raised when an enumeration would exceed the candidate budget.

    ``required`` is None when the count, known to exceed budget**2, was
    refused without being formed.
    """

    def __init__(self, what: str, required: int | None, budget: int):
        self.required = required
        self.budget = budget
        need = f"more than {budget}^2" if required is None else f"a budget of {required}"
        super().__init__(f"{what} requires {need} candidates, configured {budget}")


def _candidates(p: int, n: int, budget: int, what: str) -> int:
    """p**n, or BudgetError when it exceeds ``budget``.

    The budget bounds p**n, the polynomials a census counts, not the fewer
    codes it enumerates, one per orbit (see _orbit_slices).

    Callers run this before the primality test, a trial division.  When p**n
    would have over four times the budget's bits it is refused unformed: then
    p**n >= 2**(bits(p) n / 2) > budget**2, and forming it can take seconds.
    """
    if p.bit_length() > 1 and p.bit_length() * n > 4 * budget.bit_length():
        raise BudgetError(what, None, budget)
    required = p**n
    if required > budget:
        raise BudgetError(what, required, budget)
    return required


def is_prime(p: int) -> bool:
    """Primality by trial division; the oracle only handles prime fields."""
    if p < 2:
        return False
    q = 2
    while q * q <= p:
        if p % q == 0:
            return False
        q += 1
    return True


# --- scalar polynomial arithmetic over F_p --------------------------------


def poly_trim(coeffs: Sequence[int], p: int) -> PolyCoeffs:
    cs = [c % p for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_degree(f: PolyCoeffs) -> int:
    """Degree, with the zero polynomial given degree -1."""
    return len(f) - 1


def poly_from_code(code: int, degree: int, p: int) -> PolyCoeffs:
    """Monic polynomial of the given degree with lower coefficients from code.

    >>> poly_from_code(6, 3, 2)
    (0, 1, 1, 1)
    """
    if not 0 <= code < p**degree:
        raise ValueError(f"code {code} out of range for degree {degree} over F_{p}")
    digits = []
    for _ in range(degree):
        code, r = divmod(code, p)
        digits.append(r)
    return tuple(digits) + (1,)


def poly_to_code(f: PolyCoeffs, p: int) -> int:
    """Inverse of poly_from_code for monic polynomials.

    The census never encodes a tuple; the tests use this as an encoder
    independent of the sieve's products, to build the codes with a repeated
    factor that the sieve and the gcd kernel are sampled on.
    """
    if not f or f[-1] != 1:
        raise ValueError(f"expected a monic polynomial, got {f}")
    code = 0
    for c in reversed(f[:-1]):
        code = code * p + c
    return code


def poly_mul(a: PolyCoeffs, b: PolyCoeffs, p: int) -> PolyCoeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return poly_trim(out, p)


def poly_divmod(a: PolyCoeffs, b: PolyCoeffs, p: int) -> tuple[PolyCoeffs, PolyCoeffs]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    da, db = poly_degree(a), poly_degree(b)
    if da < db:
        return (), a
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        q = rem[k + db] * inv_lead % p
        quot[k] = q
        if q:
            for j in range(db + 1):
                rem[k + j] = (rem[k + j] - q * b[j]) % p
    return poly_trim(quot, p), poly_trim(rem[:db], p)


def poly_gcd(a: PolyCoeffs, b: PolyCoeffs, p: int) -> PolyCoeffs:
    """Monic gcd over F_p."""
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a and a[-1] != 1:
        inv_lead = pow(a[-1], -1, p)
        a = tuple(c * inv_lead % p for c in a)
    return a


def poly_derivative(f: PolyCoeffs, p: int) -> PolyCoeffs:
    return poly_trim([i * c for i, c in enumerate(f)][1:], p)


def is_squarefree(f: PolyCoeffs, p: int) -> bool:
    """A nonconstant f is square-free iff gcd(f, f') is constant.

    In characteristic p this includes the f' = 0 case (then gcd = f).
    """
    if poly_degree(f) < 1:
        raise ValueError("square-freeness is asked of nonconstant polynomials")
    return poly_degree(poly_gcd(f, poly_derivative(f, p), p)) == 0


def _check_irreducible_count(p: int, d: int, count: int) -> None:
    """Raise RuntimeError unless count is the necklace value M_d(p)."""
    expected = necklace_polynomial(d)(p)
    if expected.denominator != 1 or count != expected:
        raise RuntimeError(
            f"irreducible count at degree {d} over F_{p} is {count}, "
            f"expected M_{d}({p}) = {expected}"
        )


def enumerate_irreducibles(
    p: int, d_max: int, budget: int = DEFAULT_BUDGET
) -> dict[int, list[PolyCoeffs]]:
    """Monic irreducibles over F_p of each degree 1..d_max, by sieve.

    A monic polynomial of degree d is irreducible iff no previously found
    irreducible of degree <= d/2 divides it.  Per-degree counts are checked
    against the necklace polynomial values M_d(p).

    >>> [len(v) for v in enumerate_irreducibles(2, 3).values()]
    [2, 1, 2]
    """
    if d_max < 0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    _candidates(p, d_max, budget, f"enumerating irreducibles to degree {d_max} over F_{p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    table: dict[int, list[PolyCoeffs]] = {}
    for d in range(1, d_max + 1):
        found = []
        testers = [g for e in range(1, d // 2 + 1) for g in table[e]]
        for code in range(p**d):
            f = poly_from_code(code, d, p)
            if all(poly_divmod(f, g, p)[1] for g in testers):
                found.append(f)
        _check_irreducible_count(p, d, len(found))
        table[d] = found
    return table


def factor_list(
    f: PolyCoeffs, p: int, irreducible_lists: dict[int, list[PolyCoeffs]]
) -> list[tuple[PolyCoeffs, int]]:
    """Full factorization of a monic f by trial division, smallest factor first.

    The lists must cover degrees up to deg(f)/2; whatever nonconstant
    cofactor survives all trial divisions is itself irreducible.
    """
    if not f or f[-1] != 1:
        raise ValueError(f"expected a monic polynomial, got {f}")
    covered = max(irreducible_lists, default=0)
    if covered < poly_degree(f) // 2:
        raise ValueError(
            f"irreducible lists cover degree {covered}, "
            f"need degree {poly_degree(f) // 2} for degree-{poly_degree(f)} input"
        )
    out = []
    for d in sorted(irreducible_lists):
        if 2 * d > poly_degree(f):
            break
        for g in irreducible_lists[d]:
            if 2 * d > poly_degree(f):
                break
            mult = 0
            while True:
                quot, rem = poly_divmod(f, g, p)
                if rem:
                    break
                f = quot
                mult += 1
            if mult:
                out.append((g, mult))
    if poly_degree(f) >= 1:
        out.append((f, 1))
    return out


def factor_type(
    f: PolyCoeffs, p: int, irreducible_lists: dict[int, list[PolyCoeffs]]
) -> Partition:
    """Factorization type: degrees of irreducible factors with multiplicity.

    >>> irr = enumerate_irreducibles(2, 4)
    >>> factor_type(poly_from_code(6, 4, 2), 2, irr)  # x^4 + x^2 + x
    (3, 1)
    """
    degrees: list[int] = []
    for g, mult in factor_list(f, p, irreducible_lists):
        degrees.extend([poly_degree(g)] * mult)
    return tuple(sorted(degrees, reverse=True))


# --- census ----------------------------------------------------------------


# A census records the seconds of three stages: the factor sieve,
# gcd(f, f'), and the cross-check and count.  gcd is summed over the blocks,
# and with several threads the sieve runs beside the gcd, so the stages can
# sum to more than the wall time.  Seconds and candidate counts are left out
# of equality and repr.


@dataclass(frozen=True)
class FactorTypeTally:
    """Counts of square-free monic degree-n polynomials by factorization type."""

    p: int
    n: int
    counts: dict[Partition, int]
    total_squarefree: int
    seconds: dict[str, float] = field(compare=False, repr=False)


@dataclass(frozen=True)
class CensusRow:
    partition: Partition
    count: int
    predicted: int
    ok: bool


@dataclass(frozen=True)
class CensusReport:
    """A census cell's counts beside the theory's.

    ``candidates`` is the number of codes the census enumerated, one per
    orbit (see _orbit_slices); the budget counts p^n, all the polynomials
    those codes stand for.
    """

    p: int
    n: int
    total_squarefree: int
    expected_total: int
    rows: tuple[CensusRow, ...]
    candidates: int = field(compare=False, repr=False)
    seconds: dict[str, float] = field(compare=False, repr=False)

    @property
    def all_ok(self) -> bool:
        return self.total_squarefree == self.expected_total and all(
            r.ok for r in self.rows
        )


def _census_scalar(p: int, n: int) -> dict[Partition, int]:
    """Census counts over partitions(n), one candidate at a time; the tests' reference."""
    irr = enumerate_irreducibles(p, n)
    counts: dict[Partition, int] = {}
    for code in range(p**n):
        f = poly_from_code(code, n, p)
        factors = factor_list(f, p, irr)
        gcd_squarefree = is_squarefree(f, p)
        squarefree = all(m == 1 for _, m in factors)
        if gcd_squarefree != squarefree:
            raise RuntimeError(
                f"gcd square-freeness disagrees with factorization for {f} over F_{p}"
            )
        if squarefree:
            typ = tuple(
                sorted((poly_degree(g) for g, _ in factors), reverse=True)
            )
            counts[typ] = counts.get(typ, 0) + 1
    ordered = {lam: counts.pop(lam, 0) for lam in partitions(n)}
    if counts:
        raise RuntimeError(f"census produced non-partition types: {sorted(counts)}")
    return ordered


# Vectorized engine.  A factor table holds, for every monic degree-d code in
# the slices it was built on, indexed by code, its factorization type as an
# index into partitions(d) and, where asked, whether it has a repeated factor.


class _FactorTable(NamedTuple):
    ftype: np.ndarray
    repeated: np.ndarray | None


def _orbit_slices(p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """The code ranges (lo, hi, weight) the census enumerates at degree n.

    f(x) -> f(x + a) and f(x) -> c^(-n) f(c x), for a in F_p and c in F_p^*,
    preserve monic degree n, the factorization type and square-freeness, so
    each code may stand for the codes of its orbit.  A code's top base-p
    digit is a_{n-1}, the next one a_{n-2}:

    * p does not divide n: translation sends a_{n-1} to a_{n-1} + n a, so F_p
      acts freely and every orbit meets a_{n-1} = 0 once: [0, p^(n-1)),
      weight p;
    * p divides n, p odd: scaling sends a_{n-1} to a_{n-1} / c.  The codes
      with a_{n-1} = 0 are counted once each, and every other orbit of
      scaling meets a_{n-1} = 1 once.  There translation fixes a_{n-1} and
      sends a_{n-2} to a_{n-2} - a, since binom(n, 2) = 0 and n - 1 = -1 mod
      p, so it meets a_{n-2} = 0 once too: [p^(n-1), p^(n-1) + p^(n-2)),
      weight p (p - 1);
    * p = 2 divides n: neither applies, and the whole range has weight 1.

    Each slice is the set of codes whose top digits are those of lo, with
    hi - lo a power of p, and the slices tile [0, hi) of the last one in
    order, so the census enumerates one range of codes.

    >>> _orbit_slices(3, 6)
    ((0, 243, 1), (243, 324, 6))
    """
    top = p ** (n - 1)
    if n % p:
        return ((0, top, p),)
    if p == 2:
        return ((0, 2 * top, 1),)
    return ((0, top, 1), (top, top + top // p, p * (p - 1)))


def _cofactor_range(
    p: int, d: int, g: PolyCoeffs, hdeg: int, lo: int, hi: int
) -> tuple[int, int]:
    """The codes [hlo, hhi) of the monic h of degree hdeg with g * h in [lo, hi).

    [lo, hi) is a slice: hi - lo = p^(d - m), and its degree-d codes share
    their top m digits, those of lo.  Reversed, with G(y) = y^e g(1/y),
    H(y) = y^hdeg h(1/y) and A(y) = y^d (g h)(1/y), the product is A = G H,
    so the top digits of h are the coefficients of H = A / G below
    y^(m + 1), from the fixed coefficients of A.  They are one contiguous
    range of codes.  H has degree hdeg, so its coefficients past y^hdeg
    must come out 0, or no h qualifies.
    """
    e = len(g) - 1
    fixed = []  # the fixed digits of x^(d - 1), x^(d - 2), ...
    scale = p ** (d - 1)
    while scale >= hi - lo:
        fixed.append(lo // scale % p)
        scale //= p
    big_h = [1]
    for i, a in enumerate(fixed, 1):
        big_h.append((a - sum(g[e - j] * big_h[i - j] for j in range(1, min(i, e) + 1))) % p)
    if any(big_h[hdeg + 1 :]):
        return 0, 0
    m = min(len(fixed), hdeg)
    top = 0
    for digit in big_h[1 : m + 1]:
        top = top * p + digit
    rest = p ** (hdeg - m)
    return top * rest, (top + 1) * rest


def _coeff_dtype(p: int, terms: int = 1) -> np.dtype:
    """Narrowest signed integer dtype that holds terms * (p - 1)^2.

    The sieve's digit rows over odd p, the products of their digits with
    those of a multiplier and the sums of up to ``terms`` such products
    all live in this type, so nothing wraps for any p.
    """
    bound = terms * (p - 1) ** 2
    for dt in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x %= p in place, for x >= 0.

    numpy vectorises integer division by a scalar but not %, which is
    about 10x slower on int8 rows.
    """
    x -= x // p * p
    return x


def _write_digits(p: int, codes: np.ndarray, out: np.ndarray) -> None:
    """Base-p digits of codes, least significant first, into out[0], out[1], ..."""
    c = codes
    for row in out:
        q = c // p
        row[...] = c - q * p
        c = q


def _products(p: int, d: int, hdeg: int) -> Callable[[PolyCoeffs, int, int], np.ndarray]:
    """times(g, lo, hi): the codes of g * h for the monic h of degree hdeg with
    codes in [lo, hi), in h's order.

    g is a monic coefficient tuple of degree d - hdeg.  Over F_2 a product
    has no carries: its code is h << (d - hdeg), which leaves out the x^d of
    the leading term, XORed with h << j over the set bits j of g below its
    leading one.  Over odd p it is summed on digit rows, reduced mod p and
    read back by one dot product with the powers of p.
    """
    hsize = p**hdeg
    code_dtype = np.int32 if p**d <= np.iinfo(np.int32).max else np.int64
    hcodes = np.arange(hsize, dtype=code_dtype)
    if p == 2:
        hfull = hcodes | hsize  # the code of h with its leading x^hdeg
        shifted = np.empty_like(hcodes)

        def times(g: PolyCoeffs, lo: int, hi: int) -> np.ndarray:
            codes = hcodes[lo:hi] << (d - hdeg)
            for j, gj in enumerate(g[:-1]):
                if gj:
                    codes ^= np.left_shift(hfull[lo:hi], j, out=shifted[: hi - lo])
            return codes

        return times
    # row i of hfull (of prod) is the x^i coefficient of every h (of every
    # product g * h below x^d), so each row is contiguous
    hfull = np.empty((hdeg + 1, hsize), _coeff_dtype(p))
    _write_digits(p, hcodes, hfull[:hdeg])
    hfull[hdeg] = 1
    prod_dtype = _coeff_dtype(p, d - hdeg + 1)
    powers = p ** np.arange(d, dtype=code_dtype)

    def times(g: PolyCoeffs, lo: int, hi: int) -> np.ndarray:
        h = hfull[:, lo:hi]
        prod = np.zeros((d, hi - lo), prod_dtype)
        for j, gj in enumerate(g):
            if gj:
                top = min(j + hdeg + 1, d)
                prod[j:top] += gj * h[: top - j]
        # einsum casts the digit rows to code_dtype in small buffers, where
        # powers @ prod would first copy all of them
        return np.einsum("i,ij->j", powers, _reduce(prod, p), dtype=code_dtype)

    return times


def _sieve(
    p: int, d: int, slices: Sequence[tuple[int, int, int]], squares: bool
) -> _FactorTable:
    """Factorization type, and with ``squares`` the repeated-factor flag, of
    each degree-d code in the slices, indexed by code.  The slices
    (lo, hi, weight) tile [0, hi) of the last one in order.

    For every e <= d/2 and every irreducible g of degree e, in any order:

    * the type of g * h is that of h with a part e added, for every monic h
      of degree d - e with g * h in a slice (one range of h per slice, see
      _cofactor_range), read from the whole degree d - e table.  Each write
      to a code writes that code's type, and every reducible code has an
      irreducible factor of degree <= d/2, so the codes never written are
      the irreducibles, with ftype 0, the index of (d,);
    * g^2 * k has a repeated factor, for every monic k of degree d - 2e
      (k = 1 when d = 2e) with g^2 * k in a slice.  A code has a repeated
      factor exactly when it is divisible by such a square.

    The irreducibles of each slice, times its weight, must sum to M_d(p).
    """
    types = partitions(d)
    type_index = {lam: i for i, lam in enumerate(types)}
    size = slices[-1][1]
    ftype = np.zeros(size, np.uint8 if len(types) <= 256 else np.uint16)
    repeated = np.zeros(size, bool) if squares else None
    for e in range(1, d // 2 + 1):
        add_e = [
            type_index[tuple(sorted(mu + (e,), reverse=True))] for mu in partitions(d - e)
        ]
        htype = np.array(add_e, ftype.dtype)[_factor_table(p, d - e)]
        times_h = _products(p, d, d - e)
        times_k = _products(p, d, d - 2 * e) if squares else None
        for gc in _irreducible_codes(p, e).tolist():
            g = poly_from_code(gc, e, p)
            g2 = poly_mul(g, g, p) if squares else None
            for lo, hi, _ in slices:
                hlo, hhi = _cofactor_range(p, d, g, d - e, lo, hi)
                if hlo < hhi:
                    ftype[times_h(g, hlo, hhi)] = htype[hlo:hhi]
                if squares:
                    klo, khi = _cofactor_range(p, d, g2, d - 2 * e, lo, hi)
                    if klo < khi:
                        repeated[times_k(g2, klo, khi)] = True
    irreducible = sum(
        weight * (hi - lo - np.count_nonzero(ftype[lo:hi])) for lo, hi, weight in slices
    )
    _check_irreducible_count(p, d, irreducible)
    return _FactorTable(ftype, repeated)


@lru_cache(maxsize=None)
def _factor_table(p: int, d: int) -> np.ndarray:
    """The factorization type of every degree-d code: the tables below the census degree."""
    return _sieve(p, d, ((0, p**d, 1),), squares=False).ftype


@lru_cache(maxsize=None)
def _irreducible_codes(p: int, d: int) -> np.ndarray:
    return np.flatnonzero(_factor_table(p, d) == 0)


# Packed kernel.  Each polynomial is one uint64 whose lane i, _lane_width
# bits wide, holds the coefficient of x^i.


def _lane_width(p: int, narrow: bool) -> int:
    """Bits per lane of the packed gcd kernel.

    Over F_2 a lane is one bit.  Over odd p a lane has a spare top bit, on
    which the reduction mod p tests, above room for the largest value a step
    leaves in it: a wide lane holds a + k * b <= p (p - 1) for coefficients
    a, b and a multiplier k below p, a narrow lane, which takes k one bit at
    a time, only a + b <= 2p - 2.
    """
    if p == 2:
        return 1
    return (2 * p - 2 if narrow else p * (p - 1)).bit_length() + 1


def _narrow_lanes(p: int, n: int) -> bool:
    """Whether degree n over F_p runs narrow lanes: n + 1 wide ones overflow a word.

    Raises ValueError where n + 1 narrow lanes overflow the word too.
    """
    for narrow in (False, True):
        width = _lane_width(p, narrow)
        if (n + 1) * width <= 64:
            return narrow
    raise ValueError(
        f"census of degree {n} over F_{p} needs {(n + 1) * width} bits per packed "
        f"polynomial ({n + 1} lanes of {width}), more than the 64 of a word"
    )


class _PackedTables:
    """Constants of the packed kernel for monic degree-n polynomials over F_p.

    * narrow and width: the lanes, as _narrow_lanes and _lane_width choose
      them.
    * pieces: codes are cut into runs of base-p digits, each run a digit
      in base ``base`` (at most _PIECE), and for each run f[r] and df[r]
      are the lanes that its value r contributes to f and to f'.  For
      p > _PIECE a run table would have p entries, so pieces is empty and
      _packed_words computes the lanes of each digit.  top holds the lanes
      of x^n.
    * lead: bit offset of the leading lane of a word x, indexed by the
      float64 exponent of (x & ~(x >> 1)) >> 1.  Keeping only the top bit
      of each run of ones means the conversion never rounds up to the next
      power of two, so the offset is exact on all 64 bits; 0 and 1 both
      map to offset 0.
    * neg_inv: -1/c mod p at c = 1..p-1, read from a generator, so that
      no list of p Python ints is formed.  None at n = 1, where f' = 1 and
      every row leaves the kernel before a Euclid step reads it.
    * spare and subtract: the spare bit of every lane, and for j from the
      top down, p 2^j in every lane with p 2^j itself.  Narrow lanes never
      hold 2p, so they subtract p alone.
    """

    __slots__ = (
        "narrow", "width", "base", "pieces", "top", "lead", "neg_inv", "spare", "subtract"
    )

    def __init__(self, p: int, n: int, narrow: bool):
        self.narrow = narrow
        w = self.width = _lane_width(p, narrow)
        digits = 1
        while digits < n and p ** (digits + 1) <= _PIECE:
            digits += 1
        self.base = p**digits
        self.pieces = []
        if self.base <= _PIECE:
            digit_rows = np.empty((digits, self.base), np.uint64)
            _write_digits(p, np.arange(self.base, dtype=np.int64), digit_rows)
            for lo in range(0, n, digits):
                f = np.zeros(self.base, np.uint64)
                df = np.zeros(self.base, np.uint64)
                for i, digit in enumerate(digit_rows[: n - lo], lo):
                    f |= digit << np.uint64(w * i)
                    if i % p:
                        derived = digit * np.uint64(i % p) % np.uint64(p)
                        df |= derived << np.uint64(w * (i - 1))
                self.pieces.append((f, df))
        self.top = (np.uint64(1 << (w * n)), np.uint64((n % p) << (w * (n - 1))))
        bit_length = np.arange(2048) - 1021  # of x, at an exponent e >= 1023
        self.lead = (np.maximum(bit_length - 1, 0) // w * w).astype(np.uint64)
        self.neg_inv = None
        if n >= 2:
            inverses = (p - pow(c, -1, p) for c in range(1, p))
            self.neg_inv = np.fromiter(itertools.chain((0,), inverses), np.uint64, count=p)
        every_lane = sum(1 << (w * i) for i in range(n + 1))
        self.spare = np.uint64(every_lane << (w - 1) if p > 2 else 0)
        top_j = -1 if p == 2 else 0 if narrow else (p - 1).bit_length() - 1
        self.subtract = [
            (np.uint64(every_lane * (p << j)), np.uint64(p << j))
            for j in range(top_j, -1, -1)
        ]


@lru_cache(maxsize=None)
def _packed_tables(p: int, n: int) -> _PackedTables:
    return _PackedTables(p, n, _narrow_lanes(p, n))


def _lead_offset(x: np.ndarray, lead: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bit offset of the leading lane of each word of x (0 for 0), into out."""
    np.right_shift(x, np.uint64(1), out=out)
    np.invert(out, out=out)
    out &= x
    out >>= np.uint64(1)
    exponent = out.view(np.int64)
    np.copyto(out.view(np.float64), exponent, casting="unsafe")
    exponent >>= 52
    return np.take(lead, exponent, out=out, mode="clip")


def _reduce_lanes(x: np.ndarray, t: _PackedTables, scratch: np.ndarray) -> None:
    """Every lane of x mod p in place, for lanes below p 2^(J + 1).

    J is the largest j of t.subtract, so the bound is over p (p - 1) on wide
    lanes and 2p on narrow ones, where J = 0.  Lane by lane, p 2^j is
    subtracted where the lane is at least p 2^j: the spare bit survives
    (x | spare) - p 2^j exactly there, with no borrow between lanes.
    """
    for every_lane, step in t.subtract:
        np.bitwise_or(x, t.spare, out=scratch)
        scratch -= every_lane
        scratch &= t.spare
        scratch >>= np.uint64(t.width - 1)
        scratch *= step
        x -= scratch


def _packed_words(
    p: int, n: int, t: _PackedTables, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The words of f and of f' for each monic code, one digit run at a time."""
    f = np.full(codes.size, t.top[0])
    df = np.full(codes.size, t.top[1])
    rest = codes
    for f_piece, df_piece in t.pieces:
        rest, run = np.divmod(rest, t.base)
        f |= f_piece[run]
        df |= df_piece[run]
    if not t.pieces:
        rest = rest.astype(np.uint64)
        for i in range(n):
            rest, digit = np.divmod(rest, np.uint64(p))
            f |= digit << np.uint64(t.width * i)
            if i % p:
                digit *= np.uint64(i % p)
                digit %= np.uint64(p)
                df |= digit << np.uint64(t.width * (i - 1))
    return f, df


def _packed_gcd_degree(p: int, n: int, codes: np.ndarray) -> np.ndarray:
    """Degree of gcd(f, f') per monic degree-n code over F_p, one word per row.

    Euclid on words a = f, b = f': degrees are exact, read as the bit
    offsets ta, tb of the leading lanes.  Each step swaps a and b on the
    rows with ta < tb, by an XOR under a row mask, and then cancels a's
    leading lane with b shifted up by ta - tb bits:

    * over F_2 the step is a ^= b << (ta - tb);
    * over odd p it is a += k * (b << (ta - tb)) with
      k = -lead(a) / lead(b) mod p.  Wide lanes take the product in one
      multiply, which carries out of no lane, and are then reduced mod p by
      _reduce_lanes.  Narrow lanes take it one bit of k at a time: add the
      shifted b where the bit is set, reduce, double the shifted b, reduce.

    Every step lowers deg a + deg b by at least one.  It starts at most
    2n - 1 and a row has deg a >= 1 until it leaves, so 2n passes empty the
    loop.  A row leaves as soon as its degree is known, written out through
    its row index: at the start if f' is a constant (the gcd is f if f' = 0,
    else 1), and once a is a constant: the gcd is b if a = 0, else 1.  The
    per-pass values live in three buffers allocated once, so memory only
    shrinks as rows leave.
    """
    t = _packed_tables(p, n)
    a, b = _packed_words(p, n, t, codes)
    gdeg = np.where(b == 0, n, 0)
    rows = np.flatnonzero(b >= p)
    a = a[rows]
    b = b[rows]
    work = np.empty((3, rows.size), np.uint64)
    lane = np.uint64((1 << t.width) - 1)
    k_bits = (p - 1).bit_length()
    for _ in range(2 * n):
        scratch, ta, tb = work[:, : rows.size]
        done = a < p
        if done.any():
            out = np.flatnonzero(done)
            offset = _lead_offset(b[out], t.lead, tb[: out.size])
            gdeg[rows[out]] = np.where(a[out] == 0, offset // t.width, 0)
            keep = np.flatnonzero(~done)
            rows = rows[keep]
            a = a[keep]
            b = b[keep]
            scratch, ta, tb = work[:, : rows.size]
        if not rows.size:
            return gdeg
        _lead_offset(a, t.lead, ta)
        _lead_offset(b, t.lead, tb)
        swap = ta < tb
        for x, y in ((a, b), (ta, tb)):
            np.bitwise_xor(x, y, out=scratch)
            scratch *= swap
            x ^= scratch
            y ^= scratch
        if p == 2:
            ta -= tb
            np.left_shift(b, ta, out=scratch)
            a ^= scratch
            continue
        k = np.right_shift(a, ta, out=scratch)
        k &= lane
        ta -= tb  # now the shift that aligns b's leading lane with a's
        lead_b = np.right_shift(b, tb, out=tb)
        lead_b &= lane
        np.take(t.neg_inv, lead_b.view(np.int64), out=lead_b, mode="clip")
        k *= lead_b
        np.floor_divide(k, p, out=tb)
        tb *= p
        k -= tb
        shifted = np.left_shift(b, ta, out=tb)
        if not t.narrow:
            shifted *= k
            a += shifted
            _reduce_lanes(a, t, scratch)
            continue
        term = ta
        for bit in range(k_bits):
            np.right_shift(k, np.uint64(bit), out=term)
            term &= np.uint64(1)
            term *= shifted
            a += term
            _reduce_lanes(a, t, term)
            if bit + 1 < k_bits:
                shifted += shifted
                _reduce_lanes(shifted, t, term)
    raise RuntimeError("batched gcd failed to converge")


def _timed(task, *args) -> tuple[object, float]:
    start = time.perf_counter()
    return task(*args), time.perf_counter() - start


def _census_vector(
    p: int, n: int, workers: int | None
) -> tuple[dict[Partition, int], dict[str, float]]:
    # the gcd tables are built first, on this thread, so that a cell too wide
    # for a word is refused before any factor table is built
    _, setup = _timed(_packed_tables, p, n)
    slices = _orbit_slices(p, n)
    total = slices[-1][1]  # the codes enumerated, [0, total)
    threads = workers or os.cpu_count() or 1
    block = max(1, _BLOCK // threads)
    bounds = [(lo, min(lo + block, total)) for lo in range(0, total, block)]
    threads = min(threads, len(bounds))
    repeated = np.empty(total, bool)

    def gcd_block(lo: int, hi: int) -> None:
        # each block writes its own slice of repeated, so no two threads
        # write the same entry
        codes = np.arange(lo, hi, dtype=np.int64)
        np.greater(_packed_gcd_degree(p, n, codes), 0, out=repeated[lo:hi])

    # the sieve is the first task, so that on a pool it runs beside the gcd blocks
    tasks = [(_sieve, p, n, slices, True)] + [(gcd_block, lo, hi) for lo, hi in bounds]
    if threads == 1:
        results = [_timed(*task) for task in tasks]
    else:
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(_timed, *task) for task in tasks]
            # on the first failure, the tasks not yet started are dropped
            wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                future.cancel()
        # a failure is raised here; nothing was dropped unless something failed
        results = [future.result() for future in futures if not future.cancelled()]
    (table, sieve_seconds), *blocks = results
    start = time.perf_counter()
    if not np.array_equal(table.repeated, repeated):
        raise RuntimeError(
            f"gcd square-freeness disagrees with factorization over F_{p}, n={n}"
        )
    counts = np.zeros(len(partitions(n)), np.int64)
    for lo, hi, weight in slices:
        squarefree = table.ftype[lo:hi][~repeated[lo:hi]]
        counts += weight * np.bincount(squarefree, minlength=counts.size)
    seconds = {
        "sieve": sieve_seconds,
        "gcd": setup + sum(s for _, s in blocks),
        "tally": time.perf_counter() - start,
    }
    return dict(zip(partitions(n), counts.tolist())), seconds


def factor_type_census(
    p: int,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> FactorTypeTally:
    """Count square-free monic degree-n polynomials over F_p by type.

    Every cell runs the vectorized engine on ``workers`` threads, by
    default the CPU count; the tests hold it to the scalar _census_scalar.

    >>> factor_type_census(3, 2).counts
    {(2,): 3, (1, 1): 3}
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    _candidates(p, n, budget, f"census of degree {n} over F_{p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    counts, seconds = _census_vector(p, n, workers)
    return FactorTypeTally(p, n, counts, sum(counts.values()), seconds)


def census_vs_theory(
    p: int,
    n: int,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int | None = None,
) -> CensusReport:
    """Compare the census against cycle polynomial and measure predictions.

    For every partition lam of n the census count must equal N_lam(p), and
    (for n >= 2) the splitting measure times the square-free total must give
    the same count back.
    """
    tally = factor_type_census(p, n, budget=budget, workers=workers)
    expected_total = p**n - p ** (n - 1) if n >= 2 else p
    rows = []
    for lam in partitions(n):
        # z_lam N_lam(p) by Horner on the integer coefficients, top first
        scaled = 0
        for c in reversed(scaled_cycle_polynomial(lam)):
            scaled = scaled * p + c
        predicted, rem = divmod(scaled, centralizer_order(lam))
        if rem:
            raise ArithmeticError(
                f"N_{lam}({p}) is not an integer: {scaled}/{centralizer_order(lam)}"
            )
        count = tally.counts[lam]
        ok = count == predicted
        if n >= 2:
            ok = ok and measure_value(lam, p) * expected_total == count
        rows.append(CensusRow(lam, count, predicted, ok))
    candidates = _orbit_slices(p, n)[-1][1]
    return CensusReport(
        p,
        n,
        tally.total_squarefree,
        expected_total,
        tuple(rows),
        candidates,
        tally.seconds,
    )
