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
  polynomial per orbit of the affine group G = {x -> c x + a}, acting by
  f(x) -> c^(-n) f(c x + a), which keeps the factorization type and
  square-freeness.  It enumerates a few sections, each a prefix class of
  codes (its top digits fixed), and weights each by |G| / |H|, H the maps
  that keep the section (see _orbit_slices for the sections of each case
  and why): every orbit meets exactly one section, in one H-orbit, so the
  weighted counts are exact and the weights times the section sizes sum
  to p^n.  On the sections it runs the gcd batched over blocks, and
  replaces trial division by a factor sieve (see _sieve), in one mode,
  that counts each code's distinct irreducible factors of each degree
  <= n/2 and flags its repeated ones; whole tables, for their key-0 codes,
  the irreducibles, are sieved only for degrees <= n/2.  Fixing a
  product's top digits fixes its cofactor's, so the sieve's cost follows
  the codes it writes.

The vectorized engine always cross-checks every enumerated code's gcd
square-freeness verdict against the sieve's repeated-factor flag (a
repeated factor must appear exactly when the gcd is nonconstant), and the
irreducible count of every degree against the necklace polynomial value
M_d(p), weighted by the sections at degree n, and raises if either check
fails.

Its batched gcd runs Euclid on a block of codes at once, on words (see
_Kernel): over F_2 the even and odd halves of f (_Halves), over F_3 two
bit-planes (_Planes, after Boothby-Bradshaw 2009, "Bitslicing and the
Method of Four Russians over larger finite fields"), and over larger p
n + 1 coefficient lanes of a 64-bit word (_PackedTables), narrow ones
where wide ones do not fit.  A cell too wide for the words, such as
(3, 16) or (2, 64), or for a 64-bit factor key, n >= 52, is refused with
ValueError before any table is built; the default budget admits no such
cell.  The tests hold the kernels to scalar Euclid.

The vectorized census runs on one thread per CPU (``os.cpu_count()``),
never more than it has gcd blocks; numpy releases the interpreter lock in
the loops that do the work, and the tallies are the same for every thread
count.  The gcd kernel's tables are built first, on the calling thread.
The factor sieve, with its decode, is then the first task of the pool,
beside the gcd blocks, none of which reads it.  A block is runs (lo, hi)
of up to _BLOCK // w codes of the sections in order, w the number of
threads, so a small cell is one block however many sections it has; each
writes its square-free verdicts at its own codes of one array indexed by
code, which the calling thread cross-checks and counts, section by
section, once the pool is done.  With one thread, or one block, all of it
runs on the calling thread.  About _BLOCK rows are in flight at any time,
whatever the number of threads.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .measures import _splitting_measure
from .partitions import Partition, centralizer_order, partitions
from .ratpoly import necklace_polynomial, scaled_cycle_polynomial

PolyCoeffs = tuple[int, ...]

DEFAULT_BUDGET = 10**7
_BLOCK = 1 << 17  # gcd rows in flight, over all threads
_BATCH = 1 << 16  # products formed at once by the factor sieve
_PIECE = 1 << 12  # largest digit-run table of the gcd kernels


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
    codes it enumerates, a few per orbit (see _orbit_slices).

    Callers run this before the primality test.  When p**n would have over
    four times the budget's bits it is refused unformed: then
    p**n >= 2**(bits(p) n / 2) > budget**2, and forming it can take seconds.
    A budget below 1 admits nothing and is refused first, with ValueError.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if p.bit_length() > 1 and p.bit_length() * n > 4 * budget.bit_length():
        raise BudgetError(what, None, budget)
    required = p**n
    if required > budget:
        raise BudgetError(what, required, budget)
    return required


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # the least strong pseudoprime to all _MR_BASES


def is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, exact below _MR_BOUND
    (Sorenson-Webster 2015); from there on it raises ValueError."""
    if p >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {p}")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    twos = ((p - 1) & (1 - p)).bit_length() - 1
    odd = (p - 1) >> twos  # p - 1 = odd 2^twos
    for b in _MR_BASES:
        x = pow(b, odd, p)
        # a prime passes: b^(2^r odd) is 1 at r = 0 or -1 at some r < twos
        powers = itertools.accumulate(range(twos - 1), lambda y, _: y * y % p, initial=x)
        if x != 1 and p - 1 not in powers:
            return False
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

    ``candidates`` is the number of codes the census enumerated, the sizes
    of its sections summed (see _orbit_slices); the budget counts p^n, all
    the polynomials those codes stand for.
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


def _orbit_slices(p: int, n: int) -> tuple[tuple[int, int, int], ...]:
    """The sections (lo, hi, weight) of degree-n codes that the census enumerates.

    The affine group G = {x -> c x + a}, of order p (p - 1), acts on monic
    degree-n polynomials by f(x) -> c^(-n) f(c x + a), which keeps the
    factorization type and square-freeness.  Each section is a prefix class,
    the codes that share the top digits of lo (hi - lo is a power of p), and
    its weight is |G| / |H|, H the maps that keep it.  Every orbit O meets
    exactly one section, and every map that carries one of its codes into
    it lies in H; so O meets it in one H-orbit, of |O| |H| / |G| codes, and
    the weights count O exactly.

    Digits are read from the top, with s = a_{n-2}.  Translation by a sends
    a_{n-1} to a_{n-1} + n a and s to s + (n - 1) a_{n-1} a + binom(n, 2) a^2;
    where p | n and a_{n-1} = 0 it sends a_{n-3} to a_{n-3} + kappa(s) a,
    kappa(s) = (n - 2) s + binom(n, 3), since a^3 = a when p = 3 and
    p | binom(n, 3) when p > 3.  Scaling by c divides a_{n-i} by c^i.  k + 1
    is the least non-square mod p, so k is a square.

    * p = 2, n odd (or any p, n = 1): translation moves a_{n-1} freely:
      {a_{n-1} = 0}, weight p;
    * p = 2, n = 2 mod 4: binom(n, 2) is odd, so translation adds
      (a_{n-1} + 1) a to s, moving it freely where a_{n-1} = 0 and fixing
      it where a_{n-1} = 1: {a_{n-1} = s = 0}, weight 2, and {a_{n-1} = 1},
      weight 1;
    * p = 2, n = 0 mod 4: translation adds a_{n-1} a to s: {a_{n-1} = 0},
      weight 1, and {a_{n-1} = 1, s = 0}, weight 2;
    * odd p not dividing n: translation moves a_{n-1} freely, and on
      a_{n-1} = 0 scaling multiplies s by the squares c^(-2), whose classes
      are 0 (H the scalings) and the squares and the non-squares
      (H = {x -> +-x}): {a_{n-1} = s = 0}, weight p, and {a_{n-1} = 0, s = k}
      and {a_{n-1} = 0, s = k + 1}, weight p (p - 1) / 2.  For p = 3 they
      tile {a_{n-1} = 0}, one section of weight 3;
    * odd p dividing n: translation fixes a_{n-1}, and scaling brings a
      nonzero one to 1, where translation sends s to s - a:
      {a_{n-1} = 1, s = 0}, weight p (p - 1).  On a_{n-1} = 0 translation
      fixes s.  At the root s* of kappa (0 when p > 3) it fixes a_{n-3},
      and scaling keeps s* too: {a_{n-1} = 0, s = s*}, weight 1.  At any
      other s translation moves a_{n-3} freely, and the scalings that keep
      s, c = +-1, keep a_{n-3} = 0: {a_{n-1} = 0, s, a_{n-3} = 0}, weight
      p (p - 1) / 2, for one s per class under the squares: each s != s*
      when p = 3, where every c^2 = 1, and s = k and s = k + 1 when p > 3.

    The sections are disjoint and in increasing order, and may leave gaps
    between them; the census indexes its arrays by code up to the last
    section's end.

    >>> _orbit_slices(3, 6)
    ((0, 27, 3), (81, 162, 1), (162, 189, 3), (243, 324, 6))
    """
    top = p ** (n - 1)
    if p == 2 and n % 2 or n == 1 or p == 3 and n % p:
        return ((0, top, p),)
    if p == 2:
        if n % 4 == 2:
            return ((0, top // 2, 2), (top, 2 * top, 1))
        return ((0, top, 1), (top, top + top // 2, 2))
    half = p * (p - 1) // 2
    k = next(s for s in range(1, p) if pow(s + 1, (p - 1) // 2, p) != 1)
    t2 = top // p
    if n % p:
        return ((0, t2, p), (k * t2, (k + 1) * t2, half), ((k + 1) * t2, (k + 2) * t2, half))
    t3 = t2 // p
    s_star = next(s for s in range(p) if ((n - 2) * s + math.comb(n, 3)) % p == 0)
    others = [s for s in range(p) if s != s_star] if p == 3 else [k, k + 1]
    sections = [(s_star * t2, (s_star + 1) * t2, 1)]
    sections += [(s * t2, s * t2 + t3, half) for s in others]
    return tuple(sorted(sections)) + ((top, top + t2, p * (p - 1)),)


@lru_cache(maxsize=None)
def _int_dtype(bound: int) -> np.dtype:
    """Narrowest signed integer dtype that holds bound, or int64."""
    for dt in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


def _coeff_dtype(p: int, terms: int = 1) -> np.dtype:
    """Narrowest signed integer dtype that holds terms * (p - 1)^2.

    The sieve's digit rows over odd p, the products of their digits with
    those of a multiplier and the sums of up to ``terms`` such products
    all live in this type, so nothing wraps for any p.
    """
    return _int_dtype(terms * (p - 1) ** 2)


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


def _read_codes(digits: np.ndarray, p: int, code_dtype: np.dtype) -> np.ndarray:
    """The codes sum_i digits[i] p^i of digit rows below p, least significant first.

    Rows are merged in pairs, x[2i] + q x[2i + 1] with q the base of the
    last level (p, then p^2, p^4, ...), each level in the narrowest dtype
    that holds q^2 - 1, so most of the work is done on narrow rows.
    """
    q = p
    while len(digits) > 1:
        pairs = len(digits) // 2
        merged = np.empty_like(digits[: pairs + len(digits) % 2], _int_dtype(q * q - 1))
        merged[:pairs] = digits[1 : 2 * pairs : 2]
        merged[:pairs] *= q
        merged[:pairs] += digits[0 : 2 * pairs : 2]
        merged[pairs:] = digits[2 * pairs :]
        digits, q = merged, q * q
    return digits[0].astype(code_dtype, copy=False)


def _monic_rows(p: int, degree: int, codes: np.ndarray) -> np.ndarray:
    """Coefficient rows (degree + 1, len(codes)) of monic codes, constant first."""
    rows = np.empty((degree + 1, codes.size), np.int64)
    _write_digits(p, codes, rows[:degree])
    rows[degree] = 1
    return rows


def _convolve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Coefficient rows of the products of the columns of a and b, mod p."""
    out = np.zeros((len(a) + len(b) - 1, a.shape[1]), np.int64)
    for j, aj in enumerate(a):
        out[j : j + len(b)] += aj * b
    return _reduce(out, p)


def _cofactor_starts(
    p: int, d: int, g: np.ndarray, hdeg: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Where the monic h of degree hdeg with g * h in the slice [lo, hi) lie.

    g holds monic multipliers of degree e = d - hdeg as coefficient rows
    (e + 1, G).  [lo, hi) is a slice: hi - lo = p^(d - m), and its degree-d
    codes share their top m digits, those of lo.  Reversed, with
    G(y) = y^e g(1/y), H(y) = y^hdeg h(1/y) and A(y) = y^d (g h)(1/y), the
    product is A = G H, so the top digits of h are the coefficients of
    H = A / G below y^(m + 1), from the fixed coefficients of A; they are
    solved for every g at once.  H has degree hdeg, so its coefficients past
    y^hdeg must come out 0, or no h qualifies.  The h of one g are then one
    range of codes, and every range has the same length p^(hdeg - min(m, hdeg)).

    Returns (cols, starts, length): the columns of g with a nonempty range,
    the first code of each range, and the length.
    """
    e = len(g) - 1
    fixed = []  # the fixed digits of x^(d - 1), x^(d - 2), ...
    scale = p ** (d - 1)
    while scale >= hi - lo:
        fixed.append(lo // scale % p)
        scale //= p
    big_h = [np.ones(g.shape[1], np.int64)]
    for i, a in enumerate(fixed, 1):
        coeff = np.full(g.shape[1], a, np.int64)
        for j in range(1, min(i, e) + 1):
            coeff -= g[e - j] * big_h[i - j]
        big_h.append(coeff % p)
    ok = np.ones(g.shape[1], bool)
    for coeff in big_h[hdeg + 1 :]:
        ok &= coeff == 0
    m = min(len(fixed), hdeg)
    top = np.zeros(g.shape[1], np.int64)
    for coeff in big_h[1 : m + 1]:
        top = top * p + coeff
    length = p ** (hdeg - m)
    cols = np.flatnonzero(ok)
    return cols, top[cols] * length, length


@lru_cache(maxsize=None)
def _digit_table(p: int, digits: int) -> np.ndarray:
    """The base-p digits of every code below p^digits, one row per digit."""
    rows = np.empty((digits, p**digits), _coeff_dtype(p))
    _write_digits(p, np.arange(p**digits), rows)
    rows.flags.writeable = False  # shared by every caller
    return rows


def _batch_array(lead: tuple[int, ...], piece: int, columns: int, dtype) -> np.ndarray:
    """An empty array of shape lead + (piece, columns), laid out with the
    longer of its last two axes innermost, so that the loops over it are long."""
    if piece > columns:
        return np.empty(lead + (columns, piece), dtype).swapaxes(-1, -2)
    return np.empty(lead + (piece, columns), dtype)


def _products(p: int, d: int, g: np.ndarray, base: np.ndarray, r: int) -> np.ndarray:
    """codes[t, b]: the code of g[:, b] * (H_b + t(x)) for every t below p^r.

    H_b is a monic prefix with no terms below x^r, base[:, b] holds the
    coefficients of g[:, b] * H_b from x^r up, and t(x) is the polynomial of
    code t, of degree below r, the same in every column.  g * t adds to the
    base only below x^(e + r), e the degree of g.

    Over F_2 a code is the XOR of its terms, so codes[0] is the base and
    the rows t < 2^(b + 1) are those below 2^b XORed with g << b, doubled b
    by b.  Over odd p the coefficients below x^(e + r) are the base's plus
    those of g * t, summed on digit rows, reduced mod p and read as codes
    by _read_codes; the base above them is added as one integer per column.
    """
    e = len(g) - 1
    piece, columns = p**r, g.shape[1]
    code_dtype = np.int32 if p**d <= np.iinfo(np.int32).max else np.int64
    powers = p ** np.arange(d + 1, dtype=code_dtype)
    if p == 2:
        g_codes = (powers[: e + 1] @ g).astype(code_dtype)
        codes = _batch_array((), piece, columns, code_dtype)
        codes[0] = powers[r:d] @ base[:-1]
        for b, shifted in enumerate(g_codes << np.arange(r, dtype=code_dtype)[:, None]):
            np.bitwise_xor(codes[: 1 << b], shifted, out=codes[1 << b : 2 << b])
        return codes
    row_dtype = _coeff_dtype(p, e + 2)
    low = _batch_array((e + r,), piece, columns, row_dtype)
    low[:r] = 0
    low[r:] = base[:e, None, :]
    t = _digit_table(p, r)[:, :, None]
    term = np.empty_like(low[:r])
    for j, gj in enumerate(g.astype(row_dtype)):
        if j == e:
            low[j : j + r] += t
        elif gj.any():
            low[j : j + r] += np.multiply(t, gj, out=term)
    codes = _read_codes(_reduce(low, p), p, code_dtype)
    codes += (powers[e + r : d] @ base[e : d - r]).astype(code_dtype)
    return codes


def _multiples(
    p: int, d: int, g: np.ndarray, slices: Sequence[tuple[int, int, int]]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The codes of every product g * h in the slices, in batches.

    g holds monic multipliers of degree e as coefficient rows (e + 1, G),
    and h runs over the monic polynomials of degree d - e.  Yields
    (codes, cols, starts): codes[t, b] is the code of g[:, cols[b]] times
    the h of code starts[b] + t, for t below codes.shape[0], a power of p
    no larger than the ranges of _cofactor_starts; longer ranges are cut
    into pieces of that length.  A batch holds about _BATCH products.
    Each start is a multiple of the length p^r, so h is a prefix, fixed per
    column, plus the polynomial of code t (see _products).
    """
    e = len(g) - 1
    hdeg = d - e
    widest = 0  # digits of the longest piece
    while widest < hdeg and p ** (widest + 1) <= _BATCH:
        widest += 1
    # every slice's ranges are cut into pieces of the shortest one's length,
    # so that all slices share their batches
    found = [_cofactor_starts(p, d, g, hdeg, lo, hi) for lo, hi, _ in slices]
    r = widest
    while p**r > min(length for _, _, length in found):
        r -= 1
    piece = p**r
    cols = np.concatenate([np.repeat(cols, length // piece) for cols, _, length in found])
    starts = np.concatenate(
        [(starts[:, None] + np.arange(0, length, piece)).ravel() for _, starts, length in found]
    )
    per = max(1, _BATCH // piece)
    for i in range(0, cols.size, per):
        c, s = cols[i : i + per], starts[i : i + per]
        base = _convolve(g[:, c], _monic_rows(p, hdeg - r, s // piece), p)
        yield _products(p, d, g[:, c], base, r), c, s


@lru_cache(maxsize=None)
def _factor_key(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(radix, keys, types) of the degree-n factor key (see _sieve).

    radix[e] is the place value of digit e <= n/2, which counts distinct
    irreducible factors of degree e, at most n / e, so it runs below
    n // e + 1.  keys are the keys of partitions(n), sorted, and types the
    index of each one's partition.  The key is the narrowest unsigned dtype
    that holds every digit: 16 bits up to n = 14, 32 up to n = 27 and 64 up
    to n = 51; from n = 52 on, ValueError is raised.
    """
    ranges = (n // e + 1 for e in range(1, n // 2 + 1))
    *radix, bound = itertools.accumulate(ranges, lambda x, y: x * y, initial=1)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound - 1 <= np.iinfo(dtype).max:
            break
    else:
        bits = (bound - 1).bit_length()
        raise ValueError(f"census of degree {n} needs a {bits}-bit factor key, more than the 64 of a word")
    radix = np.array([0] + radix, dtype)
    keys = [sum(int(radix[e]) for e in lam if 2 * e <= n) for lam in partitions(n)]
    types = sorted(range(len(keys)), key=keys.__getitem__)
    return radix, np.array(sorted(keys), dtype), np.array(types, _int_dtype(len(keys)))


def _sieve(
    p: int, d: int, slices: Sequence[tuple[int, int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(key, ftype, repeated) of each degree-d code in the slices, indexed by
    code up to the last slice's end: its factor key, its type as an index
    into partitions(d) where it has no repeated factor, and its
    repeated-factor flag.  The slices (lo, hi, weight) are disjoint prefix
    classes.

    For every e <= d/2, all irreducibles g of degree e together (see
    _multiples):

    * every product g * h in a slice, h monic of degree d - e, adds
      radix[e] (see _factor_key) to its code's key; np.add.at keeps every
      addition of a batch to the same code.  So a key counts the distinct
      irreducible factors of each degree <= d/2, whatever the order, and
      the codes with key 0 are the irreducibles and those outside the slices;
    * g^2 * k has a repeated factor, for every monic k of degree d - 2e
      (k = 1 when d = 2e) with g^2 * k in a slice.  A code has a repeated
      factor exactly when it is divisible by such a square.

    The irreducibles of each slice, times its weight, must sum to M_d(p).
    A square-free code has at most one factor above d/2, so its key is its
    type's; keys are decoded in runs of _BATCH codes, and one that is no
    type's raises RuntimeError, in the census and in its cached tables alike.
    """
    radix, type_keys, types = _factor_key(d)
    size = slices[-1][1]
    key = np.zeros(size, radix.dtype)
    repeated = np.zeros(size, bool)
    for e in range(1, d // 2 + 1):
        g = _monic_rows(p, e, _irreducible_codes(p, e))
        for codes, _, _ in _multiples(p, d, g, slices):
            np.add.at(key, codes, radix[e])
        for codes, _, _ in _multiples(p, d, _convolve(g, g, p), slices):
            repeated[codes] = True
    irreducible = sum(w * (hi - lo - np.count_nonzero(key[lo:hi])) for lo, hi, w in slices)
    _check_irreducible_count(p, d, irreducible)
    ftype = np.zeros(size, types.dtype)
    for lo, hi, _ in slices:
        for start in range(lo, hi, _BATCH):
            run = slice(start, min(start + _BATCH, hi))
            free = ~repeated[run]
            found = key[run][free]
            at = np.searchsorted(type_keys, found)
            if not np.array_equal(type_keys.take(at, mode="clip"), found):
                raise RuntimeError(f"a square-free factor key is no type's: F_{p}, d={d}")
            ftype[run][free] = types[at]
    return key, ftype, repeated


@lru_cache(maxsize=None)
def _irreducible_codes(p: int, d: int) -> np.ndarray:
    """The irreducible degree-d codes, of key 0; a census of degree n reads d <= n/2 only."""
    return np.flatnonzero(_sieve(p, d, ((0, p**d, 1),))[0] == 0)


# Gcd kernels: Euclid on a block of codes at once (see _Kernel).


def _lane_width(p: int, narrow: bool) -> int:
    """Bits per lane of the lanes kernel.

    A lane has a spare top bit, on which the reduction mod p tests, above
    room for the largest value a step leaves in it: a wide lane holds
    a + k * b <= p (p - 1) for coefficients a, b and a multiplier k below p,
    a narrow lane, which takes k one bit at a time, only a + b <= 2p - 2.
    """
    return (2 * p - 2 if narrow else p * (p - 1)).bit_length() + 1


def _narrow_lanes(p: int, n: int) -> bool:
    """Whether degree n over F_p runs narrow lanes: n + 1 wide ones overflow a word.

    Raises ValueError where n + 1 narrow lanes overflow the word too.  F_2
    and F_3 run no lanes, but their words have the limits of lanes of 1 and
    of 4 bits: (n + 1) / 2 bits fill a 32-bit half, n + 1 a 16-bit plane.
    """
    for narrow in (False, True):
        width = 1 if p == 2 else _lane_width(p, narrow)
        if (n + 1) * width <= 64:
            return narrow
    raise ValueError(
        f"census of degree {n} over F_{p} needs {(n + 1) * width} bits per packed "
        f"polynomial ({n + 1} lanes of {width}), more than the 64 of a word"
    )


class _Kernel:
    """Tables and Euclid step of a gcd kernel for monic degree-n codes over F_p.

    A row's state is the words of a, those of b, then tb, the leading offset
    of b; it starts at a = f', b = f.  step reads the offset ta of a, swaps
    where ta < tb (see _order), so that b's offset is carried, not read, and
    cancels a's leading term with b shifted up by ta - tb.

    * base and pieces: codes are cut into runs of base-p digits, each run a
      digit in base ``base`` (at most _PIECE), and pieces[j][r] holds the
      words that value r of run j contributes; top holds those of x^n.  For
      p > _PIECE a run table would have p entries, so pieces is empty and
      start places each digit.
    * parked: a state, with a nonconstant, that step leaves as it is.
    """

    def __init__(self, p: int, n: int, dtype, tb: int):
        self.p, self.n, self.tb = p, n, dtype(tb)
        digits = 1
        while digits < n and p ** (digits + 1) <= _PIECE:
            digits += 1
        self.base = p**digits
        self.top = np.zeros(self.parts, dtype)
        self._place(self.top, n, dtype(1))
        self.pieces = []
        if self.base <= _PIECE:
            digit_rows = _digit_table(p, digits).astype(dtype)
            for lo in range(0, n, digits):
                table = np.zeros((self.base, self.parts), dtype)
                for i, digit in enumerate(digit_rows[: n - lo], lo):
                    self._place(table, i, digit)
                self.pieces.append(table)

    def _place(self, words: np.ndarray, i: int, digit) -> None:
        for part, value in self.place(i, digit):
            words[..., part] |= value

    def start(self, codes: np.ndarray) -> list[np.ndarray]:
        """The state of each code's row, one array per word and one for tb."""
        words = np.empty((codes.size, self.parts), self.top.dtype)
        words[...] = self.top
        rest = codes
        for table in self.pieces[:-1]:
            high = rest // self.base
            run = high * self.base
            np.subtract(rest, run, out=run)
            words |= np.take(table, run, axis=0)
            rest = high
        if self.pieces:  # the last run is what is left
            words |= np.take(self.pieces[-1], rest, axis=0)
        else:
            for i in range(self.n):
                rest, digit = np.divmod(rest, self.p)
                self._place(words, i, digit.astype(self.top.dtype))
        return [*np.ascontiguousarray(words.T), np.full(codes.size, self.tb)]

    def low(self, state: list[np.ndarray], buffer: np.ndarray) -> np.ndarray:
        """A word that is at most ``constant`` exactly where a is a constant."""
        return state[0]

    def degree(self, tb: np.ndarray) -> np.ndarray:
        return tb


class _Halves(_Kernel):
    """The F_2 kernel, on the even and odd halves A and B of f's coefficients.

    f = A(x)^2 + x B(x)^2, so f' = B^2 and gcd(f, f') = gcd(A, B)^2: with
    D = gcd(A, B), f = D^2 (A1^2 + x B1^2) and f' = D^2 B1^2, and an
    irreducible dividing B1 and A1^2 + x B1^2 would divide A1.  So Euclid
    runs on A and B, uint32 words, with b the half that holds x^n, and the
    degree is twice theirs.  A step is a ^= b << (ta - tb).  An offset is
    the float32 exponent of (x & ~(x >> 1)) >> 1, 126 + deg x: with only
    the top bit of each run of ones kept, the conversion never rounds up.
    """

    parts, constant = 2, np.uint32(1)
    buffers = (np.uint32,) * 3
    parked = (np.uint32(2), np.uint32(0), np.uint32(0))

    def __init__(self, n: int):
        super().__init__(2, n, np.uint32, 126 + n // 2)

    def place(self, i, digit):
        yield 1 - (self.n - i) % 2, digit << np.uint32(i // 2)

    def degree(self, tb):
        return 2 * (tb - np.uint32(126))

    def step(self, state, work):
        a, b, tb = state
        s, ta, d = work
        one = np.uint32(1)
        np.right_shift(a, one, out=s)
        np.invert(s, out=s)
        s &= a
        s >>= one
        np.copyto(ta.view(np.float32), s.view(np.int32), casting="unsafe")
        ta >>= np.uint32(23)
        _order([a], [b], ta, tb, d, s)
        np.left_shift(b, d, out=s)
        a ^= s


class _Planes(_Kernel):
    """The F_3 kernel, on two uint16 bit-planes per polynomial, the
    coefficients equal to 1 and those equal to 2 (Boothby-Bradshaw 2009).

    A step adds y = b << (ta - tb) to a, or subtracts it where the leading
    coefficients are equal; -y is y with its planes swapped.  The sum is
    Kawahara, Aoki and Takagi's (2008): with t = (a1 | y2) ^ (a2 | y1), the
    1s are (a2 | y2) ^ t and the 2s (a1 | y1) ^ t, so nothing is reduced.
    An offset is the float32 exponent of the planes' union, exact in 16 bits.
    """

    parts, constant = 4, np.uint16(1)
    buffers = (np.uint16,) * 6 + (np.float32,)
    parked = (np.uint16(2),) + (np.uint16(0),) * 4

    def __init__(self, n: int):
        super().__init__(3, n, np.uint16, n)

    def place(self, i, digit):
        for c in (1, 2):
            hit = (digit == c).astype(np.uint16)
            yield 1 + c, hit << np.uint16(i)
            if i % 3:
                yield c * i % 3 - 1, hit << np.uint16(i - 1)

    def low(self, state, buffer):
        return np.bitwise_or(state[0], state[1], out=buffer)

    def step(self, state, work):
        a1, a2, b1, b2, tb = state
        u, ta, d, m, y1, y2, f = work
        np.bitwise_or(a1, a2, out=u)
        np.copyto(f, u, casting="unsafe")
        exponent = f.view(np.uint32)
        exponent >>= np.uint32(23)
        np.copyto(ta, exponent, casting="unsafe")
        ta -= np.uint16(127)
        _order([a1, a2], [b1, b2], ta, tb, d, m)
        np.left_shift(b1, d, out=y1)
        np.left_shift(b2, d, out=y2)
        # m is all ones where bit ta of a1 ^ y1 is clear: the leading
        # coefficients are equal there, so y is negated
        np.bitwise_xor(a1, y1, out=m)
        m >>= ta
        m -= np.uint16(1)
        np.bitwise_xor(y1, y2, out=u)
        u &= m
        y1 ^= u
        y2 ^= u
        np.bitwise_or(a1, y2, out=m)
        np.bitwise_or(a2, y1, out=u)
        m ^= u
        a1 |= y1
        a1 ^= m
        a2 |= y2
        a2 ^= m
        state[0], state[1] = a2, a1  # a1 now holds the 2s


class _PackedTables(_Kernel):
    """The lanes kernel, for p > 3: f' and f are uint64 words of n + 1
    coefficient lanes, _lane_width bits each (Boothby-Bradshaw 2009).

    A step is a += k * (b << (ta - tb)) with k = -lead(a) / lead(b) mod p.
    Wide lanes take the product in one multiply, which carries out of no
    lane, and are then reduced by _reduce_lanes; narrow lanes take it one
    bit of k at a time: add the shifted b where the bit is set, reduce,
    double the shifted b, reduce.

    * lead: bit offset of the leading lane of a word x, indexed by the
      float64 exponent of (x & ~(x >> 1)) >> 1, exact on all 64 bits as
      over F_2; 0 and 1 both map to offset 0.
    * neg_inv: -1/c mod p at c = 1..p-1, read from a generator, so that
      no list of p Python ints is formed.  None at n = 1, where f' = 1 and
      every row leaves the kernel before a Euclid step reads it.
    * spare and subtract: the spare bit of every lane, and for j from the
      top down, p 2^j in every lane with p 2^j itself.  Narrow lanes never
      hold 2p, so they subtract p alone.
    """

    parts = 2
    buffers = (np.uint64,) * 3

    def __init__(self, p: int, n: int, narrow: bool):
        self.narrow = narrow
        w = self.width = _lane_width(p, narrow)
        super().__init__(p, n, np.uint64, w * n)
        self.constant = np.uint64(p - 1)
        self.parked = (np.uint64(1 << w), np.uint64(0), np.uint64(0))
        self.lane = np.uint64((1 << w) - 1)
        bit_length = np.arange(2048) - 1021  # of x, at an exponent e >= 1023
        self.lead = (np.maximum(bit_length - 1, 0) // w * w).astype(np.uint64)
        self.neg_inv = None
        if n >= 2:
            inverses = (p - pow(c, -1, p) for c in range(1, p))
            self.neg_inv = np.fromiter(itertools.chain((0,), inverses), np.uint64, count=p)
        every_lane = sum(1 << (w * i) for i in range(n + 1))
        self.spare = np.uint64(every_lane << (w - 1))
        top_j = 0 if narrow else (p - 1).bit_length() - 1
        self.subtract = [
            (np.uint64(every_lane * (p << j)), np.uint64(p << j))
            for j in range(top_j, -1, -1)
        ]

    def place(self, i, digit):
        p, w = self.p, self.width
        yield 1, digit << np.uint64(w * i)
        if i % p:
            yield 0, digit * np.uint64(i % p) % np.uint64(p) << np.uint64(w * (i - 1))

    def degree(self, tb):
        return tb // np.uint64(self.width)

    def step(self, state, work):
        a, b, tb = state
        k, ta, d = work
        p = np.uint64(self.p)
        _lead_offset(a, self.lead, ta)
        _order([a], [b], ta, tb, d, k)
        np.right_shift(a, ta, out=k)
        k &= self.lane
        lead_b = np.right_shift(b, tb, out=ta)
        lead_b &= self.lane
        np.take(self.neg_inv, lead_b.view(np.int64), out=lead_b, mode="clip")
        k *= lead_b
        np.floor_divide(k, p, out=ta)
        ta *= p
        k -= ta
        shifted = np.left_shift(b, d, out=ta)
        if not self.narrow:
            shifted *= k
            a += shifted
            _reduce_lanes(a, self, d)
            return
        k_bits = (self.p - 1).bit_length()
        for bit in range(k_bits):
            np.right_shift(k, np.uint64(bit), out=d)
            d &= np.uint64(1)
            d *= shifted
            a += d
            _reduce_lanes(a, self, d)
            if bit + 1 < k_bits:
                shifted += shifted
                _reduce_lanes(shifted, self, d)


@lru_cache(maxsize=None)
def _kernel(p: int, n: int) -> _Kernel:
    """The gcd kernel of degree n over F_p: F_2 halves, F_3 planes, else lanes."""
    narrow = _narrow_lanes(p, n)  # refuses the cells too wide for the words
    if p <= 3:
        return _Halves(n) if p == 2 else _Planes(n)
    return _PackedTables(p, n, narrow)


def _order(a: list, b: list, ta: np.ndarray, tb: np.ndarray, d: np.ndarray, mask: np.ndarray) -> None:
    """Swap the words of a and b, and ta with tb, where ta < tb.

    Then tb = min(ta, tb), ta = max(ta, tb) and d = ta - tb.  All arrays
    share one unsigned dtype; the sign of ta - tb, read in the signed view
    and shifted across the word, is the swap mask.
    """
    signed = np.dtype(f"i{ta.itemsize}")
    diff = d.view(signed)
    np.subtract(ta.view(signed), tb.view(signed), out=diff)
    np.right_shift(diff, signed.type(8 * ta.itemsize - 1), out=mask.view(signed))
    np.abs(diff, out=diff)
    np.minimum(ta, tb, out=tb)
    for x, y in zip(a, b):
        np.bitwise_xor(x, y, out=ta)
        ta &= mask
        x ^= ta
        y ^= ta
    np.add(tb, d, out=ta)


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


def _packed_gcd_degree(p: int, n: int, codes: np.ndarray) -> np.ndarray:
    """Degree of gcd(f, f') per monic degree-n code over F_p, by _kernel(p, n).

    Every step lowers deg a + deg b by at least one.  It starts at 2n - 1
    and a row has deg a, deg b >= 1 until it leaves, so 2n passes empty the
    loop.  A row leaves once a is a constant: the gcd is b if a = 0, else 1.
    Its degree is written out through its row index and the row is parked;
    once half the rows are parked, the others are compacted.  The buffers
    are allocated once, so memory only shrinks as rows leave.
    """
    k = _kernel(p, n)
    state = k.start(codes)
    gdeg = np.empty(codes.size, np.int64)
    rows = np.arange(codes.size)
    live = codes.size
    work = [np.empty(codes.size, dtype) for dtype in k.buffers]
    for _ in range(2 * n):
        low = k.low(state, work[0][: rows.size])
        done = low <= k.constant
        if done.any():
            out = np.flatnonzero(done)
            gdeg[rows[out]] = np.where(low[out] == 0, k.degree(state[-1][out]), 0)
            live -= out.size
            if not live:
                return gdeg
            rows[out] = -1
            if 2 * live > rows.size:
                for x, value in zip(state, k.parked):
                    x[out] = value
            else:
                keep = np.flatnonzero(rows >= 0)
                rows = rows[keep]
                state = [x[keep] for x in state]
        k.step(state, [w[: rows.size] for w in work])
    raise RuntimeError("batched gcd failed to converge")


def _timed(task, *args) -> tuple[object, float]:
    start = time.perf_counter()
    return task(*args), time.perf_counter() - start


def _census_vector(p: int, n: int) -> tuple[dict[Partition, int], dict[str, float]]:
    # on this thread, a cell too wide for the key or the words is refused first
    _factor_key(n)
    _, setup = _timed(_kernel, p, n)
    slices = _orbit_slices(p, n)
    threads = os.cpu_count() or 1
    block = max(1, _BLOCK // threads)
    # blocks as in the module docstring, each a list of runs (lo, hi), the codes [lo, hi)
    blocks: list[list[tuple[int, int]]] = []
    room = 0
    for lo, hi, _ in slices:
        while lo < hi:
            if not room:
                blocks.append([])
                room = block
            run = min(hi - lo, room)
            blocks[-1].append((lo, lo + run))
            lo += run
            room -= run
    threads = min(threads, len(blocks))
    # indexed by code; the gaps between the slices are never read
    repeated = np.empty(slices[-1][1], bool)

    def gcd_block(runs: list[tuple[int, int]]) -> None:
        # each block writes only its own codes of repeated, so no two threads
        # write the same entry
        codes = np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in runs])
        repeated[codes] = _packed_gcd_degree(p, n, codes) > 0

    # the sieve is the first task, so that on a pool it runs beside the gcd blocks
    tasks = [(_sieve, p, n, slices)] + [(gcd_block, runs) for runs in blocks]
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
    ftype, sieve_repeated = table[1:]
    # the keys are freed here, after the gcd blocks: freeing so large an array
    # beside them raises glibc's mmap threshold, and their buffers stay in the heap
    results = futures = table = None
    start = time.perf_counter()
    counts = np.zeros(len(partitions(n)), np.int64)
    for lo, hi, weight in slices:
        if not np.array_equal(sieve_repeated[lo:hi], repeated[lo:hi]):
            raise RuntimeError(
                f"gcd square-freeness disagrees with factorization over F_{p}, n={n}"
            )
        squarefree = ftype[lo:hi][~repeated[lo:hi]]
        counts += weight * np.bincount(squarefree, minlength=counts.size)
    seconds = {
        "sieve": sieve_seconds,
        "gcd": setup + sum(s for _, s in blocks),
        "tally": time.perf_counter() - start,
    }
    return dict(zip(partitions(n), counts.tolist())), seconds


def factor_type_census(p: int, n: int, *, budget: int = DEFAULT_BUDGET) -> FactorTypeTally:
    """Count square-free monic degree-n polynomials over F_p by type.

    Every cell runs the vectorized engine, one thread per CPU; the tests
    hold it to the scalar _census_scalar.

    >>> factor_type_census(3, 2).counts
    {(2,): 3, (1, 1): 3}
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _candidates(p, n, budget, f"census of degree {n} over F_{p}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    counts, seconds = _census_vector(p, n)
    return FactorTypeTally(p, n, counts, sum(counts.values()), seconds)


def census_vs_theory(p: int, n: int, *, budget: int = DEFAULT_BUDGET) -> CensusReport:
    """Compare the census against cycle polynomial and measure predictions.

    For every partition lam of n the census count must equal N_lam(p), and
    (for n >= 2) the splitting measure times the square-free total must give
    the same count back.
    """
    tally = factor_type_census(p, n, budget=budget)
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
            ok = ok and _splitting_measure(lam).value(p) * expected_total == count
        rows.append(CensusRow(lam, count, predicted, ok))
    candidates = sum(hi - lo for lo, hi, _ in _orbit_slices(p, n))
    return CensusReport(
        p,
        n,
        tally.total_squarefree,
        expected_total,
        tuple(rows),
        candidates,
        tally.seconds,
    )
