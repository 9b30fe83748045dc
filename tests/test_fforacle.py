"""Finite-field square-free census and its polynomial arithmetic core."""

import functools
import math
import os
import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidchar import fforacle
from braidchar.fforacle import (
    DEFAULT_BUDGET,
    BudgetError,
    _narrow_lanes,
    _packed_gcd_degree,
    _PackedTables,
    census_vs_theory,
    enumerate_irreducibles,
    factor_list,
    factor_type,
    factor_type_census,
    is_prime,
    is_squarefree,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_from_code,
    poly_gcd,
    poly_mul,
    poly_to_code,
    poly_trim,
)
from braidchar.partitions import partitions
from braidchar.ratpoly import RatPoly, necklace_polynomial


def test_is_prime():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_is_prime_matches_trial_division():
    small = [q for q in range(2, 317) if all(q % r for r in range(2, q))]
    for p in range(-3, 10**5):
        expected = p >= 2 and all(p % q for q in small if q * q <= p)
        assert is_prime(p) == expected, p


def test_is_prime_on_strong_pseudoprimes_and_its_bound():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up
    # to 23, and the Mersenne prime 2^61 - 1
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1) and not is_prime((2**61 - 1) * 1000003)
    bound = fforacle._MR_BOUND
    assert not is_prime(bound - 2)
    with pytest.raises(ValueError, match=f"decided only below {bound}"):
        is_prime(bound)


def test_code_roundtrip():
    for p in (2, 3, 5):
        for code in range(min(p**3, 60)):
            f = poly_from_code(code, 3, p)
            assert len(f) == 4
            assert f[-1] == 1  # monic
            assert poly_to_code(f, p) == code


def test_irreducible_counts_match_necklace_polynomials():
    for p, d_max in ((2, 8), (3, 5), (5, 3), (7, 2)):
        lists = enumerate_irreducibles(p, d_max)
        for d in range(1, d_max + 1):
            assert len(lists[d]) == necklace_polynomial(d)(p)


def test_irreducibles_smallest_cases_frozen():
    lists = enumerate_irreducibles(2, 4)
    assert lists[1] == [(0, 1), (1, 1)]          # z, z + 1
    assert lists[2] == [(1, 1, 1)]               # z^2 + z + 1
    assert sorted(lists[3]) == [(1, 0, 1, 1), (1, 1, 0, 1)]
    assert len(lists[4]) == 3


def test_factor_type_spot_values():
    lists = enumerate_irreducibles(2, 6)
    # x^4 + x^2 + x = x * (x^3 + x + 1)
    assert factor_type(poly_from_code(6, 4, 2), 2, lists) == (3, 1)
    # x^6 + x = x (x + 1)(x^2 + x + 1) ... squarefree part check via census
    assert factor_type((0, 1, 1), 2, lists) == (1, 1)
    assert factor_type((1, 1, 1), 2, lists) == (2,)


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (2, 1, {(1,): 2}),
        (2, 2, {(2,): 1, (1, 1): 1}),
        (3, 2, {(2,): 3, (1, 1): 3}),
        (2, 3, {(3,): 2, (2, 1): 2, (1, 1, 1): 0}),
    ],
)
def test_census_small_frozen(p, n, expected):
    tally = factor_type_census(p, n)
    assert dict(tally.counts) == expected


def test_census_counts_ordered_canonically():
    tally = factor_type_census(3, 4)
    assert tuple(tally.counts) == partitions(4)


def test_engines_agree():
    for p, top in ((2, 8), (3, 5), (5, 3), (7, 2), (11, 3), (13, 3)):
        for n in range(1, top + 1):
            scalar = fforacle._census_scalar(p, n)
            assert list(scalar.items()) == list(factor_type_census(p, n).counts.items())


@pytest.mark.parametrize(
    "p, n, slices",
    [
        # p = 2, n odd: translation
        (2, 9, ((0, 256, 2),)),
        # odd p not dividing n: s = a_{n-2} = 0, k and k + 1; for p = 7,
        # k = 2, so the sections leave a gap
        (5, 4, ((0, 25, 5), (25, 50, 10), (50, 75, 10))),
        (7, 4, ((0, 49, 7), (98, 147, 21), (147, 196, 21))),
        # odd p dividing n: s = s* with weight 1, the other classes of s with
        # a_{n-3} = 0, and a_{n-1} = 1, s = 0; s* = 2 at (3, 3), 1 at (3, 6)
        # and 0 at (5, 5)
        (3, 3, ((0, 1, 3), (3, 4, 3), (6, 9, 1), (9, 12, 6))),
        (3, 6, ((0, 27, 3), (81, 162, 1), (162, 189, 3), (243, 324, 6))),
        (5, 5, ((0, 125, 1), (125, 150, 10), (250, 275, 10), (625, 750, 20))),
        # p = 2, n = 2 mod 4
        (2, 10, ((0, 256, 2), (512, 1024, 1))),
        (2, 6, ((0, 16, 2), (32, 64, 1))),
        # p = 2, n = 0 mod 4
        (2, 8, ((0, 128, 1), (128, 192, 2))),
        # p = 3 not dividing n: the three sections tile a_{n-1} = 0
        (3, 4, ((0, 27, 3),)),
    ],
)
def test_orbit_census_matches_scalar(p, n, slices):
    # one cell per rule of _orbit_slices against the scalar engine, which
    # walks every code
    assert fforacle._orbit_slices(p, n) == slices
    tally = factor_type_census(p, n)
    assert list(tally.counts.items()) == list(fforacle._census_scalar(p, n).items())
    assert census_vs_theory(p, n).candidates == sum(hi - lo for lo, hi, _ in slices)


def census_cells(bound):
    """Every (p, n) with p < 60 prime and p^n <= bound."""
    for p in filter(is_prime, range(60)):
        n = 1
        while p**n <= bound:
            yield p, n
            n += 1


def test_sections_tile_the_weighted_codes():
    # census-free: every section is a prefix class, after the last one, and
    # the weights, each a divisor of |G| = p (p - 1), count every code
    cells = list(census_cells(10**12))
    assert len(cells) == 198
    for p, n in cells:
        slices = fforacle._orbit_slices(p, n)
        end = 0
        for lo, hi, weight in slices:
            width = hi - lo
            assert lo >= end and width >= 1, (p, n, slices)
            assert p**n % width == 0 and lo % width == 0, (p, n, slices)
            assert p * (p - 1) % weight == 0, (p, n, slices)
            end = hi
        assert end <= p**n
        assert sum(weight * (hi - lo) for lo, hi, weight in slices) == p**n, (p, n)


def affine_images(p, n, c, a):
    """The code of c^(-n) f(c x + a) for every monic degree-n code f."""
    codes = np.arange(p**n)
    digits = np.empty((n + 1, codes.size), np.int64)
    for i in range(n):
        codes, digits[i] = np.divmod(codes, p)
    digits[n] = 1
    # (c x + a)^i has x^j coefficient binom(i, j) c^j a^(i - j)
    subst = np.array(
        [
            [math.comb(i, j) * c**j * a ** (i - j) % p if i >= j else 0 for i in range(n + 1)]
            for j in range(n + 1)
        ]
    )
    image = subst @ digits % p * pow(c, -n, p) % p
    return p ** np.arange(n) @ image[:n]


@pytest.mark.parametrize("p, n", [cell for cell in census_cells(20000) if cell[0] <= 13])
def test_sections_count_every_affine_orbit_once(p, n):
    # census-free: for every monic f, the weights of the sections' codes among
    # its images under the |G| = p (p - 1) maps x -> c x + a sum to |G|, so
    # every orbit O meets the sections with total weight |O|
    weight = np.zeros(p**n, np.int64)
    for lo, hi, w in fforacle._orbit_slices(p, n):
        weight[lo:hi] = w
    total = np.zeros(p**n, np.int64)
    for c in range(1, p):
        for a in range(p):
            total += weight[affine_images(p, n, c, a)]
    assert np.array_equal(total, np.full(p**n, p * (p - 1))), np.flatnonzero(total != p * (p - 1))[:5]


@pytest.mark.parametrize("p, d", [(2, 6), (3, 4), (5, 3)])
def test_cofactor_range_matches_brute_force(p, d):
    # every monic g of each degree e at once, on every slice of degree-d
    # codes that fixes the top m digits: the monic h of degree d - e with
    # g * h in the slice are exactly the range from the batched starts, and
    # the batched products are those formed one by one; where m exceeds the
    # degree of h, that is one h or none
    for e in range(1, d + 1):
        hdeg = d - e
        g = fforacle._monic_rows(p, e, np.arange(p**e))
        products = {
            (gc, h): poly_to_code(poly_mul(poly_from_code(gc, e, p), poly_from_code(h, hdeg, p), p), p)
            for gc in range(p**e)
            for h in range(p**hdeg)
        }
        for m in range(d + 1):
            width = p ** (d - m)
            for lo in range(0, p**d, width):
                cols, starts, length = fforacle._cofactor_starts(p, d, g, hdeg, lo, lo + width)
                found = dict(zip(cols.tolist(), starts.tolist()))
                for gc in range(p**e):
                    expected = [h for h in range(p**hdeg) if lo <= products[gc, h] < lo + width]
                    start = found.get(gc)
                    got = [] if start is None else list(range(start, start + length))
                    assert got == expected, (gc, lo, lo + width)
                formed = {}
                for codes, cols, starts in fforacle._multiples(p, d, g, ((lo, lo + width, 1),)):
                    for b, (gc, start) in enumerate(zip(cols.tolist(), starts.tolist())):
                        for t, code in enumerate(codes[:, b].tolist()):
                            formed[gc, start + t] = code
                assert formed == {
                    key: code for key, code in products.items() if lo <= code < lo + width
                }, (e, lo, lo + width)


def test_every_cell_runs_the_vector_engine(monkeypatch):
    def refuse(p, n):
        raise AssertionError(f"scalar engine ran on ({p}, {n})")

    monkeypatch.setattr(fforacle, "_census_scalar", refuse)
    for p, n in ((2, 1), (2, 4), (3, 2), (13, 1)):
        assert census_vs_theory(p, n).all_ok


def test_scalar_reference_raises_on_inconsistent_factors(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(fforacle, "is_squarefree", lambda f, p: False)
        with pytest.raises(RuntimeError, match="disagrees with factorization"):
            fforacle._census_scalar(3, 2)
    # two copies of an irreducible f of degree 2, each with multiplicity 1,
    # make the square-free type (2, 2), which is no partition of 2
    monkeypatch.setattr(fforacle, "factor_list", lambda f, p, irr: [(f, 1), (f, 1)])
    monkeypatch.setattr(fforacle, "is_squarefree", lambda f, p: True)
    with pytest.raises(RuntimeError, match=r"non-partition types: \[\(2, 2\)\]"):
        fforacle._census_scalar(3, 2)


def assert_sieve_matches_factor_list(p, d, sieved, codes, irr):
    # one factor_list per code gives its key, the sum of radix[deg g] over its
    # distinct irreducible factors g of degree <= d/2, its repeated-factor
    # flag, and where that is clear its type
    key, ftype, flag = sieved
    radix = fforacle._factor_key(d)[0]
    for code in codes:
        factors = factor_list(poly_from_code(code, d, p), p, irr)
        degrees = [poly_degree(g) for g, _ in factors]
        assert key[code] == sum(int(radix[e]) for e in degrees if 2 * e <= d), (p, code)
        repeated = any(m > 1 for _, m in factors)
        assert flag[code] == repeated, (p, code)
        if not repeated:
            lam = tuple(sorted(degrees, reverse=True))
            assert partitions(d)[ftype[code]] == lam, (p, code)


@pytest.mark.parametrize("p, d", [(2, 10), (3, 6), (5, 4), (7, 3), (11, 3)])
def test_factor_table_matches_trial_division(p, d):
    # the whole-range sieve holds the key and the repeated flag of every
    # code, and the type of every square-free one; the cached irreducibles
    # are the codes of key 0
    sieved = fforacle._sieve(p, d, ((0, p**d, 1),))
    assert np.array_equal(fforacle._irreducible_codes(p, d), np.flatnonzero(sieved[0] == 0))
    assert_sieve_matches_factor_list(p, d, sieved, range(p**d), enumerate_irreducibles(p, d))


@pytest.mark.parametrize("p, d", [(2, 20), (3, 13)])
def test_products_match_trial_division_on_sampled_codes(p, d):
    # both cells are past the exhaustive ones, over F_2 and over odd p; half
    # the sample has a squared linear factor, so repeated flags occur
    sieved = fforacle._sieve(p, d, ((0, p**d, 1),))
    codes = sampled_codes(p, d, 2000, seed=d)
    assert sieved[2][codes].sum() >= 1000
    assert_sieve_matches_factor_list(p, d, sieved, codes.tolist(), enumerate_irreducibles(p, d // 2))


def scalar_gcd_degree(p, n, code):
    """deg gcd(f, f') for the monic degree-n f of this code, by scalar Euclid."""
    f = poly_from_code(code, n, p)
    return poly_degree(poly_gcd(f, poly_derivative(f, p), p))


def scalar_gcd_degrees(p, n):
    return [scalar_gcd_degree(p, n, code) for code in range(p**n)]


def test_packed_f2_gcd_matches_both_kernels():
    zero_derivative = 0
    for n in range(1, 13):
        codes = np.arange(2**n, dtype=np.int64)
        packed = _packed_gcd_degree(2, n, codes).tolist()
        assert packed == scalar_gcd_degrees(2, n), n
        zero_derivative += packed.count(n)
    # f' = 0 (f a square over F_2) leaves the kernel at once with gcd f
    assert zero_derivative > 0


@pytest.mark.parametrize("p, top", [(3, 6), (5, 4), (7, 3), (11, 3), (13, 2)])
def test_packed_gcd_matches_both_kernels(p, top, monkeypatch):
    # every code on the kernel these cells run, and on narrow lanes, forced:
    # the patch reaches p = 3 too, which runs the plane kernel unpatched, so
    # lanes are checked on F_3 as well; p = 2 is
    # test_packed_f2_gcd_matches_both_kernels
    for n in range(1, top + 1):
        assert not _narrow_lanes(p, n)
        codes = np.arange(p**n, dtype=np.int64)
        expected = scalar_gcd_degrees(p, n)
        assert _packed_gcd_degree(p, n, codes).tolist() == expected, n
        with monkeypatch.context() as patch:
            patch.setattr(fforacle, "_kernel", lambda p, n: _PackedTables(p, n, narrow=True))
            assert _packed_gcd_degree(p, n, codes).tolist() == expected, n


def sampled_codes(p, n, count, seed):
    # every other code has a repeated linear factor, which uniform codes
    # almost never have for large p
    rng = random.Random(seed)
    codes = []
    for i in range(count):
        if i % 2 and n >= 2:
            root = (rng.randrange(p), 1)
            cofactor = poly_from_code(rng.randrange(p ** (n - 2)), n - 2, p)
            f = poly_mul(poly_mul(root, root, p), cofactor, p)
            codes.append(poly_to_code(f, p))
        else:
            codes.append(rng.randrange(p**n))
    return np.array(codes, np.int64)


def assert_matches_scalar_euclid(p, n, codes):
    expected = [scalar_gcd_degree(p, n, c) for c in codes.tolist()]
    assert _packed_gcd_degree(p, n, codes).tolist() == expected


def test_plane_kernel_matches_scalar_euclid():
    for n in range(1, 8):
        codes = np.arange(3**n, dtype=np.int64)
        assert _packed_gcd_degree(3, n, codes).tolist() == scalar_gcd_degrees(3, n), n
    for n in range(12, 16):
        assert_matches_scalar_euclid(3, n, sampled_codes(3, n, 300, seed=n))


def test_f2_gcd_is_twice_the_gcd_of_the_halves():
    # f = A(x)^2 + x B(x)^2 over F_2, A and B the even and odd coefficients
    for n in range(1, 11):
        for code in range(2**n):
            f = poly_from_code(code, n, 2)
            halves = [poly_trim(f[i::2], 2) for i in (0, 1)]
            gcd = poly_gcd(f, poly_derivative(f, 2), 2)
            assert poly_degree(gcd) == 2 * poly_degree(poly_gcd(*halves, 2)), f


@pytest.mark.parametrize(
    "p, n, dtype", [(2, 19, np.uint32), (2, 63, np.uint32), (3, 12, np.uint16), (3, 15, np.uint16)]
)
def test_small_field_words_keep_their_width(p, n, dtype, monkeypatch):
    # a word widened by a promotion would give the same degrees, slower
    kernel = type(fforacle._kernel(p, n))
    step, seen = kernel.step, set()

    def record(self, state, work):
        seen.update(x.dtype for x in state + work if x.dtype.kind != "f")
        step(self, state, work)
        seen.update(x.dtype for x in state)

    monkeypatch.setattr(kernel, "step", record)
    assert_matches_scalar_euclid(p, n, sampled_codes(p, n, 200, seed=n))
    assert seen == {np.dtype(dtype)}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_derivative_rows_for_every_prime(p):
    # f = x^p + c is (x + c')^p, so f' = 0 and the gcd is f itself; from
    # p = 11 on, degree p does not fit a word
    codes = np.arange(p, dtype=np.int64)
    assert _packed_gcd_degree(p, p, codes).tolist() == [p] * p
    assert [scalar_gcd_degree(p, p, c) for c in range(p)] == [p] * p


def test_zero_derivative_rows_on_narrow_lanes():
    # x^10 + c x^5 + d is (x^2 + c x + d)^5 over F_5, so f' = 0 and the gcd
    # is f itself
    assert _narrow_lanes(5, 10)
    codes = np.array([c * 5**5 + d for c in range(5) for d in range(5)], np.int64)
    assert _packed_gcd_degree(5, 10, codes).tolist() == [10] * 25
    assert [scalar_gcd_degree(5, 10, c) for c in codes.tolist()] == [10] * 25


@pytest.mark.parametrize(
    "p, largest", [(2, 63), (3, 15), (5, 9), (7, 8), (11, 7), (13, 6)]
)
def test_gcd_at_the_word_boundary(p, largest):
    # the largest degree whose wide lanes fit one word runs them, and the
    # next one runs narrow lanes; for p <= 3 these are no narrower, so the
    # next degree is refused
    assert not _narrow_lanes(p, largest)
    assert_matches_scalar_euclid(p, largest, sampled_codes(p, largest, 200, seed=p))
    n = largest + 1
    if p <= 3:
        with pytest.raises(ValueError, match="more than the 64 of a word"):
            _narrow_lanes(p, n)
        return
    assert _narrow_lanes(p, n)
    assert_matches_scalar_euclid(p, n, sampled_codes(p, n, 300, seed=p))


@pytest.mark.parametrize("p, n", [(53, 4), (211, 3), (3163, 2), (4099, 2)])
def test_narrow_lanes_on_sampled_codes(p, n):
    # (3163, 2) has three 14-bit lanes, where its wide ones would take 25
    # bits; 4099 is past _PIECE, so its lanes come from digit arithmetic
    # rather than run tables
    assert _narrow_lanes(p, n)
    assert_matches_scalar_euclid(p, n, sampled_codes(p, n, 300, seed=n))


def test_degree_one_builds_no_inverse_table():
    # f' = 1 at n = 1, so no Euclid step runs and no inverse is read; from
    # n = 2 on, the table holds -1/c mod p for every c
    assert _PackedTables(10007, 1, narrow=False).neg_inv is None
    assert _PackedTables(10007, 2, narrow=True).neg_inv.size == 10007


@pytest.mark.parametrize("p, n", [(3, 16), (2, 64)])
def test_cells_wider_than_a_word_are_refused(p, n, monkeypatch):
    # 17 lanes of 4 bits, or 65 of one bit, do not fit 64 bits; the census
    # refuses them, within budget, before it builds any table
    built = []
    monkeypatch.setattr(fforacle, "_sieve", lambda *cell: built.append(cell))
    with pytest.raises(ValueError, match="more than the 64 of a word"):
        factor_type_census(p, n, budget=p**n)
    assert built == []


def test_cells_wider_than_the_factor_key_are_refused(monkeypatch):
    # the key's digit ranges multiply to 2^16 or less up to n = 14, 2^32 up
    # to n = 27 and 2^64 up to n = 51; (2, 52) fits the gcd words but not a
    # 64-bit key, and is refused, within budget, before any table is built
    with monkeypatch.context() as patch:
        # the keys of the 239,943 partitions of 51 are not asked for here
        patch.setattr(fforacle, "partitions", lambda n: ())
        radix = {n: fforacle._factor_key.__wrapped__(n)[0] for n in (14, 15, 27, 28, 51)}
    assert {n: r.dtype.itemsize for n, r in radix.items()} == {14: 2, 15: 4, 27: 4, 28: 8, 51: 8}
    _narrow_lanes(2, 52)
    built = []
    monkeypatch.setattr(fforacle, "_sieve", lambda *cell: built.append(cell))
    monkeypatch.setattr(fforacle, "_kernel", lambda *cell: built.append(cell))
    with pytest.raises(ValueError, match="census of degree 52 needs a 66-bit factor key"):
        factor_type_census(2, 52, budget=2**52)
    assert built == []


def test_default_budget_admits_no_refused_cell():
    # lane width grows with p, so the largest p with p^n within the budget
    # is the widest cell of degree n
    n = 1
    while 2**n <= DEFAULT_BUDGET:
        p = round(DEFAULT_BUDGET ** (1 / n))
        while p**n > DEFAULT_BUDGET:
            p -= 1
        while (p + 1) ** n <= DEFAULT_BUDGET:
            p += 1
        _narrow_lanes(p, n)
        fforacle._factor_key(n)
        n += 1


@pytest.mark.parametrize(
    "p, n", [(131, 2), (257, 2), (1009, 2), (10007, 1), (46349, 1), (1031, 2)]
)
def test_vector_census_large_primes(p, n):
    # the sieve's digits and their products must not wrap for p >= 128;
    # (46349, 1) and (1031, 2) are the first cells of their degree whose
    # wide lanes overflow a word
    assert census_vs_theory(p, n).all_ok


def clear_factor_tables():
    fforacle._irreducible_codes.cache_clear()


def test_workers_match_serial(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = factor_type_census(3, 8)
    # the 3^7 = 2187 codes of (3, 8) fit one default block; split them into 5
    # to 35 blocks
    monkeypatch.setattr(fforacle, "_BLOCK", 512)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        # the census takes one thread per CPU, and one when the count is unknown
        for threads in (1, 2, None, 8):
            monkeypatch.setattr(os, "cpu_count", lambda: threads)
            # cold tables, so that the sieve runs beside the gcd blocks
            clear_factor_tables()
            parallel = factor_type_census(3, 8)
            assert serial.counts == parallel.counts, threads
    finally:
        sys.setswitchinterval(interval)


def test_workers_bound_the_threads(monkeypatch):
    clear_factor_tables()
    sieve, kernel = fforacle._sieve, fforacle._packed_gcd_degree
    ran_on = []

    def record(task):
        def wrapper(*args, **kwargs):
            ran_on.append(threading.get_ident())
            return task(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(fforacle, "_sieve", record(sieve))
    monkeypatch.setattr(fforacle, "_packed_gcd_degree", record(kernel))
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    factor_type_census(3, 8)
    assert ran_on and set(ran_on) == {threading.main_thread().ident}

    clear_factor_tables()
    ran_on.clear()
    monkeypatch.setattr(fforacle, "_BLOCK", 512)  # 9 blocks of up to 256 codes
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    factor_type_census(3, 8)
    assert len(ran_on) > 9
    assert len(set(ran_on)) <= 2


def test_sieve_failure_in_a_thread_reaches_caller(monkeypatch):
    clear_factor_tables()
    threads_before = threading.active_count()
    monkeypatch.setattr(fforacle, "necklace_polynomial", lambda d: RatPoly((-1,)))
    monkeypatch.setattr(fforacle, "_BLOCK", 512)  # 9 blocks of up to 256 codes on 2 threads
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    kernel = fforacle._packed_gcd_degree
    blocks_run = []

    def counted(p, n, codes):
        blocks_run.append(codes[0])
        return kernel(p, n, codes)

    monkeypatch.setattr(fforacle, "_packed_gcd_degree", counted)
    with pytest.raises(RuntimeError, match=r"irreducible count .* expected M_\d+\(3\)"):
        factor_type_census(3, 8)
    assert threading.active_count() == threads_before
    # the blocks not yet started when the sieve failed never ran
    assert len(blocks_run) < 9


def test_undecodable_key_in_the_sieve_thread_reaches_caller(monkeypatch):
    # the sieve adds radix[1] = radix[2] against the true keys of the types:
    # a code x (x + 1) h, h irreducible of degree 6, keys as two quadratics,
    # which leave 4, no part above 8/2
    clear_factor_tables()
    factor_key, sieve = fforacle._factor_key, fforacle._sieve
    raised_on = []

    def wrong_digit(n):
        radix, keys, types = factor_key(n)
        if n == 8:
            radix = radix.copy()
            radix[1] = radix[2]
        return radix, keys, types

    def record(*args, **kwargs):
        try:
            return sieve(*args, **kwargs)
        except RuntimeError:
            raised_on.append(threading.current_thread())
            raise

    monkeypatch.setattr(fforacle, "_factor_key", wrong_digit)
    monkeypatch.setattr(fforacle, "_sieve", record)
    monkeypatch.setattr(fforacle, "_BLOCK", 512)  # 9 blocks of up to 256 codes on 2 threads
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match=r"a square-free factor key is no type's: F_3, d=8"):
        factor_type_census(3, 8)
    assert threading.active_count() == threads_before
    assert len(raised_on) == 1 and raised_on[0] is not threading.main_thread()


def test_worker_thread_failure_reaches_caller(monkeypatch):
    monkeypatch.setattr(fforacle, "_BLOCK", 512)  # 9 blocks of up to 256 codes on 2 threads
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    kernel = fforacle._packed_gcd_degree
    corrupted_in = []

    def corrupt_one_block(p, n, codes):
        gdeg = kernel(p, n, codes)
        if codes[0] == 5 * 256:
            corrupted_in.append(threading.current_thread())
            gdeg[0] = int(gdeg[0] == 0)  # flip the square-free verdict of one row
        return gdeg

    monkeypatch.setattr(fforacle, "_packed_gcd_degree", corrupt_one_block)
    with pytest.raises(RuntimeError, match="disagrees with factorization"):
        factor_type_census(3, 8)
    assert len(corrupted_in) == 1
    assert corrupted_in[0] is not threading.main_thread()


def test_gcd_blocks_run_across_sections(monkeypatch):
    # a small cell is one gcd block, and so runs on no pool, however many
    # sections it has; smaller blocks cut the sections' codes in order
    kernel = fforacle._packed_gcd_degree
    calls = []

    def record(p, n, codes):
        calls.append(codes.tolist())
        return kernel(p, n, codes)

    monkeypatch.setattr(fforacle, "_packed_gcd_degree", record)
    sections = [code for lo, hi, _ in fforacle._orbit_slices(3, 6) for code in range(lo, hi)]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    factor_type_census(3, 6)
    assert calls == [sections]
    calls.clear()
    monkeypatch.setattr(fforacle, "_BLOCK", 256)
    factor_type_census(3, 6)
    assert sorted(calls) == [sections[:128], sections[128:]]


@pytest.mark.parametrize("threads", [1, 2])
def test_gcd_disagreement_in_the_second_scaling_slice_raises(threads, monkeypatch):
    # (3, 6) enumerates four sections, 216 codes, the last one [243, 324) of
    # a_5 = 1, a_4 = 0; its last code is x^6 + x^5 + 2x^3 + 2x^2 + 2x + 2, at
    # the end of the last block
    kernel = fforacle._packed_gcd_degree
    corrupted = []

    def corrupt_one_code(p, n, codes):
        gdeg = kernel(p, n, codes)
        for row in np.flatnonzero(codes == 323):
            corrupted.append(row - codes.size)
            gdeg[row] = int(gdeg[row] == 0)  # flip its square-free verdict
        return gdeg

    # one block on one thread; on two, blocks of 128 and 88 codes, each
    # spanning sections
    monkeypatch.setattr(fforacle, "_BLOCK", 256)
    monkeypatch.setattr(fforacle, "_packed_gcd_degree", corrupt_one_code)
    monkeypatch.setattr(os, "cpu_count", lambda: threads)
    with pytest.raises(RuntimeError, match="disagrees with factorization"):
        factor_type_census(3, 6)
    assert corrupted == [-1]


@pytest.mark.parametrize("p, n", [(3, 4), (3, 6)])
def test_wrong_orbit_weight_fails_the_irreducible_count(p, n, monkeypatch):
    # the census degree's irreducibles, weighted, must still sum to M_n(p):
    # weight p - 1 for p on the translation slice, or p - 1 for p (p - 1) on
    # the a_{n-2} slice, is caught there
    slices = fforacle._orbit_slices(p, n)
    lo, hi, _ = slices[-1]
    wrong = slices[:-1] + ((lo, hi, p - 1),)
    monkeypatch.setattr(fforacle, "_orbit_slices", lambda p, n: wrong)
    with pytest.raises(RuntimeError, match=rf"irreducible count at degree {n} over F_{p}"):
        factor_type_census(p, n)


def test_irreducible_counts_checked_by_both_engines(monkeypatch):
    # a wrong M_d(p) must stop the scalar sieve and the vector factor table alike
    monkeypatch.setattr(fforacle, "necklace_polynomial", lambda d: RatPoly((-1,)))
    message = r"irreducible count at degree 1 over F_3 is 3, expected M_1\(3\) = -1"
    with pytest.raises(RuntimeError, match=message):
        enumerate_irreducibles(3, 2)
    with pytest.raises(RuntimeError, match=message):
        fforacle._irreducible_codes.__wrapped__(3, 1)


def test_census_vs_theory_reports():
    for p, n in ((2, 7), (3, 5), (5, 3), (7, 2)):
        report = census_vs_theory(p, n)
        assert report.all_ok
        assert [r.partition for r in report.rows] == list(partitions(n))
        assert report.expected_total == p**n - p ** (n - 1)
        for row in report.rows:
            assert row.count == necklace_count(row.partition, p)


def test_census_report_stage_seconds():
    for p, n in ((2, 1), (3, 4)):
        reports = [census_vs_theory(p, n) for _ in range(2)]
        for report in reports:
            # the codes enumerated: one per orbit of translation
            assert report.candidates == {(2, 1): 1, (3, 4): 27}[p, n]
            assert set(report.seconds) == {"sieve", "gcd", "tally"}
            assert min(report.seconds.values()) >= 0
            assert "seconds" not in repr(report) and "candidates" not in repr(report)
        # the timings differ between runs; equality ignores them
        assert reports[0] == reports[1]


def necklace_count(lam, p):
    from braidchar.ratpoly import cycle_polynomial

    value = cycle_polynomial(lam)(p)
    assert value.denominator == 1
    return int(value)


def test_degree_one_total():
    report = census_vs_theory(5, 1)
    assert report.all_ok
    assert report.total_squarefree == 5
    assert report.expected_total == 5


def test_budget_refusal_carries_requirement():
    with pytest.raises(BudgetError) as info:
        factor_type_census(2, 21, budget=10**6)
    assert info.value.required == 2**21
    assert info.value.budget == 10**6
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_is_refused_first(budget):
    message = re.escape(f"budget must be at least 1, got {budget}")
    for run in (
        lambda: factor_type_census(2, 3, budget=budget),
        lambda: census_vs_theory(2, 3, budget=budget),
        lambda: enumerate_irreducibles(2, 3, budget=budget),
        # before the primality test and the size of p**n
        lambda: factor_type_census(4, 10**8, budget=budget),
    ):
        with pytest.raises(ValueError, match=message) as info:
            run()
        assert type(info.value) is ValueError


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        factor_type_census(4, 3)
    with pytest.raises(ValueError):
        factor_type_census(2, 0)


def poly_add(a, b, p):
    width = max(len(a), len(b))
    a = a + (0,) * (width - len(a))
    b = b + (0,) * (width - len(b))
    return poly_trim([(x + y) % p for x, y in zip(a, b)], p)


coeff_pairs = st.sampled_from((2, 3, 5)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=0, max_value=p - 1), max_size=6),
        st.lists(st.integers(min_value=0, max_value=p - 1), max_size=6),
    )
)


@given(coeff_pairs)
def test_poly_mul_commutative_with_degree_bound(triple):
    p, a, b = triple
    a, b = poly_trim(a, p), poly_trim(b, p)
    prod = poly_mul(a, b, p)
    assert prod == poly_mul(b, a, p)
    if poly_degree(a) >= 0 and poly_degree(b) >= 0:
        assert poly_degree(prod) == poly_degree(a) + poly_degree(b)


@given(coeff_pairs)
def test_poly_divmod_reconstructs(triple):
    p, a, b = triple
    a, b = poly_trim(a, p), poly_trim(b, p)
    if poly_degree(b) < 0:
        return
    q, r = poly_divmod(a, b, p)
    assert poly_degree(r) < poly_degree(b)
    assert poly_add(poly_mul(q, b, p), r, p) == a


@given(coeff_pairs)
def test_poly_gcd_divides_both(triple):
    p, a, b = triple
    a, b = poly_trim(a, p), poly_trim(b, p)
    if poly_degree(a) < 0 or poly_degree(b) < 0:
        return
    g = poly_gcd(a, b, p)
    assert poly_degree(g) >= 0
    for f in (a, b):
        _, rem = poly_divmod(f, g, p)
        assert poly_degree(rem) < 0


@functools.lru_cache(maxsize=None)
def irreducible_lists(p, n):
    # (5, 5) takes most of the 200 ms deadline to enumerate, so each list
    # is built once rather than once per example
    return enumerate_irreducibles(p, n)


@settings(max_examples=60)
@given(
    p=st.sampled_from((2, 3, 5)),
    code=st.integers(min_value=0, max_value=3000),
    n=st.integers(min_value=1, max_value=5),
)
def test_squarefree_agrees_with_factorization(p, code, n):
    code %= p**n
    f = poly_from_code(code, n, p)
    lists = irreducible_lists(p, n)
    factors = factor_list(f, p, lists)
    # multiplying the factors back must recover f
    prod = (1,)
    for g, mult in factors:
        for _ in range(mult):
            prod = poly_mul(prod, g, p)
    assert prod == f
    squarefree = all(mult == 1 for _, mult in factors)
    assert is_squarefree(f, p) == squarefree
    gcd = poly_gcd(f, poly_derivative(f, p), p)
    assert (poly_degree(gcd) == 0) == squarefree
