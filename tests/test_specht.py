"""Irreducible characters, dimensions, and decomposition of class functions."""

import random
import re
from fractions import Fraction
from functools import cache
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest

from braidchar import specht
from braidchar.characters import (
    ClassFunction,
    a_character,
    braid_character,
    inner_product,
)
from braidchar.partitions import (
    class_data,
    conjugate,
    partitions,
    sign_character,
)
from braidchar.specht import (
    IrrepDecomposition,
    character_table,
    decompose,
    irreducible_character,
    irreducible_character_value,
    irrep_dimension,
)


@pytest.mark.parametrize(
    "mu, expected",
    [
        ((3,), 1),
        ((2, 1), 2),
        ((1, 1, 1), 1),
        ((3, 1, 1), 6),
        ((2, 2), 2),
        ((4, 4), 14),
        ((3, 3, 3), 42),
        ((5, 4, 3, 2, 1), 292864),
    ],
)
def test_hook_length_dimensions(mu, expected):
    assert irrep_dimension(mu) == expected


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 10):
        assert sum(irrep_dimension(mu) ** 2 for mu in partitions(n)) == factorial(n)


def test_hook_formula_matches_character_at_identity():
    # two independent computations: hook products vs the recursive rule
    for n in range(1, 9):
        for mu in partitions(n):
            assert irreducible_character(mu)((1,) * n) == irrep_dimension(mu)


# Frozen reference: the per-value Murnaghan-Nakayama recursion on beta sets
# that character_table replaced, kept verbatim so the table is checked
# against an independent evaluation of every entry.
def _ref_beta_set(mu):
    length = len(mu)
    return tuple(mu[i] + length - 1 - i for i in range(length))


def _ref_shape_from_beta(beta):
    length = len(beta)
    return tuple(
        p for i, b in enumerate(beta) if (p := b - (length - 1 - i)) > 0
    )


@cache
def _ref_mn(mu, cycles):
    if not cycles:
        return 1
    t, rest = cycles[0], cycles[1:]
    beta = _ref_beta_set(mu)
    held = set(beta)
    total = 0
    for b in beta:
        nb = b - t
        if nb < 0 or nb in held:
            continue
        jumped = sum(1 for c in beta if nb < c < b)
        nbeta = sorted((c for c in beta if c != b), reverse=True)
        pos = 0
        while pos < len(nbeta) and nbeta[pos] > nb:
            pos += 1
        nbeta.insert(pos, nb)
        term = _ref_mn(_ref_shape_from_beta(nbeta), rest)
        total += -term if jumped % 2 else term
    return total


@pytest.mark.parametrize("n", range(0, 13))
def test_character_table_matches_reference_recursion(n):
    table = character_table(n)
    parts = partitions(n)
    assert len(table) == len(parts)
    for mu, row in zip(parts, table):
        assert row == tuple(_ref_mn(mu, lam) for lam in parts)


def test_character_table_24_sampled_against_reference():
    # near the CLI limit: a grid of entries against the per-value recursion,
    # and the sum of squared dimensions against the group order
    parts = partitions(24)
    table = character_table(24)
    for i in range(0, len(parts), 131):
        for j in range(0, len(parts), 157):
            assert table[i][j] == _ref_mn(parts[i], parts[j])
    assert sum(row[-1] ** 2 for row in table) == factorial(24)


def test_bead_masks_fit_uint64_up_to_the_degree_bound(monkeypatch):
    # n = 32 reaches bit 63; every mask reads back as its partition, and
    # the masks are distinct and decreasing in partitions order
    def no_table(n):
        raise AssertionError(f"a table was built (degree {n})")

    monkeypatch.setattr(specht, "_table", no_table)
    n = 32
    masks = specht._bead_masks(n)
    assert masks.dtype == np.uint64
    assert (masks[:-1] > masks[1:]).all()
    for mu, mask in zip(partitions(n), masks.tolist()):
        beads = [b for b in range(63, -1, -1) if mask >> b & 1]
        assert len(beads) == n
        assert tuple(p for i, b in enumerate(beads) if (p := b - (n - 1 - i))) == mu
    assert int(masks[0]) == (1 << 63) | ((1 << 31) - 1)  # (32): one bead at 63


def _per_partition_bead_mask(mu, n):
    # frozen copy of the per-partition formula the masks were first built by
    return sum(1 << (p + n - 1 - i) for i, p in enumerate(mu)) | (1 << (n - len(mu))) - 1


def test_bead_masks_match_the_per_partition_formula():
    for n in range(33):
        masks = specht._bead_masks(n)
        assert masks.dtype == np.uint64
        assert masks.tolist() == [_per_partition_bead_mask(mu, n) for mu in partitions(n)], n


def test_degree_past_int64_refused_before_anything_is_built(monkeypatch):
    def no_table(n):
        raise AssertionError(f"a table was built (bead masks of degree {n})")

    monkeypatch.setattr(specht, "_bead_masks", no_table)
    calls = (
        lambda: character_table(33),
        lambda: irreducible_character((33,)),
        lambda: irreducible_character_value((33,), (33,)),
        lambda: decompose(SimpleNamespace(n=33)),  # it reads the degree first
    )
    for call in calls:
        with pytest.raises(ValueError, match="S_33 does not fit int64; n must be at most 32"):
            call()


def test_values_are_python_ints():
    for n in range(0, 9):
        assert all(type(x) is int for row in character_table(n) for x in row)
        for mu in partitions(n):
            assert all(type(v) is int for v in irreducible_character(mu).values.values())
            assert type(irreducible_character_value(mu, mu)) is int
    dec = decompose(ClassFunction.regular(8) - 2 * ClassFunction.sign(8), virtual=True)
    assert all(type(m) is int for _, m in dec.terms)
    assert all(type(v) is int for v in dec.as_class_function().values.values())


def test_character_table_identity_column_is_hook_dimension():
    for n in range(0, 13):
        identity_column = [row[-1] for row in character_table(n)]
        assert identity_column == [irrep_dimension(mu) for mu in partitions(n)]


S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}


def test_s3_character_table_frozen():
    for mu, row in S3_TABLE.items():
        for lam, value in row.items():
            assert irreducible_character_value(mu, lam) == value


@pytest.mark.parametrize(
    "mu, lam, value",
    [
        ((2, 2), (2, 2), 2),
        ((2, 2), (1, 1, 1, 1), 2),
        ((2, 2), (3, 1), -1),
        ((2, 2), (4,), 0),
        ((3, 1), (1, 1, 1, 1), 3),
        ((3, 1), (2, 1, 1), 1),
        ((3, 1), (2, 2), -1),
        ((3, 1), (3, 1), 0),
        ((3, 1), (4,), -1),
        ((4,), (2, 2), 1),
        # staircase characters vanish off odd cycle types; (9,5,1) peels
        # the principal hooks and a 15-hook does not fit at all
        ((5, 4, 3, 2, 1), (5, 4, 3, 2, 1), 0),
        ((5, 4, 3, 2, 1), (15,), 0),
        ((5, 4, 3, 2, 1), (9, 5, 1), 1),
    ],
)
def test_character_values_frozen(mu, lam, value):
    assert irreducible_character_value(mu, lam) == value


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        irreducible_character_value((2, 1), (4,))


def test_trivial_and_sign_characters():
    for n in range(1, 8):
        triv = irreducible_character((n,))
        sgn = irreducible_character((1,) * n)
        for lam in partitions(n):
            assert triv(lam) == 1
            assert sgn(lam) == sign_character(lam)


def test_conjugate_twist_symmetry():
    for n in range(1, 8):
        for mu in partitions(n):
            twisted = irreducible_character(conjugate(mu))
            plain = irreducible_character(mu)
            for lam in partitions(n):
                assert twisted(lam) == sign_character(lam) * plain(lam)


def test_first_orthogonality():
    for n in range(1, 8):
        mus = partitions(n)
        for i, mu in enumerate(mus):
            for nu in mus[i:]:
                value = inner_product(
                    irreducible_character(mu), irreducible_character(nu)
                )
                assert value == (1 if mu == nu else 0)


def test_second_orthogonality():
    for n in range(1, 8):
        mus = partitions(n)
        for lam in partitions(n):
            for rho in partitions(n):
                total = sum(
                    irreducible_character_value(mu, lam)
                    * irreducible_character_value(mu, rho)
                    for mu in mus
                )
                expected = class_data(lam).centralizer_order if lam == rho else 0
                assert total == expected


def test_decompose_trivial_sign_regular():
    for n in range(2, 7):
        assert decompose(ClassFunction.from_rule(n, lambda lam: 1)).as_dict() == {(n,): 1}
        assert decompose(ClassFunction.sign(n)).as_dict() == {(1,) * n: 1}
        reg = decompose(ClassFunction.regular(n))
        assert reg.as_dict() == {mu: irrep_dimension(mu) for mu in partitions(n)}


def test_decompose_cohomology_spot():
    dec = decompose(braid_character(4, 1))
    assert dec.terms == (((4,), 1), ((3, 1), 1), ((2, 2), 1))
    assert dec.dimension == 6
    assert all(m > 0 for _, m in dec.terms)
    assert str(dec) == "[4] + [3,1] + [2,2]"


def test_decompose_roundtrip():
    for n in range(2, 8):
        for k in (1, 2):
            if k > n - 1:
                continue
            f = a_character(n, k)
            dec = decompose(f)
            back = dec.as_class_function()
            for lam in partitions(n):
                assert back(lam) == f(lam)


def test_decomposition_order_is_canonical():
    dec = decompose(braid_character(6, 2))
    labels = [mu for mu, _ in dec.terms]
    assert labels == sorted(labels, reverse=True)


def test_multiplicity_lookup():
    dec = decompose(a_character(5, 2))
    assert dec.as_dict().get((3, 1, 1), 0) == 2
    assert dec.as_dict().get((5,), 0) == 0
    assert dec.as_dict() == {(4, 1): 1, (3, 2): 1, (3, 1, 1): 2, (2, 2, 1): 1}


def test_tail_multiset():
    dec = decompose(a_character(6, 1))
    assert dec.tail_multiset() == {(1,): 1, (2,): 1}


def test_virtual_decomposition():
    f = ClassFunction.from_rule(4, lambda lam: 1) - ClassFunction.sign(4)
    with pytest.raises(ArithmeticError, match=re.escape(
        "multiplicity of (1, 1, 1, 1) is negative: -1; pass virtual=True to allow"
    )):
        decompose(f)
    dec = decompose(f, virtual=True)
    assert dec.as_dict() == {(4,): 1, (1, 1, 1, 1): -1}
    assert any(m < 0 for _, m in dec.terms)
    assert str(dec) == "[4] - [1,1,1,1]"


# Frozen reference: the Python-int dot products that decompose used before
# its limb products, one row of the tuple table at a time.
def _ref_decomposition(f):
    parts = partitions(f.n)
    weighted = [class_data(lam).class_size * f(lam) for lam in parts]
    out = {}
    for mu, row in zip(parts, character_table(f.n)):
        m = Fraction(sum(x * w for x, w in zip(row, weighted))) / factorial(f.n)
        assert m.denominator == 1
        if m:
            out[mu] = int(m)
    return out


def test_decompose_weights_far_past_int64():
    # weights up to about 3^90 * 12!/12, some negative, on every class: a
    # product in one int64 limb would wrap or refuse
    n = 12
    f = (
        10**40 * ClassFunction.regular(n)
        + 7**50 * ClassFunction.from_rule(n, lambda lam: 1)
        - 3**90 * ClassFunction.sign(n)
    )
    expected = {mu: 10**40 * irrep_dimension(mu) for mu in partitions(n)}
    expected[(n,)] += 7**50
    expected[(1,) * n] -= 3**90
    dec = decompose(f, virtual=True)
    assert dec.as_dict() == _ref_decomposition(f) == expected
    assert all(type(m) is int for _, m in dec.terms)


def test_as_class_function_with_huge_multiplicities():
    n = 12
    parts = partitions(n)
    terms = tuple((mu, (-1) ** i * 10 ** (30 + i)) for i, mu in enumerate(parts))
    dec = IrrepDecomposition(n, terms)
    f = dec.as_class_function()
    table = character_table(n)
    for j, lam in enumerate(parts):
        assert f(lam) == sum(m * table[i][j] for i, (_, m) in enumerate(terms))
        assert type(f(lam)) is int
    assert decompose(f, virtual=True) == dec


def test_exact_products_on_the_narrowest_limbs():
    # a bound just under 2^59, the largest `_row_bound` of a table that is
    # built, leaves limbs of 3 bits: weights near 10^30 take 34 of them.
    # The low 20 bits of each weight are ones, so its lowest limb is all
    # ones, and on the positive first row a limb 2 bits wider wraps int64
    rng = random.Random(5)
    rows = [[rng.randrange(2**59 // 10, 2**59 // 9) for _ in range(9)]]
    rows += [
        [rng.choice((-1, 1)) * rng.randrange(2**59 // 10, 2**59 // 9) for _ in range(9)]
        for _ in range(3)
    ]
    bound = max(sum(abs(x) for x in row) for row in rows)
    assert 2**58 < bound < 2**59
    weights = [(10**30 + rng.randrange(10**20)) | (2**20 - 1) for _ in range(9)]
    got = specht._exact_products(np.array(rows, np.int64), weights, bound)
    assert got == [sum(x * w for x, w in zip(row, weights)) for row in rows]


def test_decompose_with_every_limb_at_the_top_of_its_range():
    # f = z_lam * u_lam has weights n! * u_lam and multiplicities
    # sum_lam chi^mu(lam) u_lam.  n! * u is -2^v mod 2^K (v the 2-adic
    # valuation of n!) on each class where the row with the largest positive
    # part is positive, and 0 elsewhere, so every limb narrower than K bits
    # is all ones there but for its low v bits: a limb even one bit wider
    # than the row sums of |chi| allow wraps an int64 sum (n = 13 is such
    # a degree for the bound of S_12)
    n = 13
    parts = partitions(n)
    table = character_table(n)
    row = max(table, key=lambda r: sum(x for x in r if x > 0))
    order = factorial(n)
    v = (order & -order).bit_length() - 1
    k = 4 * 64
    top = (-pow(order >> v, -1, 2 ** (k - v))) % 2 ** (k - v)
    u = [top if x > 0 else 0 for x in row]
    assert all(order * w % 2**k == (-(2**v)) % 2**k for w in u if w)
    f = ClassFunction(
        n, {lam: class_data(lam).centralizer_order * w for lam, w in zip(parts, u)}
    )
    expected = {}
    for mu, r in zip(parts, table):
        if m := sum(x * w for x, w in zip(r, u)):
            expected[mu] = m
    assert decompose(f, virtual=True).as_dict() == expected


def test_row_bound_bounds_every_absolute_row_sum(monkeypatch):
    # column orthogonality bounds each |chi^mu(lam)| by isqrt(z_lam)
    for n in range(0, 17):
        rows = max(sum(abs(x) for x in row) for row in character_table(n))
        assert rows <= specht._row_bound(n), n

    def no_table(n):
        raise AssertionError(f"the table of S_{n} was built")

    # every degree with a table keeps limbs of at least 3 bits, and the bound
    # is summed from class data alone, past the cache
    monkeypatch.setattr(specht, "_table", no_table)
    for n in range(0, 33):
        assert specht._row_bound.__wrapped__(n) < 2**59, n


def test_decompose_numpy_integer_values_like_ints():
    h = braid_character(8, 3)
    g = ClassFunction(8, {lam: np.int64(v) for lam, v in h.values.items()})
    assert decompose(g).terms == decompose(h).terms
    assert all(type(m) is int for _, m in decompose(g).terms)
    one = ClassFunction.from_rule(3, lambda lam: np.int64(1))
    assert decompose(one).as_dict() == {(3,): 1}


def test_decompose_refuses_a_float_value_before_any_product(monkeypatch):
    def no_products(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(specht, "_exact_products", no_products)
    f = ClassFunction.from_rule(3, lambda lam: 1.0 if lam == (2, 1) else 1)
    with pytest.raises(TypeError, match=re.escape(
        "decompose needs rational values; the value at (2, 1) is 1.0 of class float"
    )):
        decompose(f)


def test_decompose_fraction_valued_class_function():
    chi = a_character(5, 2)
    f = Fraction(1, 2) * (2 * chi)
    assert any(isinstance(v, Fraction) for v in f.values.values())
    assert decompose(f).terms == decompose(chi).terms


def test_non_integer_multiplicity_rejected():
    f = ClassFunction.from_rule(3, lambda lam: Fraction(1, 2))
    with pytest.raises(ArithmeticError, match=re.escape(
        "multiplicity of (3,) is not an integer: 1/2; not a virtual character"
    )):
        decompose(f, virtual=True)


def test_empty_decomposition():
    zero = ClassFunction.from_rule(3, lambda lam: 0)
    dec = decompose(zero)
    assert dec.terms == ()
    assert dec.dimension == 0
    assert str(dec) == "0"
    assert isinstance(dec, IrrepDecomposition)
