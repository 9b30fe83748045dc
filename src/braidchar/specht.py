"""Irreducible characters of S_n and decomposition of class functions.

The whole character table of S_n is built once per n, as one int64 array,
by the Murnaghan-Nakayama rule: chi^mu(lam) is the signed sum, over the
border strips of length t = lam[0] in mu, of chi^(mu - strip)(lam[1:]),
read from the table of S_(n-t).  Each partition is one uint64 bead mask,
its beta set on n beads (James-Kerber, The Representation Theory of the
Symmetric Group, 1981), and like the partitions themselves the masks of
degree n are built from the cached masks of the degrees below, one array
step per first part.  Removing a t-strip moves one bead from b down to
an empty b - t, with the sign of the parity of the beads in between.  So
the strips of every mu, of every length t = n..1, are found once per
degree, by one array pass that shifts the masks by a column of lengths,
with their signs and the masks of the partitions left behind.  The columns
with lam[0] = t form one block, and each t then costs a sorted search of
its mu - strip in the masks of degree n - t, one gather of signed rows of
the degree n - t array, and one scatter-add into that block.

Every partial sum of the rule has at most n terms of at most sqrt((n-1)!)
in absolute value, which is below 2^63 up to n = 32 and above it from
n = 33; so the tables, and everything built on them, are refused (with
ValueError) for n > 32 before anything is built.

Dimensions come independently from the hook length formula, cached once
per partition.  A rational class function is decomposed into irreducibles
by exact dot products of its class-size-weighted values with the table
rows: the Python-int weights are cut into limbs narrow enough that no int64
sum can wrap, each limb goes through the int64 table, and the limbs are
recombined in Python ints.  The limb width comes from class data alone:
column orthogonality, sum_nu chi^nu(lam)^2 = z_lam (James-Kerber), bounds
each |chi^mu(lam)| by isqrt(z_lam), so every row sum of |chi| is at most
the sum of isqrt(z_lam) over the classes, an exact int below 2^59 for
every n <= 32, cached once per n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, isqrt, lcm
from numbers import Rational

import numpy as np

from .characters import ClassFunction
from .partitions import (
    Partition,
    _position,
    _tail_start,
    check_partition,
    class_data,
    conjugate,
    format_partition,
    partitions,
)


def irrep_dimension(mu: Partition) -> int:
    """Dimension of the irreducible S_n module labeled mu (hook lengths).

    mu is validated here, where input enters; the hook product itself is
    cached once per partition (`_irrep_dimension`).

    >>> irrep_dimension((3, 1, 1))
    6
    """
    return _irrep_dimension(check_partition(mu))


@cache
def _irrep_dimension(mu: Partition) -> int:
    n = sum(mu)
    cols = conjugate(mu)
    hooks = 1
    for i, row in enumerate(mu):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    dim, rem = divmod(factorial(n), hooks)
    if rem:
        raise ArithmeticError(f"hook product does not divide n! for {mu}")
    return dim


#: Largest degree whose Murnaghan-Nakayama partial sums fit int64.
_MAX_DEGREE = 32


@cache
def _bead_masks(n: int) -> np.ndarray:
    """The partitions of n as uint64 bead masks, in partitions(n) order.

    mu, padded with zeros to n parts, has its beads at mu[i] + n - 1 - i
    (i = 0..n-1): the zero parts fill the bits below n - len(mu), and the
    highest bead is at most 2n - 1, so n <= 32 fits 64 bits.  A larger
    partition in reverse lexicographic order has the larger mask, so the
    array is strictly decreasing.  mu = (f,) + tail has its first bead at
    f + n - 1, the n - f beads of tail shifted up by f - 1, and the f - 1
    beads of its last zero parts below them; so each first part f is one
    array step on the suffix of the degree n - f masks that partitions(n)
    reads its tails from.
    """
    if n == 0:
        return np.zeros(1, np.uint64)
    one = np.uint64(1)
    blocks = []
    for f in range(n, 0, -1):
        shift = np.uint64(f - 1)
        tails = _bead_masks(n - f)[_tail_start(n - f, f) :]
        blocks.append(tails << shift | one << np.uint64(f + n - 1) | (one << shift) - one)
    return np.concatenate(blocks)


def _parity(x: np.ndarray) -> np.ndarray:
    """The parity of the set bits of each uint64 in x, as 0 or 1."""
    for s in (32, 16, 8, 4, 2, 1):
        x = x ^ (x >> np.uint64(s))
    return x & np.uint64(1)


@cache
def _table(n: int) -> np.ndarray:
    """The character table of S_n as a p(n) x p(n) int64 array.

    Building it builds (and keeps) the tables of every smaller degree.
    """
    if n > _MAX_DEGREE:
        raise ValueError(
            f"the character table of S_{n} does not fit int64; "
            f"n must be at most {_MAX_DEGREE}"
        )
    if n == 0:
        return np.ones((1, 1), np.int64)
    parts = partitions(n)
    masks = _bead_masks(n)
    one = np.uint64(1)
    # every strip of every length at once: block i holds the t = n - i strips,
    # and each bead b >= t above an empty b - t tops one t-strip
    lengths = np.arange(n, 0, -1, dtype=np.uint64)[:, None]
    tops = masks & ~(masks << lengths) & ~((one << lengths) - one)
    bits = np.unpackbits(
        tops.astype("<u8").view(np.uint8).reshape(n, len(parts), 8),
        axis=2,
        count=2 * n,
        bitorder="little",
    )
    # (block, row of mu, b) triples, in block order and then row order
    blocks, rows, beads = np.nonzero(bits.view(bool))
    # each array is freed once read: the fill below builds the smaller
    # tables on first use, and anything still held here stays allocated
    del tops, bits
    shifts = n - blocks.astype(np.uint64)
    beads = beads.astype(np.uint64)
    held = masks[rows]
    # the sign is the parity of the beads the move jumps over
    between = (one << beads) - (one << (beads - shifts + one))
    signs = 1 - 2 * _parity(held & between).astype(np.int64)
    # mu - strip keeps n beads, the low t of them at 0..t-1, so shifting
    # them off gives its n - t bead mask, looked up in the decreasing array
    moved = (held ^ (one << beads) ^ (one << (beads - shifts))) >> shifts
    del held, between, beads, shifts
    # each run of strips of one mu in one block sums into one row of the block
    starts = np.flatnonzero(np.diff(blocks * len(parts) + rows, prepend=-1))
    heads = rows[starts]
    bounds = np.searchsorted(blocks, np.arange(n + 1))
    runs = np.searchsorted(starts, bounds).tolist()
    bounds = bounds.tolist()
    del blocks, rows
    table = np.zeros((len(parts), len(parts)), np.int64)
    # The columns lam with lam[0] = t form one block, for t = n down to 1.
    # Across a block lam[1:] runs, in order, over the partitions of n - t
    # with first part at most t: the n - t table's columns from `start` on.
    col = 0
    for i, t in enumerate(range(n, 0, -1)):
        lo, hi = bounds[i : i + 2]
        first, last = runs[i : i + 2]
        smaller = _table(n - t)
        start = _tail_start(n - t, t)
        width = len(smaller) - start
        sources = len(smaller) - 1 - np.searchsorted(_bead_masks(n - t)[::-1], moved[lo:hi])
        tails = smaller[sources, start:]  # a gathered copy, signed in place
        tails *= signs[lo:hi, None]
        table[heads[first:last], col : col + width] = np.add.reduceat(
            tails, starts[first:last] - lo
        )
        col += width
    return table


@cache
def _row_bound(n: int) -> int:
    """An upper bound on every row sum of |chi| over S_n, from class data alone.

    By column orthogonality every |chi^mu(lam)| is at most isqrt(z_lam), so
    the sum of isqrt(z_lam) over the classes lam bounds each row sum.  It
    is below 2^59 for every n <= 32 (2^58.92 at n = 32), the degrees whose
    tables are built, so `_exact_products` keeps limbs of at least 3 bits.
    """
    return sum(isqrt(class_data(lam).centralizer_order) for lam in partitions(n))


def _exact_products(matrix: np.ndarray, weights: list[int], bound: int) -> list[int]:
    """matrix @ weights in Python ints, for an int64 matrix and int weights.

    Each weight is cut into limbs of `bits` bits, two's complement: the
    low limbs lie in [0, 2^bits) and the top one, which carries the sign,
    in [-2^bits, 2^bits).  All the limbs go through one int64 matrix
    product.  `bound` is at least the largest row sum of |matrix|, and
    bits = 62 - bound.bit_length(), so bound * 2^bits < 2^62 and no int64
    sum can wrap.
    """
    bits = 62 - bound.bit_length()
    mask = (1 << bits) - 1
    top = max(abs(w) for w in weights).bit_length() // bits * bits
    limbs = [[w >> s & mask for w in weights] for s in range(0, top, bits)]
    limbs.append([w >> top for w in weights])
    *low, total = (matrix @ np.array(limbs, np.int64).T).T.tolist()
    for products in reversed(low):  # Horner from the top limb down
        total = [(t << bits) + x for t, x in zip(total, products)]
    return total


def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The irreducible characters of S_n as integer rows.

    Entry [i][j] is chi^mu(lam) for the i-th mu and the j-th lam of
    partitions(n).  Each call reads a fresh copy of the cached int64 table,
    which keeps the tables of every smaller degree.  Degrees n > 32, whose
    tables do not fit int64, are refused with ValueError before anything is
    built.

    >>> character_table(3)
    ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
    """
    return tuple(map(tuple, _table(n).tolist()))


def irreducible_character_value(mu: Partition, lam: Partition) -> int:
    """chi^mu evaluated on the class of cycle type lam.

    >>> irreducible_character_value((2, 2), (2, 2))
    2
    """
    mu = check_partition(mu)
    lam = check_partition(lam)
    n = sum(mu)
    if n != sum(lam):
        raise ValueError(f"{mu} and {lam} are partitions of different integers")
    table = _table(n)
    position = _position(n)
    return int(table[position[mu], position[lam]])


def irreducible_character(mu: Partition) -> ClassFunction:
    """chi^mu as a class function on S_n, n = |mu|; n > 32 is refused (ValueError)."""
    mu = check_partition(mu)
    n = sum(mu)
    row = _table(n)[_position(n)[mu]].tolist()
    return ClassFunction(n, dict(zip(partitions(n), row)))


@dataclass(frozen=True)
class IrrepDecomposition:
    """Multiplicities of irreducibles in a class function.

    terms holds only nonzero multiplicities, keyed by partition in the
    canonical reverse lexicographic order.
    """

    n: int
    terms: tuple[tuple[Partition, int], ...]

    @property
    def dimension(self) -> int:
        """Sum of multiplicity times irreducible dimension.  The labels come
        from partitions(n), so each dimension is read from the cached hook
        product without validating it again."""
        return sum(m * _irrep_dimension(mu) for mu, m in self.terms)

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.terms)

    def as_class_function(self) -> ClassFunction:
        """The sum of multiplicity times table row, in Python ints."""
        table = _table(self.n)
        position = _position(self.n)
        values = [0] * len(table)
        for mu, m in self.terms:
            values = [v + m * x for v, x in zip(values, table[position[mu]].tolist())]
        return ClassFunction(self.n, dict(zip(partitions(self.n), values)))

    def tail_multiset(self) -> dict[Partition, int]:
        """Multiplicities keyed by the label with its first part dropped.

        In a stable range the decompositions of a sequence of characters
        differ only in the padding first part, so the tail multisets agree.
        """
        return {mu[1:]: m for mu, m in self.terms}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, (mu, m) in enumerate(self.terms):
            size = "" if abs(m) == 1 else str(abs(m))
            term = f"{size}[{format_partition(mu)}]"
            if i == 0:
                pieces.append(term if m > 0 else f"-{term}")
            else:
                pieces.append(f"{'+' if m > 0 else '-'} {term}")
        return " ".join(pieces)


def _ratio(lam: Partition, value) -> tuple[int, int]:
    """value's numerator and denominator as Python ints; a value that is not
    a `numbers.Rational` is refused with TypeError."""
    if not isinstance(value, Rational):
        raise TypeError(
            f"decompose needs rational values; the value at {lam} is "
            f"{value!r} of class {type(value).__name__}"
        )
    return int(value.numerator), int(value.denominator)


def decompose(f: ClassFunction, virtual: bool = False) -> IrrepDecomposition:
    """Write a rational class function as a sum of irreducibles.

    Multiplicities must come out integral, and nonnegative unless
    virtual=True allows formal differences of representations.  Each one
    is an exact dot product of the table row with the class-size-weighted
    values, which may be of any size.  A value may be any
    `numbers.Rational`: numpy integers decompose exactly like equal ints,
    and any other value is refused with TypeError before any product is formed.
    Degrees n > 32, whose tables do not fit int64, are refused with
    ValueError before anything is built.

    >>> from braidchar.characters import braid_character
    >>> str(decompose(braid_character(4, 1)))
    '[4] + [3,1] + [2,2]'
    """
    table = _table(f.n)
    parts = partitions(f.n)
    values = [f.values[lam] for lam in parts]
    ratios = [(v, 1) if type(v) is int else _ratio(lam, v) for lam, v in zip(parts, values)]
    # clear denominators once, so each multiplicity is an integer dot product
    scale = lcm(*(d for _, d in ratios))
    weighted = [
        class_data(lam).class_size * a * (scale // d) for lam, (a, d) in zip(parts, ratios)
    ]
    order = factorial(f.n) * scale
    terms = []
    for mu, total in zip(parts, _exact_products(table, weighted, _row_bound(f.n))):
        if total % order:
            raise ArithmeticError(
                f"multiplicity of {mu} is not an integer: {Fraction(total, order)}; "
                "not a virtual character"
            )
        m = total // order
        if m < 0 and not virtual:
            raise ArithmeticError(
                f"multiplicity of {mu} is negative: {m}; pass virtual=True to allow"
            )
        if m:
            terms.append((mu, m))
    return IrrepDecomposition(f.n, tuple(terms))
