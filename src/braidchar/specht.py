"""Irreducible characters of S_n and decomposition of class functions.

The whole character table of S_n is built once per n, as integer rows, by
the Murnaghan-Nakayama rule: chi^mu(lam) is the signed sum, over the border
strips of length t = lam[0] in mu, of chi^(mu - strip)(lam[1:]), read from
the table of S_(n-t).  Border strips are found on first-column hook lengths
(beta sets): removing a strip of length t from mu is moving some beta
number b down to b - t, the sign being (-1)^(number of beta numbers jumped
over).

Dimensions come independently from the hook length formula, and any
rational class function is decomposed into irreducibles by integer dot
products of its class-size-weighted values with the table rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from operator import add, mul, sub

from .characters import ClassFunction
from .partitions import (
    Partition,
    check_partition,
    class_data,
    conjugate,
    format_partition,
    partitions,
)


def irrep_dimension(mu: Partition) -> int:
    """Dimension of the irreducible S_n module labeled mu (hook lengths).

    >>> irrep_dimension((3, 1, 1))
    6
    """
    mu = check_partition(mu)
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


def _beta_set(mu: Partition) -> tuple[int, ...]:
    length = len(mu)
    return tuple(mu[i] + length - 1 - i for i in range(length))


def _shape_from_beta(beta: list[int]) -> Partition:
    # beta strictly decreasing; shift out the staircase and drop zero parts
    length = len(beta)
    return tuple(
        p for i, b in enumerate(beta) if (p := b - (length - 1 - i)) > 0
    )


def _border_strips(mu: Partition) -> dict[int, list[tuple[int, Partition]]]:
    """Border strips of mu by length t: (sign, mu with the strip removed)."""
    beta = _beta_set(mu)
    held = set(beta)
    strips: dict[int, list[tuple[int, Partition]]] = {}
    for i, b in enumerate(beta):
        jumped = 0
        for nb in range(b - 1, -1, -1):
            if nb in held:
                jumped += 1
                continue
            nbeta = sorted(beta[:i] + beta[i + 1 :] + (nb,), reverse=True)
            strips.setdefault(b - nb, []).append(
                (-1 if jumped % 2 else 1, _shape_from_beta(nbeta))
            )
    return strips


@cache
def _position(n: int) -> dict[Partition, int]:
    return {lam: i for i, lam in enumerate(partitions(n))}


@cache
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The irreducible characters of S_n as integer rows.

    Entry [i][j] is chi^mu(lam) for the i-th mu and the j-th lam of
    partitions(n).  Building it builds (and keeps) the tables of every
    smaller degree, about p(n)^2 integers for n.

    >>> character_table(3)
    ((1, 1, 1), (-1, 0, 2), (1, -1, 1))
    """
    if n == 0:
        return ((1,),)
    parts = partitions(n)
    # The columns lam with lam[0] = t form one block, for t = n down to 1.
    # Across a block lam[1:] runs, in order, over the partitions of n - t
    # with first part at most t: the tail of partitions(n - t) from `start`.
    blocks = []
    for t in range(n, 0, -1):
        width = sum(1 for lam in parts if lam[0] == t)
        smaller = character_table(n - t)
        blocks.append((t, len(smaller) - width, _position(n - t), smaller))
    rows = []
    for mu in parts:
        strips = _border_strips(mu)
        row: list[int] = []
        for t, start, position, smaller in blocks:
            block = [0] * (len(smaller) - start)
            for sign, nu in strips.get(t, ()):
                peeled = smaller[position[nu]][start:]
                block = list(map(add if sign > 0 else sub, block, peeled))
            row += block
        rows.append(tuple(row))
    return tuple(rows)


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
    position = _position(n)
    return character_table(n)[position[mu]][position[lam]]


@cache
def irreducible_character(mu: Partition) -> ClassFunction:
    """chi^mu as a class function on S_n, n = |mu|."""
    mu = check_partition(mu)
    n = sum(mu)
    row = character_table(n)[_position(n)[mu]]
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
    def genuine(self) -> bool:
        """True when every multiplicity is nonnegative."""
        return all(m >= 0 for _, m in self.terms)

    @property
    def dimension(self) -> int:
        return sum(m * irrep_dimension(mu) for mu, m in self.terms)

    def multiplicity(self, mu: Partition) -> int:
        mu = check_partition(mu)
        for nu, m in self.terms:
            if nu == mu:
                return m
        return 0

    def as_dict(self) -> dict[Partition, int]:
        return dict(self.terms)

    def as_class_function(self) -> ClassFunction:
        parts = partitions(self.n)
        mult = dict(self.terms)
        values = [0] * len(parts)
        for mu, row in zip(parts, character_table(self.n)):
            if mu in mult:
                values = [v + mult[mu] * x for v, x in zip(values, row)]
        return ClassFunction(self.n, dict(zip(parts, values)))

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


def decompose(f: ClassFunction, virtual: bool = False) -> IrrepDecomposition:
    """Write a rational class function as a sum of irreducibles.

    Multiplicities must come out integral, and nonnegative unless
    virtual=True allows formal differences of representations.

    >>> from braidchar.characters import braid_character
    >>> str(decompose(braid_character(4, 1)))
    '[4] + [3,1] + [2,2]'
    """
    parts = partitions(f.n)
    values = [f.values[lam] for lam in parts]
    # clear denominators once, so each multiplicity is an integer dot product
    scale = lcm(*(v.denominator for v in values))
    weighted = [
        int(class_data(lam).class_size * v * scale) for lam, v in zip(parts, values)
    ]
    order = factorial(f.n) * scale
    terms = []
    for mu, row in zip(parts, character_table(f.n)):
        total = sum(map(mul, row, weighted))
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
