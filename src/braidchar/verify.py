"""Named verification suites bundling every invariant the library promises.

Each check is a description plus a stream of cells ``(where, got, want)``,
each comparing two independently computed quantities at one (n, k,
partition) or similar.  One function, ``_compare``, consumes every stream:
it counts the cells and records the first mismatches, naming the cell and
both values.  A check that compared no cells (its range is empty under the
limits) passes with status SKIP, never PASS.  Streams are generators that
build each per-n object (a character, the regular character) once per n,
binding it with ``for x in [...]`` where a generator expression needs it.
Suites are deterministic: the check list and its order depend only on the
limits, never on timing or scheduling.

Four identity checks compare exact integers, the forms the library stores:
the cycle-polynomial sum reads sum_lam |C_lam| z_lam N_lam = n! (z^n -
z^(n-1)) from `scaled_cycle_polynomial`; the coefficient identity, the
measure normalization and telescoping read z_lam alpha_k = (-1)^k
chi_n^k(lam) from `SplittingMeasure.scaled`, the second as sum_lam |C_lam|
z_lam alpha_k = n! [k = 0].  So a FAIL shows those scaled integers.  The
`Fraction` route to the same identities stays in the tier-1 tests:
acceptance criterion 11, ``tests/test_ratpoly.py`` and
``tests/test_measures.py``.  The checks sweep partitions(n), valid by
construction, so they call the unvalidated cores (`_splitting_measure`,
`_closed_form`); input is validated where it enters the library.

The default limits keep a full ``run_suite("all")`` under two minutes:
polynomial/character identities up to n = 12, anything needing full
character tables up to n = 9, and a finite-field census grid capped at
10**6 polynomials per (p, n) cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial, prod
from typing import Any, Callable, Iterable, Iterator

from . import reference
from .characters import (
    ClassFunction,
    _closed_form,
    a_character,
    b_character,
    b_character_signed,
    braid_character,
    sign_twisted_sum,
)
from .fforacle import census_vs_theory
from .measures import _splitting_measure
from .partitions import Partition, class_data, divisors, format_partition, partitions
from .ratpoly import RatPoly, Z, necklace_polynomial, scaled_cycle_polynomial
from .specht import decompose

SUITE_NAMES = (
    "tables",
    "identities",
    "support",
    "regular-rep",
    "stability",
    "oracle",
    "theorems",
    "all",
)


@dataclass(frozen=True)
class Check:
    """One check's outcome; cells is the number of cells it compared (None
    when not counted), and a passing check with no cells is a SKIP."""

    description: str
    passed: bool
    details: str = ""
    cells: int | None = None

    @property
    def status(self) -> str:
        if not self.passed:
            return "FAIL"
        return "SKIP" if self.cells == 0 else "PASS"

    def line(self) -> str:
        tail = f": {self.details}" if (self.details and not self.passed) else ""
        return f"{self.status} {self.description}{tail}"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[Check, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        skipped = sum(c.status == "SKIP" for c in self.checks)
        tally = f", {skipped} skipped" if skipped else ""
        verdict = "ok" if self.passed else f"{len(self.failures)} failed"
        out.append(
            f"suite {self.suite}: {len(self.checks)} checks{tally}, "
            f"{verdict} ({self.elapsed:.2f}s)"
        )
        return out


@dataclass(frozen=True)
class VerifyLimits:
    """Ranges each suite sweeps; the defaults match the documented budget."""

    max_n: int = 12
    max_n_class: int = 9
    oracle_primes: tuple[int, ...] = (2, 3, 5, 7)
    oracle_limit: int = 10**6
    oracle_max_degree: int | None = None

    def capped(self, max_n: int | None) -> "VerifyLimits":
        if max_n is None:
            return self
        return replace(
            self,
            max_n=min(self.max_n, max_n),
            max_n_class=min(self.max_n_class, max_n),
            oracle_max_degree=max_n,
        )


Cell = tuple[Any, Any, Any]  # (where, got, want)


def _compare(description: str, cells: Iterable[Cell]) -> Check:
    """Compare every (where, got, want) cell; "{cells}" in the description
    becomes the number of cells compared."""
    count = 0
    bad: list[str] = []
    for where, got, want in cells:
        count += 1
        if got != want:
            bad.append(f"{_label(where)} expected {want} got {got}")
    description = description.replace("{cells}", str(count))
    if not bad:
        return Check(description, True, cells=count)
    shown = "; ".join(bad[:3])
    if len(bad) > 3:
        shown += f"; and {len(bad) - 3} more"
    return Check(description, False, shown, count)


def _label(where) -> str:
    """A cell's label.  Cells at (n, lambda) or (n, k, lambda) carry that
    tuple, so the label is only formatted for a mismatch."""
    if isinstance(where, str):
        return where
    *nk, lam = where
    head = "".join(f"{name}={v}, " for name, v in zip(("n", "k"), nk))
    return f"({head}lambda={format_partition(lam)})"


# ---------------------------------------------------------------------------
# tables: every frozen reference row against fresh computation


def _suite_tables(limits: VerifyLimits) -> Iterator[Check]:
    for n, rows in sorted(reference.MEASURE_ROWS.items()):
        if n > limits.max_n:  # nothing above the cap is computed, so the check SKIPs
            yield _compare(f"splitting measure table n={n}", [])
            continue
        want = {lam: (size, z_order, tuple(alpha)) for lam, size, z_order, alpha in rows}
        got = {
            lam: (
                class_data(lam).class_size,
                class_data(lam).centralizer_order,
                _splitting_measure(lam).scaled,
            )
            for lam in partitions(n)
        }
        yield _compare(
            f"splitting measure table n={n}",
            (((n, lam), got.get(lam), want.get(lam)) for lam in {**want, **got}),
        )

    top = min(limits.max_n_class, max(reference.BETTI_TRIANGLE))
    yield _compare(
        f"cohomology dimension triangle n<={top}",
        ((f"(n={n}, k={k})", braid_character(n, k)((1,) * n) if k <= n else 0, want)
         for n in range(1, top + 1)
         for k, want in enumerate(reference.BETTI_TRIANGLE[n])),
    )
    yield _compare(
        f"graded piece dimension triangle n<={top}",
        ((f"(n={n}, k={k})", a_character(n, k)((1,) * n) if k <= n - 1 else 0, want)
         for n in range(1, top + 1)
         for k, want in enumerate(reference.A_DIM_TRIANGLE[n])),
    )

    top = limits.max_n_class
    yield _compare(
        f"k=1 decomposition table n<={top}",
        ((f"(n={n}, k=1, {which})", decompose(fn(n, 1)).as_dict(), want)
         for n in range(2, top + 1)
         for which, fn, want in (
             ("h", braid_character, reference.h1_decomposition(n)),
             ("chi", a_character, reference.a1_decomposition(n)),
         )),
    )
    yield _compare(
        f"k=2 decomposition table n<={top}",
        ((f"(n={n}, k=2)", decompose(a_character(n, 2)).as_dict(),
          reference.a2_decomposition(n))
         for n in range(3, top + 1)),
    )


# ---------------------------------------------------------------------------
# identities: polynomial and character identities with no table to cite


def _closed_form_cells(max_n: int) -> Iterator[Cell]:
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                value = _closed_form(n, k, lam)
                if value is not None:
                    yield (n, k, lam), value, h(lam)


def _class_weighted_sum(n: int, row: Callable[[Partition], tuple[int, ...]]) -> list[int]:
    """sum over lam of n of |C_lam| * row(lam), entry by entry."""
    return [sum(column) for column in zip(*(
        [class_data(lam).class_size * c for c in row(lam)] for lam in partitions(n)))]


def _suite_identities(limits: VerifyLimits) -> Iterator[Check]:
    max_n, top = limits.max_n, limits.max_n_class
    zero = RatPoly([0])
    yield _compare(
        f"necklace inversion sum_d d*M_d = z^j, j<={max_n}",
        ((f"j={j}", sum((d * necklace_polynomial(d) for d in divisors(j)), zero), Z**j)
         for j in range(1, max_n + 1)),
    )
    # |C_lam| z_lam = n!, so sum_lam |C_lam| z_lam N_lam = n! (z^n - z^(n-1))
    yield _compare(
        f"cycle polynomial sum = z^n - z^(n-1), 2<=n<={max_n}",
        ((f"n={n}", _class_weighted_sum(n, scaled_cycle_polynomial),
          [0] * (n - 1) + [-factorial(n), factorial(n)])
         for n in range(2, max_n + 1)),
    )
    yield _compare(
        f"edge characters k=0, k=n, k=n-1, n<={max_n}",
        (((n, lam),
          (braid_character(n, 0)(lam), braid_character(n, n)(lam),
           a_character(n, n - 1)(lam) if n >= 2 else 0),
          (1, 0, 0))
         for n in range(1, max_n + 1) for lam in partitions(n)),
    )
    # a_character defines chi_k as h - chi_(k-1), so chi is read from the
    # measure's integers instead, chi_k = (-1)^k scaled[k]
    yield _compare(
        f"telescoping h = chi_(k-1) + chi_k, n<={max_n}",
        (((n, k, lam), h(lam), (-1) ** (k - 1) * (s[k - 1] - s[k]))
         for n in range(1, max_n + 1) for k in range(1, n)
         for h in [braid_character(n, k)]
         for lam in partitions(n)
         for s in [_splitting_measure(lam).scaled]),
    )
    # the next two read z_lam alpha_k, the integers `scaled` holds; since
    # |C_lam| z_lam = n!, the normalization's columns sum to (n!, 0, ..)
    yield _compare(
        f"coefficient identity alpha_k = (-1)^k chi_k / z, n<={max_n}",
        (((n, k, lam), scaled, (-1) ** k * chis[k](lam))
         for n in range(2, max_n + 1)
         for chis in [[a_character(n, k) for k in range(n)]]
         for lam in partitions(n)
         for k, scaled in enumerate(_splitting_measure(lam).scaled)),
    )
    yield _compare(
        f"measure normalization: alpha columns sum to (1,0,..), n<={max_n}",
        ((f"n={n} column sums",
          _class_weighted_sum(n, lambda lam: _splitting_measure(lam).scaled),
          [factorial(n)] + [0] * (n - 1))
         for n in range(2, max_n + 1)),
    )
    yield _compare(
        "closed forms agree with extraction on {cells} covered "
        f"(n,k,lambda), n<={max_n}",
        _closed_form_cells(max_n),
    )
    yield _compare(
        f"graded dimension products and signed splits, n<={top}",
        ((f"(n={n}, m={m}) dims (B, B+, B-)",
          (b_character(n, m).dimension,
           *(f.dimension for f in b_character_signed(n, m))),
          (full, Fraction(full + anti, 2), Fraction(full - anti, 2)))
         for n in range(2, top + 1) for m in (1, 2, 3)
         for full, anti in [(prod(1 + j * m for j in range(2, n)),
                             prod(1 - j * m for j in range(2, n)))]),
    )


# ---------------------------------------------------------------------------
# support: vanishing conditions on h_n^k


def _suite_support(limits: VerifyLimits) -> Iterator[Check]:
    max_n = limits.max_n
    for description, vanishes in (
        ("h vanishes when every part exceeds 2k (k>=1)",
         lambda n, k, lam: k >= 1 and min(lam) > 2 * k),
        ("h at degree n-k vanishes beyond k distinct part sizes",
         lambda n, k, lam: len(set(lam)) > n - k),
    ):
        yield _compare(
            f"{description}, n<={max_n}",
            (((n, k, lam), braid_character(n, k)(lam), 0)
             for n in range(1, max_n + 1) for k in range(n + 1)
             for lam in partitions(n) if vanishes(n, k, lam)),
        )


# ---------------------------------------------------------------------------
# regular-rep: the sign-twisted sum and its measure reformulations


def _special(n: int) -> set:
    """The identity and transposition classes of S_n."""
    return {(1,) * n, (2,) + (1,) * (n - 2)}


def _suite_regular(limits: VerifyLimits) -> Iterator[Check]:
    top = limits.max_n_class
    yield _compare(
        f"sign-twisted sum equals regular character, n<={top}",
        (((n, lam), twisted(lam), regular(lam))
         for n in range(2, top + 1)
         for twisted, regular in [(sign_twisted_sum(n), ClassFunction.regular(n))]
         for lam in partitions(n)),
    )
    yield _compare(
        f"measure at z=-1 is 1/2 on identity and transpositions, n<={top}",
        (((n, lam), _splitting_measure(lam).value(Fraction(-1)),
          Fraction(1, 2) if lam in special else Fraction(0))
         for n in range(2, top + 1) for special in [_special(n)]
         for lam in partitions(n)),
    )
    yield _compare(
        f"unsigned sum supported on identity and transpositions "
        f"with value z, n<={top}",
        (((n, lam), sum(braid_character(n, k)(lam) for k in range(n + 1)),
          class_data(lam).centralizer_order if lam in special else 0)
         for n in range(2, top + 1) for special in [_special(n)]
         for lam in partitions(n)),
    )


# ---------------------------------------------------------------------------
# stability: padded-label constancy of the k=1,2 decompositions


def _tails(n: int, k: int) -> dict:
    return decompose(a_character(n, k)).tail_multiset()


def _suite_stability(limits: VerifyLimits) -> Iterator[Check]:
    top = limits.max_n_class
    for k, start in ((1, 4), (2, 7)):
        # tails are stable from `start` on and differ one step below it;
        # nothing above the cap is decomposed
        stable = _tails(start, k) if start <= top else None
        yield _compare(
            f"k={k} label tails constant for {start}<=n<={top}",
            ((f"n={n} tails", _tails(n, k), stable) for n in range(start, top + 1)),
        )
        yield _compare(
            f"k={k} label tails deviate at n={start - 1}",
            [(f"n={start - 1} tails equal those at n={start} ({stable})",
              _tails(start - 1, k) == stable, False)] if start <= top else [],
        )


# ---------------------------------------------------------------------------
# oracle: exhaustive finite-field censuses against the cycle polynomials


def _oracle_grid(limits: VerifyLimits) -> list[tuple[int, int]]:
    cap = limits.oracle_max_degree
    grid = []
    for p in limits.oracle_primes:
        n = 1
        while p ** n <= limits.oracle_limit and (cap is None or n <= cap):
            grid.append((p, n))
            n += 1
    return grid


def _suite_oracle(limits: VerifyLimits) -> Iterator[Check]:
    for p, n in _oracle_grid(limits):
        report = census_vs_theory(p, n, budget=limits.oracle_limit)
        # a row's ok also holds the measure route's count, so both routes
        # are compared: (count, ok) against (predicted, True)
        cells = [((n, r.partition), (r.count, r.ok), (r.predicted, True))
                 for r in report.rows]
        cells.append(
            ("square-free total", report.total_squarefree, report.expected_total)
        )
        yield _compare(f"census over F_{p} degree {n}", cells)


# ---------------------------------------------------------------------------
# theorems: rescaled splitting measures at z = -1/m and 1/m are (virtual)
# characters of S_n


def _decomposes(f: ClassFunction, virtual: bool) -> str:
    """"ok" when f decomposes into irreducibles, else the reason it does not."""
    try:
        decompose(f, virtual=virtual)
    except ArithmeticError as exc:
        return str(exc)
    return "ok"


def _rescaled_measure(n: int, z: Fraction) -> ClassFunction:
    """lam -> n! times the measure of one permutation of cycle type lam."""
    return ClassFunction.from_rule(
        n, lambda lam: factorial(n) * _splitting_measure(lam).value(z, per_element=True)
    )


def _values(f: ClassFunction) -> str:
    """f's values, classes in the order of ``partitions(n)``, as exact text."""
    return "[" + ", ".join(str(f.values[lam]) for lam in partitions(f.n)) + "]"


def _b_difference(n: int, m: int) -> ClassFunction:
    plus, minus = b_character_signed(n, m)
    return plus - minus


def _suite_theorems(limits: VerifyLimits) -> Iterator[Check]:
    top = limits.max_n_class
    for sign, target, name in (
        (-1, b_character, "the character of B_(n,m)"),
        (1, _b_difference, "the virtual character B+ - B-"),
    ):
        virtual = sign > 0
        yield _compare(
            f"n!*nu at z={'-' if sign < 0 else ''}1/m is {name}, "
            f"2<=n<={top}, m<=3",
            ((f"(n={n}, m={m})", (_values(f), _decomposes(f, virtual)),
              (_values(target(n, m)), "ok"))
             for n in range(2, top + 1) for m in (1, 2, 3)
             for f in [_rescaled_measure(n, Fraction(sign, m))]),
        )


_SUITES = {
    "tables": _suite_tables,
    "identities": _suite_identities,
    "support": _suite_support,
    "regular-rep": _suite_regular,
    "stability": _suite_stability,
    "oracle": _suite_oracle,
    "theorems": _suite_theorems,
}


def run_suite(name: str, limits: VerifyLimits | None = None) -> SuiteReport:
    """Run a named suite (or "all") and return its report.

    >>> run_suite("stability").passed
    True
    """
    if limits is None:
        limits = VerifyLimits()
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    start = time.perf_counter()
    if name == "all":
        checks = [
            replace(c, description=f"{sub}: {c.description}")
            for sub in SUITE_NAMES[:-1]
            for c in _SUITES[sub](limits)
        ]
    else:
        checks = list(_SUITES[name](limits))
    return SuiteReport(name, tuple(checks), time.perf_counter() - start)
