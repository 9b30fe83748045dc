"""Named verification suites bundling every invariant the library promises.

Each suite is a list of checks; a check compares two independently computed
quantities and, on failure, records the offending (n, k, partition) together
with both values.  Suites are deterministic: the check list and its order
depend only on the limits, never on timing or scheduling.

The default limits keep a full ``run_suite("all")`` under two minutes:
polynomial/character identities up to n = 12, anything needing full
character tables up to n = 9, and a finite-field census grid capped at
10**6 polynomials per (p, n) cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import reference
from .characters import (
    ClassFunction,
    NoClosedFormError,
    a_character,
    b_character,
    b_character_signed,
    braid_character,
    closed_form_check,
    sign_twisted_sum,
)
from .fforacle import census_vs_theory
from .measures import measure_value, splitting_coefficients
from .partitions import class_data, divisors, format_partition, partitions
from .ratpoly import RatPoly, Z, cycle_polynomial, necklace_polynomial
from .specht import decompose

SUITE_NAMES = (
    "tables",
    "identities",
    "support",
    "regular-rep",
    "stability",
    "oracle",
    "all",
)


@dataclass(frozen=True)
class Check:
    description: str
    passed: bool
    details: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

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
        verdict = "ok" if self.passed else f"{len(self.failures)} failed"
        out.append(
            f"suite {self.suite}: {len(self.checks)} checks, "
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
    workers: int | None = None

    def capped(self, max_n: int | None) -> "VerifyLimits":
        if max_n is None:
            return self
        return replace(
            self,
            max_n=min(self.max_n, max_n),
            max_n_class=min(self.max_n_class, max_n),
            oracle_max_degree=max_n,
        )


def _check(description: str, failures: list[str]) -> Check:
    if failures:
        shown = "; ".join(failures[:3])
        if len(failures) > 3:
            shown += f"; and {len(failures) - 3} more"
        return Check(description, False, shown)
    return Check(description, True)


# ---------------------------------------------------------------------------
# tables: every frozen reference row against fresh computation


def _suite_tables(limits: VerifyLimits) -> list[Check]:
    checks: list[Check] = []

    for n, rows in sorted(reference.MEASURE_ROWS.items()):
        bad: list[str] = []
        computed = {
            lam: (
                class_data(lam).class_size,
                class_data(lam).centralizer_order,
                splitting_coefficients(lam).scaled_coefficients(),
            )
            for lam in partitions(n)
        }
        for lam, c_size, z_order, scaled in rows:
            got = computed.pop(lam, None)
            if got != (c_size, z_order, tuple(scaled)):
                bad.append(
                    f"lambda={format_partition(lam)} expected "
                    f"{(c_size, z_order, tuple(scaled))} got {got}"
                )
        if computed:
            bad.append(f"extra partitions {sorted(computed)}")
        checks.append(_check(f"splitting measure table n={n}", bad))

    top = min(limits.max_n_class, max(reference.BETTI_TRIANGLE))
    bad = []
    for n in range(1, top + 1):
        expected = reference.BETTI_TRIANGLE[n]
        for k, want in enumerate(expected):
            got = braid_character(n, k)((1,) * n) if k <= n else 0
            if got != want:
                bad.append(f"(n={n}, k={k}) expected {want} got {got}")
    checks.append(_check(f"cohomology dimension triangle n<={top}", bad))

    bad = []
    for n in range(1, top + 1):
        expected = reference.A_DIM_TRIANGLE[n]
        for k, want in enumerate(expected):
            got = a_character(n, k)((1,) * n) if k <= n - 1 else 0
            if got != want:
                bad.append(f"(n={n}, k={k}) expected {want} got {got}")
    checks.append(_check(f"graded piece dimension triangle n<={top}", bad))

    bad = []
    for n in range(2, limits.max_n_class + 1):
        for which, fn, expected in (
            ("h", braid_character, reference.h1_decomposition(n)),
            ("chi", a_character, reference.a1_decomposition(n)),
        ):
            got = decompose(fn(n, 1)).as_dict()
            if got != expected:
                bad.append(
                    f"(n={n}, k=1, {which}) expected {expected} got {got}"
                )
    checks.append(
        _check(f"k=1 decomposition table n<={limits.max_n_class}", bad)
    )

    bad = []
    for n in range(3, limits.max_n_class + 1):
        expected = reference.a2_decomposition(n)
        got = decompose(a_character(n, 2)).as_dict()
        if got != expected:
            bad.append(f"(n={n}, k=2) expected {expected} got {got}")
    checks.append(
        _check(f"k=2 decomposition table n<={limits.max_n_class}", bad)
    )

    return checks


# ---------------------------------------------------------------------------
# identities: polynomial and character identities with no table to cite


def _suite_identities(limits: VerifyLimits) -> list[Check]:
    checks: list[Check] = []
    max_n = limits.max_n

    bad = []
    for j in range(1, max_n + 1):
        total = RatPoly([0])
        for d in divisors(j):
            total = total + d * necklace_polynomial(d)
        if total != Z**j:
            bad.append(f"j={j} got {total}")
    checks.append(_check(f"necklace inversion sum_d d*M_d = z^j, j<={max_n}", bad))

    bad = []
    for n in range(2, max_n + 1):
        total = RatPoly([0])
        for lam in partitions(n):
            total = total + cycle_polynomial(lam)
        if total != Z**n - Z ** (n - 1):
            bad.append(f"n={n} got {total}")
    checks.append(
        _check(f"cycle polynomial sum = z^n - z^(n-1), 2<=n<={max_n}", bad)
    )

    bad = []
    for n in range(1, max_n + 1):
        for lam in partitions(n):
            if braid_character(n, 0)(lam) != 1 or braid_character(n, n)(lam) != 0:
                bad.append(f"(n={n}, lambda={format_partition(lam)})")
            if n >= 2 and a_character(n, n - 1)(lam) != 0:
                bad.append(f"(n={n}, k={n-1}, lambda={format_partition(lam)})")
    checks.append(_check(f"edge characters k=0, k=n, k=n-1, n<={max_n}", bad))

    bad = []
    for n in range(1, max_n + 1):
        for k in range(1, n):
            h = braid_character(n, k)
            lo = a_character(n, k - 1)
            hi = a_character(n, k)
            for lam in partitions(n):
                if h(lam) != lo(lam) + hi(lam):
                    bad.append(
                        f"(n={n}, k={k}, lambda={format_partition(lam)}) "
                        f"h={h(lam)} vs {lo(lam)}+{hi(lam)}"
                    )
    checks.append(_check(f"telescoping h = chi_(k-1) + chi_k, n<={max_n}", bad))

    bad = []
    for n in range(2, max_n + 1):
        for lam in partitions(n):
            z_order = class_data(lam).centralizer_order
            alpha = splitting_coefficients(lam).alpha
            for k in range(n):
                want = Fraction((-1) ** k * a_character(n, k)(lam), z_order)
                if alpha[k] != want:
                    bad.append(
                        f"(n={n}, k={k}, lambda={format_partition(lam)}) "
                        f"alpha={alpha[k]} vs {want}"
                    )
    checks.append(
        _check(f"coefficient identity alpha_k = (-1)^k chi_k / z, n<={max_n}", bad)
    )

    bad = []
    for n in range(2, max_n + 1):
        sums = [Fraction(0)] * n
        for lam in partitions(n):
            for k, a in enumerate(splitting_coefficients(lam).alpha):
                sums[k] += a
        want = [Fraction(1)] + [Fraction(0)] * (n - 1)
        if sums != want:
            bad.append(f"n={n} column sums {sums}")
    checks.append(
        _check(f"measure normalization: alpha columns sum to (1,0,..), n<={max_n}", bad)
    )

    bad = []
    covered = 0
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                try:
                    value = closed_form_check(n, k, lam)
                except NoClosedFormError:
                    continue
                covered += 1
                if value != h(lam):
                    bad.append(
                        f"(n={n}, k={k}, lambda={format_partition(lam)}) "
                        f"closed form {value} vs extraction {h(lam)}"
                    )
    checks.append(
        _check(
            f"closed forms agree with extraction on {covered} covered "
            f"(n,k,lambda), n<={max_n}",
            bad,
        )
    )

    bad = []
    for n in range(2, limits.max_n_class + 1):
        for m in (1, 2, 3):
            dim = b_character(n, m)((1,) * n)
            prod = 1
            for j in range(2, n):
                prod *= 1 + j * m
            if dim != prod:
                bad.append(f"(n={n}, m={m}) dim {dim} vs product {prod}")
            plus, minus = b_character_signed(n, m)
            anti = 1
            for j in range(2, n):
                anti *= 1 - j * m
            d_plus, d_minus = plus((1,) * n), minus((1,) * n)
            if (d_plus, d_minus) != (
                Fraction(prod + anti, 2),
                Fraction(prod - anti, 2),
            ):
                bad.append(
                    f"(n={n}, m={m}) signed dims ({d_plus}, {d_minus}) "
                    f"vs halves of {prod}+-{anti}"
                )
    checks.append(
        _check(
            f"graded dimension products and signed splits, n<={limits.max_n_class}",
            bad,
        )
    )

    return checks


# ---------------------------------------------------------------------------
# support: vanishing conditions on h_n^k


def _suite_support(limits: VerifyLimits) -> list[Check]:
    max_n = limits.max_n
    small_part: list[str] = []
    distinct: list[str] = []
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            h = braid_character(n, k)
            for lam in partitions(n):
                if k >= 1 and min(lam) > 2 * k and h(lam) != 0:
                    small_part.append(
                        f"(n={n}, k={k}, lambda={format_partition(lam)}) "
                        f"value {h(lam)}"
                    )
                if len(set(lam)) > n - k and h(lam) != 0:
                    distinct.append(
                        f"(n={n}, k={k}, lambda={format_partition(lam)}) "
                        f"value {h(lam)}"
                    )
    return [
        _check(
            f"h vanishes when every part exceeds 2k (k>=1), n<={max_n}",
            small_part,
        ),
        _check(
            f"h at degree n-k vanishes beyond k distinct part sizes, n<={max_n}",
            distinct,
        ),
    ]


# ---------------------------------------------------------------------------
# regular-rep: the sign-twisted sum and its measure reformulations


def _suite_regular(limits: VerifyLimits) -> list[Check]:
    checks: list[Check] = []
    top = limits.max_n_class

    bad = []
    for n in range(2, top + 1):
        twisted = sign_twisted_sum(n)
        regular = ClassFunction.regular(n)
        for lam in partitions(n):
            if twisted(lam) != regular(lam):
                bad.append(
                    f"(n={n}, lambda={format_partition(lam)}) "
                    f"{twisted(lam)} vs {regular(lam)}"
                )
    checks.append(_check(f"sign-twisted sum equals regular character, n<={top}", bad))

    bad = []
    for n in range(2, top + 1):
        special = {(1,) * n, (2,) + (1,) * (n - 2)}
        for lam in partitions(n):
            value = measure_value(lam, Fraction(-1))
            want = Fraction(1, 2) if lam in special else Fraction(0)
            if value != want:
                bad.append(
                    f"(n={n}, lambda={format_partition(lam)}) "
                    f"measure {value} vs {want}"
                )
    checks.append(
        _check(f"measure at z=-1 is 1/2 on identity and transpositions, n<={top}", bad)
    )

    bad = []
    for n in range(2, top + 1):
        special = {(1,) * n, (2,) + (1,) * (n - 2)}
        for lam in partitions(n):
            theta = sum(braid_character(n, k)(lam) for k in range(n + 1))
            want = class_data(lam).centralizer_order if lam in special else 0
            if theta != want:
                bad.append(
                    f"(n={n}, lambda={format_partition(lam)}) "
                    f"theta {theta} vs {want}"
                )
    checks.append(
        _check(
            f"unsigned sum supported on identity and transpositions "
            f"with value z, n<={top}",
            bad,
        )
    )

    return checks


# ---------------------------------------------------------------------------
# stability: padded-label constancy of the k=1,2 decompositions


def _tails(n: int, k: int) -> dict:
    return decompose(a_character(n, k)).tail_multiset()


def _suite_stability(limits: VerifyLimits) -> list[Check]:
    checks: list[Check] = []
    top = limits.max_n_class

    stable1 = _tails(4, 1)
    bad = [
        f"n={n} tails {_tails(n, 1)} vs {stable1}"
        for n in range(4, top + 1)
        if _tails(n, 1) != stable1
    ]
    checks.append(_check(f"k=1 label tails constant for 4<=n<={top}", bad))
    bad = [] if _tails(3, 1) != stable1 else [f"n=3 tails equal {stable1}"]
    checks.append(_check("k=1 label tails deviate at n=3", bad))

    stable2 = _tails(7, 2)
    bad = [
        f"n={n} tails {_tails(n, 2)} vs {stable2}"
        for n in range(7, top + 1)
        if _tails(n, 2) != stable2
    ]
    checks.append(_check(f"k=2 label tails constant for 7<=n<={top}", bad))
    bad = [] if _tails(6, 2) != stable2 else [f"n=6 tails equal {stable2}"]
    checks.append(_check("k=2 label tails deviate at n=6", bad))

    return checks


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


def _suite_oracle(limits: VerifyLimits) -> list[Check]:
    checks = []
    for p, n in _oracle_grid(limits):
        report = census_vs_theory(
            p, n, budget=limits.oracle_limit, workers=limits.workers
        )
        bad = [
            f"lambda={format_partition(r.partition)} count {r.count} "
            f"vs predicted {r.predicted}"
            for r in report.rows
            if not r.ok
        ]
        if report.total_squarefree != report.expected_total:
            bad.append(
                f"square-free total {report.total_squarefree} "
                f"vs {report.expected_total}"
            )
        checks.append(_check(f"census over F_{p} degree {n}", bad))
    return checks


_SUITES = {
    "tables": _suite_tables,
    "identities": _suite_identities,
    "support": _suite_support,
    "regular-rep": _suite_regular,
    "stability": _suite_stability,
    "oracle": _suite_oracle,
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
        checks = []
        for sub in SUITE_NAMES[:-1]:
            checks.extend(
                Check(f"{sub}: {c.description}", c.passed, c.details)
                for c in _SUITES[sub](limits)
            )
    else:
        checks = _SUITES[name](limits)
    return SuiteReport(name, tuple(checks), time.perf_counter() - start)
