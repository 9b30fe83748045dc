"""Runtime verification suites."""

import os
import re
import threading
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from braidchar import characters, fforacle, reference, verify
from braidchar.characters import a_character, braid_character
from braidchar.cli import main
from braidchar.partitions import class_data
from braidchar.verify import (
    SUITE_NAMES,
    Check,
    SuiteReport,
    _compare,
    run_suite,
)

SMALL = 7  # a cap on every range


@pytest.mark.parametrize("name", [s for s in SUITE_NAMES if s != "all"])
def test_each_suite_passes_at_small_limits(name):
    report = run_suite(name, SMALL)
    assert report.suite == name
    assert report.checks
    assert report.passed, "\n".join(report.lines())
    assert report.failures == ()


def test_all_suite_aggregates_with_prefixes():
    report = run_suite("all", SMALL)
    assert report.passed
    prefixes = {c.description.split(":")[0] for c in report.checks}
    assert prefixes == {s for s in SUITE_NAMES if s != "all"}
    total = sum(len(run_suite(s, SMALL).checks) for s in sorted(prefixes))
    assert len(report.checks) == total


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="suite"):
        run_suite("everything", SMALL)


def test_suites_are_deterministic():
    first = run_suite("identities", SMALL)
    second = run_suite("identities", SMALL)
    strip = lambda r: [(c.description, c.passed, c.details) for c in r.checks]
    assert strip(first) == strip(second)


def test_oracle_suite_does_not_depend_on_the_thread_count(monkeypatch):
    # blocks of 32 codes on two threads, so that the larger cells run on a pool
    monkeypatch.setattr(fforacle, "_BLOCK", 64)
    kernel = fforacle._packed_gcd_degree
    ran_on = set()

    def record(p, n, codes):
        ran_on.add(threading.get_ident())
        return kernel(p, n, codes)

    monkeypatch.setattr(fforacle, "_packed_gcd_degree", record)
    checks = {}
    for threads in (1, 2):
        monkeypatch.setattr(os, "cpu_count", lambda: threads)
        ran_on.clear()
        checks[threads] = [
            (c.description, c.status, c.details, c.cells)
            for c in run_suite("oracle", 4).checks
        ]
        main_only = ran_on == {threading.main_thread().ident}
        assert main_only == (threads == 1), threads
    assert checks[1] == checks[2]
    assert len(checks[1]) == 16 and all(c[1] == "PASS" for c in checks[1])


@pytest.mark.parametrize("cap", [None, 1, 5, np.int64(5), 9, 12, 20])
def test_every_range_is_a_constant_under_the_cap(cap):
    bound = 20 if cap is None else cap  # 2**20 > 10**6, so 20 caps nothing
    report = run_suite("all", cap)
    assert report.passed
    grid = set()
    for c in report.checks:
        suite, description = c.description.split(": ", 1)
        if suite == "oracle":
            p, n = re.fullmatch(r"census over F_(\d+) degree (\d+)", description).groups()
            grid.add((int(p), int(n)))
        elif not re.search(r"table n=\d$|deviate at n=\d$", description):
            [top] = re.findall(r"[nj]<=(\d+)", description)
            assert int(top) in (min(12, bound), min(9, bound)), c.description
    assert grid == {
        (p, n) for p in (2, 3, 5, 7) for n in range(1, 21) if p**n <= 10**6 and n <= bound
    }


@pytest.mark.parametrize("max_n, error", [(0, ValueError), (-1, ValueError), (2.0, TypeError)])
def test_a_cap_below_one_or_not_an_integer_is_refused(max_n, error):
    with pytest.raises(error):
        run_suite("identities", max_n)


def test_a_check_counts_its_cells():
    with pytest.raises(TypeError, match="cells"):
        Check("compared nothing", True)


def test_check_rendering():
    ok = Check("necklace inversion", True, cells=1)
    assert ok.status == "PASS"
    assert ok.line() == "PASS necklace inversion"
    bad = Check("cycle sum", False, "n=3: got 7", cells=1)
    assert bad.status == "FAIL"
    assert bad.line() == "FAIL cycle sum: n=3: got 7"


def test_report_summary_line():
    report = SuiteReport(
        suite="demo",
        checks=(Check("a", True, cells=1), Check("b", False, "boom", cells=1)),
        elapsed=0.25,
    )
    assert not report.passed
    assert report.failures == (report.checks[1],)
    lines = report.lines()
    assert lines[0] == "PASS a"
    assert lines[1] == "FAIL b: boom"
    assert "demo" in lines[-1] and "2 checks" in lines[-1] and "1 failed" in lines[-1]


def test_report_summary_counts_skipped_checks():
    report = SuiteReport("demo", (Check("a", True, cells=3), Check("b", True, cells=0)), 0.5)
    assert report.passed
    assert report.lines() == ["PASS a", "SKIP b", "suite demo: 2 checks, 1 skipped, ok (0.50s)"]


# ---------------------------------------------------------------------------
# _compare: the one comparator every check goes through


def test_compare_counts_cells_and_names_mismatches():
    cells = [("a", 1, 1)] + [(f"x{i}", i, 0) for i in range(1, 6)]
    check = _compare("demo over {cells} cells", cells)
    assert (check.description, check.cells, check.status) == ("demo over 6 cells", 6, "FAIL")
    assert check.details == (
        "x1 expected 0 got 1; x2 expected 0 got 2; x3 expected 0 got 3; and 2 more"
    )
    labelled = _compare("demo", iter([((4, 2, (2, 1, 1)), 5, 6), ((3, (3,)), 0, 1)]))
    assert labelled.details == (
        "(n=4, k=2, lambda=2,1,1) expected 6 got 5; (n=3, lambda=3) expected 1 got 0"
    )


def test_compare_without_cells_is_skip():
    empty = _compare("empty", [])
    assert (empty.passed, empty.cells, empty.status, empty.details) == (True, 0, "SKIP", "")
    assert empty.line() == "SKIP empty"
    assert _compare("one", [("a", 1, 1)]).line() == "PASS one"


def test_checks_that_compare_nothing_are_skipped():
    report = run_suite("all", 1)
    assert report.passed
    for c in report.checks:
        assert isinstance(c.cells, int), c.description
        assert c.status == ("SKIP" if c.cells == 0 else "PASS"), c.description
    assert sum(c.status == "SKIP" for c in report.checks) == 19
    assert f"{len(report.checks)} checks, 19 skipped, ok" in report.lines()[-1]


@pytest.mark.parametrize("name", [s for s in SUITE_NAMES if s not in ("oracle", "all")])
def test_no_check_is_skipped_at_default_limits(name):
    report = run_suite(name)
    assert report.passed
    assert all(c.cells > 0 for c in report.checks)
    assert "skipped" not in report.lines()[-1]


def test_cli_verify_prints_skip_and_exits_zero():
    res = CliRunner().invoke(main, ["verify", "all", "--max-n", "1"])
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert "SKIP stability: k=2 label tails deviate at n=6" in lines
    assert "PASS oracle: census over F_2 degree 1" in lines
    assert "FAIL" not in res.output
    assert ", 19 skipped, ok (" in lines[-1]


def test_stability_decomposes_nothing_above_the_cap(monkeypatch):
    seen = []
    tails = verify._tails
    monkeypatch.setattr(verify, "_tails", lambda n, k: seen.append(n) or tails(n, k))
    for cap, statuses in (
        (1, ["SKIP"] * 4),
        (3, ["SKIP"] * 4),
        (5, ["PASS", "PASS", "SKIP", "SKIP"]),
        (6, ["PASS", "PASS", "SKIP", "SKIP"]),
        (7, ["PASS"] * 4),
    ):
        seen.clear()
        report = run_suite("stability", cap)
        assert [c.status for c in report.checks] == statuses
        assert max(seen, default=0) <= cap


def test_measure_tables_compute_nothing_above_the_cap(monkeypatch):
    seen = []
    measure = verify._splitting_measure
    monkeypatch.setattr(
        verify, "_splitting_measure", lambda lam: seen.append(sum(lam)) or measure(lam)
    )
    for cap, statuses in ((3, ["SKIP", "SKIP"]), (4, ["PASS", "SKIP"]), (5, ["PASS", "PASS"])):
        seen.clear()
        report = run_suite("tables", cap)
        measures = [c for c in report.checks if c.description.startswith("splitting")]
        assert [c.status for c in measures] == statuses
        assert max(seen, default=0) <= cap
    res = CliRunner().invoke(main, ["verify", "tables", "--max-n", "3"])
    assert res.exit_code == 0, res.output
    assert "SKIP splitting measure table n=4" in res.output.splitlines()


def test_closed_form_description_carries_its_cell_count():
    [check] = [
        c for c in run_suite("identities", SMALL).checks if c.description.startswith("closed")
    ]
    assert check.description == (
        f"closed forms agree with extraction on {check.cells} covered (n,k,lambda), n<=7"
    )
    assert check.cells > 0


# ---------------------------------------------------------------------------
# a suite can fail: one wrong value makes its check FAIL, naming the cell


def test_tables_suite_fails_on_a_wrong_reference_value(monkeypatch):
    row = list(reference.BETTI_TRIANGLE[4])
    row[2] += 1
    monkeypatch.setitem(reference.BETTI_TRIANGLE, 4, tuple(row))
    report = run_suite("tables", SMALL)
    [bad] = report.failures
    assert bad.status == "FAIL"
    assert bad.description == "cohomology dimension triangle n<=7"
    assert bad.details == "(n=4, k=2) expected 12 got 11"
    res = CliRunner().invoke(main, ["verify", "tables", "--max-n", "6"])
    assert res.exit_code == 1
    assert "FAIL cohomology dimension triangle n<=6: (n=4, k=2) expected 12 got 11" in (
        res.output.splitlines()
    )
    assert "1 failed" in res.output.splitlines()[-1]


def test_identities_suite_fails_on_a_wrong_closed_form(monkeypatch):
    real = verify._closed_form

    def shifted(n, k, lam):
        value = real(n, k, lam)
        return value if value is None else value + ((n, k, lam) == (4, 1, (3, 1)))

    monkeypatch.setattr(verify, "_closed_form", shifted)
    report = run_suite("identities", SMALL)
    [bad] = report.failures
    assert bad.description.startswith("closed forms agree with extraction")
    h = braid_character(4, 1)((3, 1))
    assert bad.details == f"(n=4, k=1, lambda=3,1) expected {h} got {h + 1}"


def test_identities_suite_cell_counts_at_default_limits():
    report = run_suite("identities")
    assert report.passed
    assert [c.cells for c in report.checks] == [12, 11, 271, 2375, 2645, 11, 1117, 24]


def test_identities_suite_fails_on_a_wrong_cycle_polynomial(monkeypatch):
    real = verify.scaled_cycle_polynomial
    lam = (2, 2)

    def shifted(mu):
        poly = real(mu)
        return (poly[0], poly[1] + 1, *poly[2:]) if mu == lam else poly

    monkeypatch.setattr(verify, "scaled_cycle_polynomial", shifted)
    report = run_suite("identities", SMALL)
    [bad] = report.failures
    assert bad.description == "cycle polynomial sum = z^n - z^(n-1), 2<=n<=7"
    # n! (z^4 - z^3), and the shift once per permutation of the class
    size = class_data(lam).class_size
    assert bad.details == f"n=4 expected [0, 0, 0, -24, 24] got [0, {size}, 0, -24, 24]"
    assert all(c.status == "PASS" for c in report.checks if c is not bad)


def test_identities_suite_fails_on_a_wrong_scaled_coefficient(monkeypatch):
    real = verify._splitting_measure
    lam = (3, 1)

    def shifted(mu):
        m = real(mu)
        if mu != lam:
            return m
        return replace(m, scaled=(m.scaled[0], m.scaled[1] + 1, *m.scaled[2:]))

    monkeypatch.setattr(verify, "_splitting_measure", shifted)
    report = run_suite("identities", SMALL)
    telescoping, identity, normalization = report.failures
    # telescoping reads h_4^1 = scaled[0] - scaled[1] from the measure
    h1 = braid_character(4, 1)(lam)
    assert telescoping.description == "telescoping h = chi_(k-1) + chi_k, n<=7"
    assert telescoping.details.startswith(
        f"(n=4, k=1, lambda=3,1) expected {h1 - 1} got {h1}"
    )
    h = -a_character(4, 1)(lam)
    assert identity.description == "coefficient identity alpha_k = (-1)^k chi_k / z, n<=7"
    assert identity.details == f"(n=4, k=1, lambda=3,1) expected {h} got {h + 1}"
    assert normalization.description == (
        "measure normalization: alpha columns sum to (1,0,..), n<=7"
    )
    size = class_data(lam).class_size
    assert normalization.details == (
        f"n=4 column sums expected [24, 0, 0, 0] got [24, {size}, 0, 0]"
    )
    others = [c for c in report.checks if c not in (telescoping, identity, normalization)]
    assert len(others) == 5 and all(c.status == "PASS" for c in others)


def test_identities_suite_fails_on_a_wrong_character(monkeypatch):
    # one wrong coefficient of the integer cycle polynomial that the
    # characters read, and only they: the measure still reads the right one,
    # so telescoping, which a_character alone would satisfy by definition, fails
    real = characters.scaled_cycle_polynomial

    def shifted(mu):
        poly = real(mu)
        return (*poly[:3], poly[3] + 1, *poly[4:]) if mu == (2, 2, 1) else poly

    cached = (characters.braid_character, characters.a_character)
    for f in cached:
        f.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setattr(characters, "scaled_cycle_polynomial", shifted)
            report = run_suite("identities", SMALL)
    finally:  # no wrong character outlives the test
        for f in cached:
            f.cache_clear()
    failed = [c.description.split()[0] for c in report.failures]
    assert failed == ["edge", "telescoping", "coefficient", "closed"]
    [telescoping] = [c for c in report.failures if c.description.startswith("telescoping")]
    h = braid_character(5, 2)((2, 2, 1))
    assert telescoping.details == f"(n=5, k=2, lambda=2,2,1) expected {h} got {h + 1}"


def test_theorems_suite_fails_on_a_wrong_character(monkeypatch):
    real = verify.b_character
    monkeypatch.setattr(
        verify, "b_character", lambda n, m: real(n, m) * (2 if (n, m) == (3, 2) else 1)
    )
    report = run_suite("theorems", SMALL)
    [bad] = report.failures
    assert bad.description.startswith("n!*nu at z=-1/m")
    assert bad.details == "(n=3, m=2) expected ('[-2, 2, 10]', 'ok') got ('[-1, 1, 5]', 'ok')"


def test_theorems_suite_reports_a_non_integral_multiplicity(monkeypatch):
    real = verify._splitting_measure

    def shifted(lam):
        value = real(lam).value
        return SimpleNamespace(
            value=lambda z, per_element=False: value(z, per_element) + Fraction(1, 1000)
        )

    monkeypatch.setattr(verify, "_splitting_measure", shifted)
    report = run_suite("theorems", SMALL)
    assert [c.status for c in report.checks] == ["FAIL", "FAIL"]
    assert "not an integer" in report.checks[1].details
    assert "not a virtual character" in report.checks[1].details


def test_theorems_suite_has_one_cell_per_n_and_m():
    report = run_suite("theorems", SMALL)
    assert report.passed
    assert [c.cells for c in report.checks] == [18, 18]
