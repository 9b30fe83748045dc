"""Runtime verification suites."""

import pytest

from braidchar.verify import (
    SUITE_NAMES,
    Check,
    SuiteReport,
    VerifyLimits,
    run_suite,
)

SMALL = VerifyLimits(max_n=7, max_n_class=6, oracle_primes=(2,), oracle_limit=2**5)


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


def test_capped_limits():
    limits = VerifyLimits().capped(5)
    assert limits.max_n == 5
    assert limits.max_n_class == 5
    assert limits.oracle_max_degree == 5
    custom = VerifyLimits(workers=2, oracle_primes=(3, 5)).capped(4)
    assert (custom.workers, custom.oracle_primes) == (2, (3, 5))
    assert VerifyLimits(max_n=3).capped(8).max_n == 3
    assert VerifyLimits().capped(None) == VerifyLimits()


def test_oracle_degree_cap_prunes_grid():
    capped = run_suite("oracle", SMALL.capped(3))
    uncapped = run_suite("oracle", SMALL)
    assert len(capped.checks) < len(uncapped.checks)
    assert capped.passed


def test_check_rendering():
    ok = Check("necklace inversion", True)
    assert ok.status == "PASS"
    assert ok.line() == "PASS necklace inversion"
    bad = Check("cycle sum", False, "n=3: got 7")
    assert bad.status == "FAIL"
    assert bad.line() == "FAIL cycle sum: n=3: got 7"


def test_report_summary_line():
    report = SuiteReport(
        suite="demo",
        checks=(Check("a", True), Check("b", False, "boom")),
        elapsed=0.25,
    )
    assert not report.passed
    assert report.failures == (report.checks[1],)
    lines = report.lines()
    assert lines[0] == "PASS a"
    assert lines[1] == "FAIL b: boom"
    assert "demo" in lines[-1] and "2 checks" in lines[-1] and "1 failed" in lines[-1]
