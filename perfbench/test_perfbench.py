"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench

They run the benchmark's smoke mode end to end, feed a deliberately wrong
expected value through the output checks, and exercise the compare
verdicts on made-up numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import worker  # noqa: E402  (puts the package sources on sys.path)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    provenance = json.loads(proc.stdout.splitlines()[-2])["provenance"]
    assert provenance["seed"] == 3 and provenance["workload"] == workload


def test_same_seed_gives_same_inputs():
    first = [op.args for op in workloads.build("cli-small", 5)]
    assert first == [op.args for op in workloads.build("cli-small", 5)]
    assert first != [op.args for op in workloads.build("cli-small", 6)]


def _sample(workload: str) -> dict:
    return worker.main({"workload": workload, "seed": 1, "size": "smoke",
                        "mode": "sample", "trace": False})


def test_wrong_digest_counts_as_a_failed_operation(monkeypatch):
    golden = workloads.load_golden()
    victim = "hchar --n 4 --format json"
    monkeypatch.setattr(workloads, "load_golden", lambda: {**golden, victim: "0" * 64})
    result = _sample("cli-small")
    assert result["failed"] == 1
    assert result["failures"] == [f"braidchar {victim}: output differs from the recorded digest"]


def test_wrong_reference_decomposition_counts_as_a_failed_operation(monkeypatch):
    from braidchar import reference

    true_h1 = reference.h1_decomposition
    monkeypatch.setattr(
        reference, "h1_decomposition",
        lambda n: {**true_h1(n), (n,): 2} if n == 8 else true_h1(n),
    )
    result = _sample("decompose-tower")
    assert result["failed"] == 1
    assert result["failures"][0].startswith("h(8, 1): multiplicities")


def test_wrong_census_total_counts_as_a_failed_operation(monkeypatch):
    import braidchar

    real = braidchar.census_vs_theory

    def short_total(p, n, **kw):
        report = real(p, n, **kw)
        return type(report)(p, n, report.total_squarefree - 1, report.expected_total, report.rows)

    monkeypatch.setattr(braidchar, "census_vs_theory", short_total)
    result = _sample("census-large")
    assert result["failed"] == result["attempted"] == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli-small", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.2 for p in parent]
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, faster[:5], "lower", 0.1)["verdict"] != "gain"
    assert compare.verdict(parent, faster, "lower", 0.1, failures_grew=True)["verdict"] != "gain"
    assert compare.verdict(parent, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, list(parent), "lower", 0.1)["verdict"] == "no change"
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent, slower, "higher", None)["verdict"] == "gain"


def test_compare_report_has_one_row_per_metric_and_workload():
    def result(wall):
        return {"failed": 0, "metrics": {"wall_norm": {"value": wall, "unit": "probe"},
                                         "setup_s": {"value": 0.3, "unit": "s"}}}

    records = [
        {"pair": i, "workload": w, "side": side, "result": result(wall)}
        for i in range(10)
        for w in ("a", "b")
        for side, wall in (("parent", 10.0 + i % 3), ("change", 7.0 + i % 3))
    ]
    rows = compare.report(records, compare.metric_specs(SPEC))
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("a", "wall_norm"), ("a", "setup_s"), ("b", "wall_norm"), ("b", "setup_s")
    ]
    assert [r["verdict"] for r in rows] == ["gain", "no change"] * 2


def test_self_times_take_out_the_wrapper_cost():
    import tracing

    tracer = tracing.Tracer()
    leaf = tracer.counter("leaf", lambda: None)
    child = tracer.wrap("child", lambda: leaf())
    parent = tracer.wrap("parent", lambda: [child(), child(), leaf()])
    parent()
    raw = tracer.self_times()
    net = tracer.self_times((1.0, 10.0, 100.0))
    assert raw["parent"] - net["parent"] == pytest.approx(1 + 2 * 10 + 1 * 100)
    assert raw["child"] - net["child"] == pytest.approx(2 * (1 + 1 * 100))
    inside, outside, counted = tracing.Tracer.wrapper_cost()
    assert inside > 0 and outside >= 0 and counted >= 0
