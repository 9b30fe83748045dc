"""Compare two commits with the benchmark: alternating pairs, one verdict per row.

Collect pairs (each checkout must hold this benchmark and its own sources):

    python3 perfbench/compare.py run PARENT_DIR CHANGE_DIR --out pairs.jsonl \\
        --workload census-large --workload cli-small --pairs 10

Report on pairs already collected:

    python3 perfbench/compare.py report pairs.jsonl

Pair i runs both checkouts on seed ``FIRST_SEED + i``, for the
``run_seconds`` of ``BENCHMARK.json``; the parent runs first in even pairs
and the change first in odd ones.  The report has one
row per (metric, workload) with each side's median and quartiles, the
pairs the change won and lost, and a verdict:

* ``gain`` -- the change is better in at least 9/10 of the pairs (ties count
  for neither side), its median differs from the parent's by more than the
  parent's interquartile range, at least 10 pairs were run and no more
  operations failed than at the parent;
* ``regression`` -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread (interquartile range over median)
  is wider than the bound, unless every change run beats every parent run;
* ``no change`` -- none of the above.  Per-layer metrics have no bound, so
  they are only ever ``gain`` or ``no change``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parent / "BENCHMARK.json"
MIN_PAIRS = 10
FIRST_SEED = 1000
WIN_SHARE = 0.9


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_specs(spec: dict) -> dict[str, dict]:
    """Metric name -> its entry in BENCHMARK.json (end_to_end and per_layer)."""
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def verdict(parent: list[float], change: list[float], better: str, bound: float | None,
            failures_grew: bool = False) -> dict:
    """Judge one (metric, workload) row; parent[i] and change[i] form pair i."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    iqr = pq3 - pq1
    spread = iqr / abs(pmed) if pmed else float("inf")
    worse_by = sign * (pmed - cmed) / abs(pmed) if pmed else 0.0
    separated = all(sign * (c - p) > 0 for p in parent for c in change)

    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and abs(cmed - pmed) > iqr
        and sign * (cmed - pmed) > 0
        and not failures_grew
    ):
        word = "gain"
    elif bound is not None and spread > bound and not separated:
        word = "unresolved"
    elif bound is not None and worse_by > bound:
        word = "regression"
    else:
        word = "no change"
    return {
        "parent": [pq1, pmed, pq3],
        "change": [cq1, cmed, cq3],
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "spread": spread,
        "verdict": word,
    }


def report(records: list[dict], spec: dict[str, dict]) -> list[dict]:
    """One row per (metric, workload) from pair records."""
    by_key: dict[tuple[str, int], dict[str, dict]] = {}
    for rec in records:
        by_key.setdefault((rec["workload"], rec["pair"]), {})[rec["side"]] = rec["result"]
    rows = []
    workloads = sorted({w for w, _ in by_key})
    for workload in workloads:
        pairs = [
            sides for (w, _), sides in sorted(by_key.items())
            if w == workload and {"parent", "change"} <= sides.keys()
        ]
        if not pairs:
            continue
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
        names = [n for n in pairs[0]["parent"]["metrics"] if n in spec]
        for name in names:
            entry = spec[name]
            row = verdict(
                [p["parent"]["metrics"][name]["value"] for p in pairs],
                [p["change"]["metrics"][name]["value"] for p in pairs],
                entry["better"],
                entry.get("bound"),
                failed["change"] > failed["parent"],
            )
            rows.append({"workload": workload, "metric": name, "unit": entry["unit"], **row})
    return rows


def format_rows(rows: list[dict]) -> str:
    head = (f"{'workload':<16} {'metric':<42} {'parent median [q1, q3]':<34} "
            f"{'change median [q1, q3]':<34} {'won':>4} {'lost':>4}  verdict")
    lines = [head, "-" * len(head)]
    for r in rows:
        p, c = r["parent"], r["change"]
        lines.append(
            f"{r['workload']:<16} {r['metric'] + ' (' + r['unit'] + ')':<42} "
            f"{f'{p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}]':<34} "
            f"{f'{c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]':<34} "
            f"{r['wins']:>4} {r['losses']:>4}  {r['verdict']}"
        )
    return "\n".join(lines)


def _run_one(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: benchmark printed nothing: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def collect(parent: Path, change: Path, workloads: list[str], pairs: int, seconds: int,
            trace: int, out: Path) -> list[dict]:
    records = []
    with out.open("a") as fh:
        for i in range(pairs):
            seed = FIRST_SEED + i
            order = [("parent", parent), ("change", change)]
            if i % 2:
                order.reverse()
            for workload in workloads:
                for side, checkout in order:
                    rec = {"pair": i, "seed": seed, "workload": workload, "side": side,
                           "result": _run_one(checkout, workload, seed, seconds, trace)}
                    records.append(rec)
                    fh.write(json.dumps(rec) + "\n")
                    fh.flush()
                    print(f"pair {i} {workload} {side} done", file=sys.stderr)
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="collect alternating pairs, then report")
    run.add_argument("parent", type=Path)
    run.add_argument("change", type=Path)
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--workload", action="append", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report", help="report on collected pairs")
    rep.add_argument("pairs_file", type=Path)
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.cmd == "run":
        records = collect(args.parent.resolve(), args.change.resolve(), args.workload,
                          args.pairs, spec["run_seconds"], args.trace, args.out)
    else:
        records = [json.loads(line) for line in args.pairs_file.read_text().splitlines() if line]
    rows = report(records, metric_specs(spec))
    print(format_rows(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
