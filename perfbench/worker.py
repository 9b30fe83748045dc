"""One benchmark sample, in a fresh interpreter so every library cache is cold.

    python3 perfbench/worker.py '{"workload": "cli-small", "seed": 1, ...}'

Set-up (importing ``braidchar`` and ``braidchar.cli`` and building the
inputs) ends at the ``ready`` timestamp; the parent subtracts its own spawn
timestamp from it, both on the monotonic clock, to get ``setup_s``.  The
sample then times the workload, checks every output outside the timed
region and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

PROBE_EVERY_S = 0.2


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, inclusive of one sample)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def speed_probe() -> float:
    """Seconds taken by fixed pure-Python work the library never touches.

    The machines this runs on change speed by up to 2x for tens of seconds
    at a time, as other tenants come and go.  Dividing each op's time by
    the probe times taken just before and after it cancels most of that.
    The collector is off during the probe so the library's heap cannot
    slow it.
    """
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        table: dict[int, int] = {}
        for _ in range(8):
            x = Fraction(0)
            for i in range(1, 600):
                x += Fraction(i % 7, i)
                table[i % 97] = table.get(i % 97, 0) + i * i
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def _timed_pass(ops, run) -> tuple[float, float, list[float]]:
    """Run every op once, with speed probes between ops at least PROBE_EVERY_S apart.

    Each op records the index of the last probe before it; the next probe
    is the first one after it.  Returns (start on perf_counter, wall
    seconds without the probes, probes).
    """
    clock = time.perf_counter
    probes = [speed_probe()]
    start = last = clock()
    probing = 0.0
    for op in ops:
        op.probe = len(probes) - 1
        t = clock()
        try:
            op.output = run(op)
        except Exception as exc:  # the op failed; counted by the checks
            op.error = f"raised {exc!r}"
        op.seconds = clock() - t
        if clock() - last >= PROBE_EVERY_S:
            t = clock()
            probes.append(speed_probe())
            last = clock()
            probing += last - t
    wall = clock() - start - probing
    probes.append(speed_probe())
    return start, wall, probes


def normalized_wall(ops, probes: list[float]) -> float:
    """Sum over ops of op seconds / mean time of the two probes around the op."""
    return sum(op.seconds / (0.5 * (probes[op.probe] + probes[op.probe + 1])) for op in ops)


def layer_metrics(tracer, wall: float, warm_seconds: dict, cycle_hits: int,
                  wrapper_cost: tuple[float, float, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md for each name)."""
    import tracing
    import workloads

    self_s = tracer.self_times(wrapper_cost)

    def layer(key: str) -> float:
        module, functions = tracing.LAYERS[key]
        return sum(self_s.get(f"{module}.{fn}", 0.0) for fn in functions)

    spans_of = tracer.spans_named

    def dur(sid: int) -> float:
        return tracer.end[sid] - tracer.start[sid]

    # cold census time per distinct cell: its first factor_type_census call
    cold: dict[tuple[int, int], float] = {}
    for sid in spans_of("fforacle.factor_type_census"):
        args, _ = tracer.call_args[sid]
        cold.setdefault((args[0], args[1]), dur(sid))
    cands = sum(p**n for p, n in cold)
    cold_total = sum(cold.values())
    metrics = {
        "fforacle.census.self_s": layer("fforacle.census"),
        "fforacle.table_s": sum(cold[c] - warm_seconds[c] for c in cold),
        "fforacle.cands_per_s": cands / cold_total if cold_total else 0.0,
    }
    for p, n in workloads.CENSUS_CELLS["full"]:
        metrics[f"fforacle.cands_per_s.p{p}n{n}"] = (
            p**n / cold[(p, n)] if (p, n) in cold else 0.0
        )

    cycle_calls = len(spans_of("ratpoly.cycle_polynomial"))
    cli_spans = [dur(sid) for sid in spans_of(tracing.CLI_SPAN)]
    checks = sum(len(r.checks) for r in tracer.results.values())
    metrics.update(
        {
            "fforacle.compare.self_s": layer("fforacle.compare"),
            "specht.irreducible_character.self_s": layer("specht.irreducible_character"),
            "specht.irreducible_character_value.calls": tracer.counts[
                "specht.irreducible_character_value"
            ],
            "specht.decompose.self_s": layer("specht.decompose"),
            "characters.inner_product.self_s": layer("characters.inner_product"),
            "characters.inner_product.calls": len(spans_of("characters.inner_product")),
            "characters.self_s": layer("characters"),
            "ratpoly.self_s": layer("ratpoly"),
            "ratpoly.cycle_polynomial.hit_ratio": cycle_hits / cycle_calls if cycle_calls else 0.0,
            "measures.self_s": layer("measures"),
            "partitions.self_s": layer("partitions"),
            "partitions.class_data.calls": len(spans_of("partitions.class_data")),
            "partitions.check_partition.calls": len(spans_of("partitions.check_partition")),
            "verify.self_s": layer("verify"),
            "verify.checks": checks,
            "tables.self_s": layer("tables"),
            "cli.self_s": self_s.get(tracing.CLI_SPAN, 0.0),
            "cli.cmd_p50_s": _quantile(cli_spans, 50),
            "cli.cmd_p95_s": _quantile(cli_spans, 95),
            "cli.cmds": len(cli_spans),
            "trace.unattributed_s": wall - tracer.top_level_cover(),
        }
    )
    return metrics


def _cache_hits(fn) -> int:
    info = getattr(fn, "cache_info", None)
    return info().hits if info else 0


def main(spec: dict) -> dict:
    import braidchar
    import braidchar.cli  # noqa: F401  (part of set-up: a CLI user pays for it)
    import workloads

    if not Path(braidchar.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported braidchar from {braidchar.__file__}, not {ROOT / 'src'}")
    ops = workloads.build(spec["workload"], spec["seed"], spec["size"])
    ready = time.monotonic()
    if spec["mode"] == "setup":
        return {"ready": ready}

    tracer = None
    invoke = workloads.invoke_cli
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        invoke = tracer.wrap(tracing.CLI_SPAN, invoke)
        cycle_fn = tracer.originals["ratpoly.cycle_polynomial"]
        hits_before = _cache_hits(cycle_fn)
    origin, wall, probes = _timed_pass(ops, workloads.runner(invoke))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ready": ready,
        "wall_s": wall,
        "wall_norm": normalized_wall(ops, probes),
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        cycle_hits = _cache_hits(cycle_fn) - hits_before
        # warm repeat of every census cell: the cold-minus-warm gap is the
        # time spent building factor tables and other per-cell caches
        warm = {}
        for sid in tracer.spans_named("fforacle.factor_type_census"):
            p, n = tracer.call_args[sid][0][:2]
            if (p, n) not in warm:
                t = time.perf_counter()
                braidchar.factor_type_census(p, n)
                warm[(p, n)] = time.perf_counter() - t
        cost = tracing.Tracer.wrapper_cost()
        result["wrapper_cost_s"] = cost
        result["layers"] = layer_metrics(tracer, wall, warm, cycle_hits, cost)
        result["spans"] = tracer.write(spec["span_file"], origin)

    failed = workloads.check(ops, workloads.load_golden())
    result.update(
        {
            "attempted": len(ops),
            "failed": failed,
            "failures": [f"{op.label}: {'; '.join(op.problems)}" for op in ops if op.problems],
            "op_seconds": [[op.label, op.seconds] for op in ops],
        }
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
