"""Benchmark of braidchar from cold caches: census, decomposition and CLI.

    python3 perfbench/run.py --workload census-large --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Every sample is a fresh interpreter (``worker.py``), so every ``cache`` and
``lru_cache`` table starts empty, as for a user running one command.  One
caller drives the work as a closed loop: one sample at a time, one
operation at a time, and the census runs with the library's default
``workers=None``.

``--trace 0`` runs set-up probes, then samples until ``--seconds`` would be
exceeded (at least one), and reports the end-to-end metrics as medians
over the samples.  The gated time is ``wall_norm``: each operation's time
divided by the time of a fixed speed probe run just before and after it
(see ``worker.speed_probe``), summed over the sample, because the
machine's own speed drifts by more than any useful bound.  ``setup_s`` is
normalised too: each set-up probe's time is divided by that of a reference
interpreter spawned right after it, which imports braidchar's third-party
dependencies and nothing else (``REFERENCE_IMPORT``), and scaled to
seconds by ``REFERENCE_SPAWN_S``.  The raw medians ``wall_s``,
``setup_raw_s`` and ``setup_ref_s`` go to the record.  ``--trace 1`` runs
one untraced and one traced sample and reports the per-layer metrics of
the traced one; it also writes the spans to ``.perfbench_out/``.
``--smoke`` shrinks every workload to tiny inputs.  The last line of output
is the result object; the line before it holds the provenance and the raw
medians.  A failed output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
# Set-up is mostly process start and numpy's import, which slow down less
# than pure Python does when the machine is busy, so the speed probe does
# not cancel its drift; a spawn doing the same kind of work does.
REFERENCE_IMPORT = "import numpy, click"
# Median time of the reference spawn on the 2-vCPU Xeon VM the baseline was
# measured on (60 spawns): setup_s reads as seconds on that machine.
REFERENCE_SPAWN_S = 0.244
SAMPLE_TIMEOUT_S = 170


class SampleError(RuntimeError):
    """A worker crashed, timed out or printed no result."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict) -> dict:
    """Run one worker; adds setup_s (spawn to ready) and duration_s."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SampleError(f"sample exceeded {SAMPLE_TIMEOUT_S}s: {spec}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(
            f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["duration_s"] = time.monotonic() - start
    return result


def reference_spawn() -> float:
    """Seconds from spawn to exit of an interpreter running REFERENCE_IMPORT."""
    start = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], cwd=ROOT, env=_env(),
                       capture_output=True, check=True, timeout=SAMPLE_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise SampleError(f"reference spawn failed: {exc}") from None
    return time.monotonic() - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout; None outside a git work tree or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package sources, naming the code measured without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "braidchar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, trace: bool, size: str) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "workload": workload,
        "workloads": list(WORKLOADS),
        "trace": trace,
        "size": size,
    }


def measure(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, list[dict]]:
    """Untraced run: set-up probes, then samples for the given time."""
    base = {"workload": workload, "seed": seed, "size": size, "trace": False}
    setups = [(spawn({**base, "mode": "setup"})["setup_s"], reference_spawn())
              for _ in range(SETUP_PROBES)]
    samples: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        samples.append(spawn({**base, "mode": "sample"}))
        longest = max(s["duration_s"] for s in samples)
        if time.monotonic() + longest > deadline:
            break
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    metrics = {
        "wall_norm": statistics.median(s["wall_norm"] for s in samples),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": REFERENCE_SPAWN_S * statistics.median(s / ref for s, ref in setups),
        "setup_raw_s": statistics.median(s for s, _ in setups),
        "setup_ref_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "success_rate": (attempted - failed) / attempted,
    }
    return metrics, samples


def measure_traced(workload: str, seed: int, size: str) -> tuple[dict, list[dict]]:
    """Traced run: one untraced sample for the overhead, one traced sample."""
    OUT_DIR.mkdir(exist_ok=True)
    base = {"workload": workload, "seed": seed, "size": size, "mode": "sample"}
    plain = spawn({**base, "trace": False})
    span_file = OUT_DIR / f"{_stem(workload, seed, True, size)}.spans.jsonl.gz"
    traced = spawn({**base, "trace": True, "span_file": str(span_file)})
    metrics = dict(traced["layers"])
    # in probe units, so the machine's drift between the two samples cancels;
    # converted to seconds at the traced sample's own speed
    metrics["trace.overhead_s"] = (traced["wall_norm"] - plain["wall_norm"]) * statistics.mean(
        traced["probes"]
    )
    return metrics, [plain, traced]


def _stem(workload: str, seed: int, trace: bool, size: str) -> str:
    prefix = "smoke-" if size == "smoke" else ""
    return f"{prefix}{workload}-seed{seed}-trace{int(trace)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "braidchar" / "__init__.py").is_file():
        print(f"no braidchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    trace = bool(args.trace)
    try:
        if trace:
            metrics, samples = measure_traced(args.workload, args.seed, size)
        else:
            metrics, samples = measure(args.workload, args.seed, args.seconds, size)
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC_PATH.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {"provenance": provenance(args.workload, args.seed, trace, size)}
    if not trace:
        info["wall_s"] = metrics["wall_s"]
        info["setup_raw_s"] = metrics["setup_raw_s"]
        info["setup_ref_s"] = metrics["setup_ref_s"]
    OUT_DIR.mkdir(exist_ok=True)
    record = {**info, "result": result, "samples": samples}
    (OUT_DIR / f"{_stem(args.workload, args.seed, trace, size)}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
