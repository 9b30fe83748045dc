"""Workload inputs, operations and output checks.

Each workload is a list of operations built from the seed alone.  The timed
loop runs every operation once and keeps what it returned; ``check`` then
examines those outputs outside the timed region, so a failed check costs
nothing in ``wall_s``.  Library functions are looked up on their modules
at call time, so a traced run sees every call.

Why each workload exists:

* ``census-large`` -- the largest cell per prime of ``verify``'s p^n <= 10^6
  grid.  The numpy census engine in ``fforacle`` does nearly all the work.
* ``decompose-tower`` -- ``decompose`` of h_n^k and chi_n^k for n = 14..17,
  k = 1..3.  The Murnaghan-Nakayama table in ``specht`` and the rational
  inner products in ``characters`` do the work; ``fforacle`` does none.
* ``cli-small`` -- a few hundred short ``braidchar`` commands at small n.
  The cost is per call (parsing, caches, rendering), and it is the only
  workload that runs ``cli``, ``tables`` and ``verify``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("census-large", "decompose-tower", "cli-small")

GOLDEN_PATH = Path(__file__).with_name("golden.json")

FORMATS = ("text", "csv", "json")
CENSUS_CELLS = {"full": ((2, 19), (3, 12), (5, 8), (7, 7)), "smoke": ((2, 6), (3, 4))}
TOWER = {
    "full": ((14, 15, 16, 17), (1, 2, 3)),
    "smoke": ((7, 8), (1, 2, 3)),
}
CLI_N = {"full": range(4, 13), "smoke": (4,)}
ORACLE_PRIMES = (2, 3, 5, 7, 11, 13)
ORACLE_LIMIT = {"full": 2 * 10**4, "smoke": 10}
VERIFY_SUITES = ("tables", "identities", "support", "regular-rep", "stability")
TABLE_NAMES = ("measures", "betti", "a-dims", "h1-decomp", "a2-decomp")
DECOMP_TABLE_MAX_N = 9


@dataclass
class Op:
    """One operation: a census cell, a decomposition or a CLI command."""

    kind: str
    args: tuple
    seeded: bool = False
    output: object = None
    error: str | None = None
    seconds: float = 0.0
    probe: int = 0  # index of the last speed probe taken before this op
    problems: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        if self.kind == "cli":
            return "braidchar " + " ".join(self.args)
        return f"{self.kind}{self.args}"


# --- inputs -----------------------------------------------------------------


def _random_z(rng: random.Random) -> Fraction:
    while True:
        z = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        if z not in (0, 1):
            return z


def _random_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    parts = []
    left = n
    while left:
        part = rng.randint(1, left)
        parts.append(part)
        left -= part
    return tuple(sorted(parts, reverse=True))


def cli_commands(size: str, rng: random.Random | None) -> list[tuple[tuple[str, ...], bool]]:
    """(argv, seeded) for every cli-small command; seeded ones need rng."""
    cmds: list[tuple[tuple[str, ...], bool]] = []
    for n in CLI_N[size]:
        name = TABLE_NAMES[n % len(TABLE_NAMES)]
        table_n = min(n, DECOMP_TABLE_MAX_N) if name.endswith("decomp") else n
        table_flag = "--n" if name == "measures" else "--max-n"
        for fmt in FORMATS:
            tail = ("--format", fmt)
            cmds += [
                (("measure", "--n", str(n)) + tail, False),
                (("hchar", "--n", str(n)) + tail, False),
                (("achar", "--n", str(n)) + tail, False),
                (("decompose", "--n", str(n), "--k", "2", "--which", "a") + tail, False),
                (("decompose", "--n", str(n), "--which", "b", "--m", "1") + tail, False),
                (("table", name, table_flag, str(table_n)) + tail, False),
            ]
            if rng is not None:
                z = str(_random_z(rng))
                lam = ",".join(map(str, _random_partition(rng, n)))
                cmds += [
                    (("measure", "--n", str(n), "--z", z) + tail, True),
                    (("cycle-poly", "--lambda", lam, "--z", z) + tail, True),
                ]
    for p in ORACLE_PRIMES:
        n = 1
        while p**n <= ORACLE_LIMIT[size]:
            cmds.append((("oracle", "--p", str(p), "--n", str(n), "--format", "json"), False))
            n += 1
    for suite in VERIFY_SUITES:
        cap = ("--max-n", "5") if size == "smoke" else ()
        cmds.append((("verify", suite) + cap + ("--format", "json"), False))
    return cmds


def build(workload: str, seed: int, size: str = "full") -> list[Op]:
    """The workload's operations, in the order the seed gives them."""
    rng = random.Random(seed)
    if workload == "census-large":
        ops = [Op("census", cell) for cell in CENSUS_CELLS[size]]
    elif workload == "decompose-tower":
        ns, ks = TOWER[size]
        ops = [Op(kind, (n, k)) for n in ns for k in ks for kind in ("h", "a")]
    elif workload == "cli-small":
        ops = [Op("cli", argv, seeded) for argv, seeded in cli_commands(size, rng)]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(ops)
    return ops


# --- operations -------------------------------------------------------------


def invoke_cli(argv: tuple[str, ...]) -> tuple[int, str]:
    """Run ``braidchar <argv>`` in this process; returns (exit code, stdout)."""
    from braidchar import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(argv), prog_name="braidchar")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue()


def runner(invoke):
    """Callable running one Op and returning its output; invoke runs CLI ops."""
    import braidchar

    def run(op: Op):
        if op.kind == "census":
            return braidchar.census_vs_theory(*op.args)
        if op.kind == "cli":
            return invoke(op.args)
        n, k = op.args
        fn = braidchar.braid_character if op.kind == "h" else braidchar.a_character
        return braidchar.decompose(fn(n, k))

    return run


# --- checks -----------------------------------------------------------------


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def output_digest(argv: tuple[str, ...], stdout: str) -> str:
    """sha256 of the command's stdout; verify's timing field is left out."""
    data = stdout
    if argv[0] == "verify":
        data = re.sub(r'\n  "elapsed": [^\n]*', "", data)
    return hashlib.sha256(data.encode()).hexdigest()


def _check_census(op: Op) -> list[str]:
    p, n = op.args
    report = op.output
    problems = []
    if not report.all_ok:
        problems.append("census disagrees with theory")
    if report.total_squarefree != p**n - p ** (n - 1):
        problems.append(
            f"square-free total {report.total_squarefree} != {p**n - p ** (n - 1)}"
        )
    return problems


def _expected_decomposition(kind: str, n: int, k: int) -> dict | None:
    """Multiplicities from the closed formulas in ``reference``, for k <= 2."""
    from braidchar import reference

    if kind == "h" and k == 1:
        return reference.h1_decomposition(n)
    if kind == "h" and k == 2:
        out = dict(reference.a1_decomposition(n))
        for mu, m in reference.a2_decomposition(n).items():
            out[mu] = out.get(mu, 0) + m
        return out
    if kind == "a" and k == 1:
        return reference.a1_decomposition(n)
    if kind == "a" and k == 2:
        return reference.a2_decomposition(n)
    return None


def _check_decomposition(op: Op) -> list[str]:
    import braidchar

    n, k = op.args
    dec = op.output
    f = (braidchar.braid_character if op.kind == "h" else braidchar.a_character)(n, k)
    problems = []
    expected = _expected_decomposition(op.kind, n, k)
    if expected is not None and dec.as_dict() != expected:
        problems.append(f"multiplicities {dec.as_dict()} != reference {expected}")
    if dec.dimension != f.dimension:
        problems.append(f"dimension {dec.dimension} != character degree {f.dimension}")
    if dec.as_class_function() != f:
        problems.append("terms do not rebuild the character")
    return problems


def _measure_values(fmt: str, stdout: str) -> list[Fraction]:
    if fmt == "json":
        return [Fraction(r["value"]) for r in json.loads(stdout)["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return [Fraction(r[-1]) for r in rows[1:]]
    lines = stdout.splitlines()[2:]  # header and rule
    return [Fraction(line.split()[-1]) for line in lines]


def _cycle_poly_value(fmt: str, stdout: str, z: Fraction) -> Fraction:
    """The printed value, after checking it against the printed coefficients."""
    if fmt == "json":
        payload = json.loads(stdout)
        coeffs = [Fraction(c) for c in payload["coefficients"]]
        value = Fraction(payload["value"])
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        coeffs = [Fraction(r[1]) for r in rows[1:] if r[0] != "value"]
        value = Fraction(rows[-1][1])
    else:
        return Fraction(stdout.splitlines()[-1].rsplit(": ", 1)[1])
    if sum(c * z**i for i, c in enumerate(coeffs)) != value:
        raise ValueError(f"value {value} is not the printed polynomial at z = {z}")
    return value


def _check_cli(op: Op, golden: dict[str, str], cycle_values: dict) -> list[str]:
    argv = op.args
    code, stdout = op.output
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    fmt = argv[argv.index("--format") + 1]
    if not op.seeded:
        want = golden.get(" ".join(argv))
        if want is None:
            problems.append("no recorded digest")
        elif output_digest(argv, stdout) != want:
            problems.append("output differs from the recorded digest")
    if argv[0] == "verify" and json.loads(stdout)["passed"] is not True:
        problems.append("verify reported failures")
    if argv[0] == "oracle" and json.loads(stdout)["ok"] is not True:
        problems.append("census reported a mismatch")
    if argv[0] == "measure" and "--z" in argv:
        total = sum(_measure_values(fmt, stdout))
        if total != 1:
            problems.append(f"class measures sum to {total}, not 1")
    if argv[0] == "cycle-poly":
        z = Fraction(argv[argv.index("--z") + 1])
        value = _cycle_poly_value(fmt, stdout, z)
        key = (argv[argv.index("--lambda") + 1], z)
        if cycle_values.setdefault(key, value) != value:
            problems.append(f"value {value} disagrees with another format")
    return problems


def check(ops: list[Op], golden: dict[str, str]) -> int:
    """Check every operation's output; returns the number that failed."""
    cycle_values: dict = {}
    failed = 0
    for op in ops:
        if op.error is None:
            try:
                if op.kind == "census":
                    op.problems = _check_census(op)
                elif op.kind == "cli":
                    op.problems = _check_cli(op, golden, cycle_values)
                else:
                    op.problems = _check_decomposition(op)
            except Exception as exc:  # a malformed output is a failed check
                op.problems = [f"check raised {exc!r}"]
        else:
            op.problems = [op.error]
        failed += bool(op.problems)
    return failed
