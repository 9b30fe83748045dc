"""Table emitters and the command-line interface."""

import csv
import dataclasses
import io
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from braidchar import __version__, fforacle, reference
from braidchar.cli import main
from braidchar.partitions import parse_partition
from braidchar.tables import (
    COMMAND_LIMITS,
    FORMATS,
    M_LIMIT_EXPONENT,
    TABLE_LIMITS,
    TABLE_NAMES,
    Z_BITS_LIMIT,
    emit_table,
    render,
)


def run_cli(*args):
    return CliRunner().invoke(main, args)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# emitters


def test_measures_table_matches_reference():
    for n in (4, 5):
        header, rows = parse_csv(emit_table("measures", n, "csv"))
        expected = {
            lam: (size, zl, scaled)
            for lam, size, zl, scaled in reference.MEASURE_ROWS[n]
        }
        assert len(rows) == len(expected)
        for row in rows:
            lam = parse_partition(row[0])
            size, zl, scaled = expected[lam]
            assert int(row[1]) == size
            assert int(row[2]) == zl
            alphas = row[3:]
            assert len(alphas) == len(scaled)
            for text, s in zip(alphas, scaled):
                assert Fraction(text) == Fraction(s, zl)


def test_triangle_tables_match_reference():
    betti = json.loads(emit_table("betti", 9, "json"))
    for row in betti["rows"]:
        n = row["n"]
        assert row["values"] == list(reference.BETTI_TRIANGLE[n][:n])
    adims = json.loads(emit_table("a-dims", 9, "json"))
    for row in adims["rows"]:
        n = row["n"]
        assert row["values"] == list(reference.A_DIM_TRIANGLE[n][:n])


def test_decomp_tables_match_reference():
    h1 = json.loads(emit_table("h1-decomp", 9, "json"))
    for row in h1["rows"]:
        n = row["n"]
        got_h = {
            parse_partition(t["partition"]): t["multiplicity"]
            for t in row["h1"]["terms"]
        }
        got_a = {
            parse_partition(t["partition"]): t["multiplicity"]
            for t in row["a1"]["terms"]
        }
        assert got_h == reference.h1_decomposition(n)
        assert got_a == reference.a1_decomposition(n)
    a2 = json.loads(emit_table("a2-decomp", 9, "json"))
    for row in a2["rows"]:
        got = {
            parse_partition(t["partition"]): t["multiplicity"] for t in row["terms"]
        }
        assert got == reference.a2_decomposition(row["n"])


def test_all_emitters_render_all_formats():
    for name in TABLE_NAMES:
        for fmt in FORMATS:
            text = emit_table(name, None, fmt)
            assert text.endswith("\n")
            assert len(text) > 10


def test_emitter_range_errors():
    with pytest.raises(ValueError):
        emit_table("measures", 13)
    with pytest.raises(ValueError):
        emit_table("betti", 0)
    with pytest.raises(ValueError):
        emit_table("a2-decomp", 2)
    with pytest.raises(ValueError):
        emit_table("nonesuch", 4)
    with pytest.raises(ValueError):
        emit_table("betti", 5, "yaml")


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        {"rows": [], "terms": {}, "nested": [[], [{}], {"a": []}]},
        ["Möbius μ(d) — ∑", "tab\tquote\"slash\\", "\u0000\x7f"],
        [True, False, None, {"flag": True, "none": None}],
        [2**64, -(3**100), 0, -1, 10**400],
        (1, (2, [3, (4,)])),
        {"elapsed": 0.1 + 0.2, "tiny": 5e-324, "huge": 1.7976931348623157e308, "zero": -0.0},
    ],
)
def test_json_render_is_the_bytes_of_json_dumps(payload):
    assert render("json", [], [], payload) == json.dumps(payload, indent=2) + "\n"


def test_json_verify_output_is_the_bytes_of_json_dumps():
    # the one float the commands write, verify's elapsed, read back and re-dumped
    result = run_cli("verify", "stability", "--format", "json")
    payload = json.loads(result.output)
    assert isinstance(payload["elapsed"], float)
    assert result.output == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("payload", [{"value": Fraction(1, 3)}, [{1, 2}], {1: "int key"}])
def test_json_render_refuses_a_type_the_payloads_never_hold(payload):
    with pytest.raises(TypeError):
        render("json", [], [], payload)


def test_text_format_has_header_note():
    text = emit_table("measures", 4, "text")
    assert text.startswith("#")
    assert "reverse-lex" in text


# ---------------------------------------------------------------------------
# CLI


def test_cli_measure_json():
    res = run_cli("measure", "--n", "4", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["n"] == 4
    assert data["order"] == "reverse-lex"
    rows = {r["partition"]: r for r in data["rows"]}
    assert rows["1,1,1,1"]["alpha"] == ["1/24", "-5/24", "1/4", "0"]
    assert rows["2,1,1"]["class_size"] == 6
    assert rows["2,1,1"]["centralizer_order"] == 4


def test_cli_measure_evaluation():
    res = run_cli("measure", "--n", "5", "--z", "-1", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    values = {r["partition"]: r["value"] for r in data["rows"]}
    assert values["1,1,1,1,1"] == "1/2"
    assert values["2,1,1,1"] == "1/2"
    assert values["5"] == 0


def test_cli_measure_per_element():
    res = run_cli(
        "measure", "--n", "5", "--z", "-1", "--per-element", "--format", "json"
    )
    data = json.loads(res.output)
    values = {r["partition"]: r["value"] for r in data["rows"]}
    assert values["2,1,1,1"] == "1/20"


def test_cli_cycle_poly():
    res = run_cli("cycle-poly", "--lambda", "2,1,1", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["coefficients"] == ["0", "0", "1/4", "-1/2", "1/4"]
    assert data["degree"] == 4
    res = run_cli("cycle-poly", "--lambda", "2,1,1", "--z", "7")
    assert res.exit_code == 0
    assert "441" in res.output


@pytest.mark.parametrize(
    "fmt, output",
    [
        ("text", "N(-) = 1\nvalue at z = 3: 1\n"),
        ("csv", "power,coefficient\n0,1\nvalue,1\n"),
        (
            "json",
            '{\n  "partition": "",\n  "n": 0,\n  "degree": 0,\n'
            '  "coefficients": [\n    "1"\n  ],\n  "z": "3",\n  "value": 1\n}\n',
        ),
    ],
)
def test_cli_cycle_poly_of_the_empty_partition(fmt, output):
    # N of the empty partition is the constant 1, the only cycle polynomial
    # with a nonzero constant term, so the only one that prints a constant
    res = run_cli("cycle-poly", "--lambda", "", "--z", "3", "--format", fmt)
    assert res.exit_code == 0
    assert res.output == output


def test_cli_hchar_csv():
    res = run_cli("hchar", "--n", "4", "--format", "csv")
    assert res.exit_code == 0
    header, rows = parse_csv(res.output)
    assert header == ["partition", "k=0", "k=1", "k=2", "k=3"]
    table = {row[0]: [int(v) for v in row[1:]] for row in rows}
    assert table["1,1,1,1"] == [1, 6, 11, 6]
    assert table["2,2"] == [1, 2, -1, -2]


def test_cli_achar_json_schema():
    res = run_cli("achar", "--n", "5", "--format", "json")
    data = json.loads(res.output)
    assert data["kind"] == "chi"
    assert data["n"] == 5
    assert data["ks"] == [0, 1, 2, 3, 4]
    identity = next(r for r in data["rows"] if r["partition"] == "1,1,1,1,1")
    assert identity["values"] == [1, 9, 26, 24, 0]


def test_cli_decompose_h():
    res = run_cli(
        "decompose", "--n", "4", "--k", "1", "--which", "h", "--format", "json"
    )
    data = json.loads(res.output)
    assert data == {
        "n": 4,
        "k": 1,
        "m": None,
        "which": "h",
        "terms": [
            {"partition": "4", "multiplicity": 1},
            {"partition": "3,1", "multiplicity": 1},
            {"partition": "2,2", "multiplicity": 1},
        ],
        "dimension": 6,
    }


def test_cli_decompose_b_variants():
    res = run_cli("decompose", "--n", "4", "--which", "b", "--m", "1", "--format", "json")
    data = json.loads(res.output)
    assert data["dimension"] == 12
    assert data["k"] is None and data["m"] == 1
    res = run_cli("decompose", "--n", "4", "--which", "b-diff", "--m", "1")
    assert res.exit_code == 0
    assert "[4] - [2,2] + [2,1,1]" in res.output


def test_cli_oracle_json():
    res = run_cli("oracle", "--p", "2", "--n", "3", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["ok"] is True
    assert data["total"] == 4
    assert data["expected_total"] == 4
    rows = {r["partition"]: r for r in data["rows"]}
    assert rows["3"]["count"] == 2 and rows["3"]["theory"] == 2
    assert rows["1,1,1"]["count"] == 0


def test_cli_oracle_prime_above_int8():
    res = run_cli("oracle", "--p", "131", "--n", "2", "--format", "json")
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["ok"] is True


def test_cli_oracle_mismatch_exits_one(monkeypatch):
    census = fforacle.factor_type_census

    def off_by_one(p, n, **kwargs):
        tally = census(p, n, **kwargs)
        counts = {**tally.counts, (3,): tally.counts[(3,)] + 1}
        return dataclasses.replace(tally, counts=counts)

    monkeypatch.setattr(fforacle, "factor_type_census", off_by_one)
    res = run_cli("oracle", "--p", "2", "--n", "3")
    assert res.exit_code == 1
    assert "census MISMATCH" in res.output
    res = run_cli("oracle", "--p", "2", "--n", "3", "--format", "json")
    assert res.exit_code == 1
    data = json.loads(res.output)
    assert data["ok"] is False
    rows = {r["partition"]: r for r in data["rows"]}
    assert rows["3"]["count"] == 3 and rows["3"]["ok"] is False


def test_cli_table_matches_library():
    res = run_cli("table", "betti", "--max-n", "6", "--format", "csv")
    assert res.exit_code == 0
    assert res.output == emit_table("betti", 6, "csv")


def test_cli_verify_pass():
    res = run_cli("verify", "stability")
    assert res.exit_code == 0
    assert "PASS" in res.output
    assert "FAIL" not in res.output


def test_cli_verify_json():
    res = run_cli("verify", "support", "--max-n", "8", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["suite"] == "support"
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


@pytest.mark.parametrize(
    "args",
    [
        ("measure", "--n", "0"),
        ("measure", "--n", "4", "--z", "0"),
        ("measure", "--n", "4", "--z", "x"),
        ("cycle-poly", "--lambda", "1,2"),
        ("hchar", "--n", "4", "--k", "9"),
        ("achar", "--n", "4", "--k", "4"),
        ("decompose", "--n", "3", "--which", "h"),
        ("decompose", "--n", "3", "--which", "b"),
        ("decompose", "--n", "1", "--which", "b", "--m", "1"),
        ("decompose", "--n", "4", "--which", "b", "--m", "0"),
        ("hchar", "--n", "4", "--k", "-1"),
        ("oracle", "--p", "4", "--n", "2"),
        ("oracle", "--p", "2", "--n", "40"),
        ("table", "measures", "--n", "13"),
        ("table", "a2-decomp", "--max-n", "2"),
        ("verify", "tables", "--max-n", "0"),
        ("measure", "--n", "4", "--per-element"),
        ("table", "measures", "--max-n", "6"),
        ("table", "betti", "--n", "3", "--max-n", "5"),
        ("decompose", "--n", "4", "--which", "b", "--m", "1", "--k", "3"),
        ("decompose", "--n", "4", "--which", "h", "--k", "1", "--m", "5"),
        ("measure", "--n", str(COMMAND_LIMITS["measure"] + 1)),
        ("hchar", "--n", str(COMMAND_LIMITS["hchar"] + 1)),
        ("achar", "--n", str(COMMAND_LIMITS["achar"] + 1), "--k", "1"),
        ("decompose", "--n", str(COMMAND_LIMITS["decompose"] + 1), "--k", "1"),
        ("cycle-poly", "--lambda", str(COMMAND_LIMITS["cycle-poly"] + 1)),
        *(("decompose", "--n", str(COMMAND_LIMITS["decompose"]), "--which", which,
           "--m", str(10**M_LIMIT_EXPONENT + 1))
          for which in ("b", "b-plus", "b-minus", "b-diff")),
        ("decompose", "--n", str(COMMAND_LIMITS["decompose"]), "--which", "b",
         "--m", str(10**3000)),
        ("oracle", "--p", "2305843009213693951", "--n", "1"),
        # a product of the primes 2^30 + 3 and 2^30 + 7, and a number past the
        # bound below which primality is decided, both within budget
        ("oracle", "--p", str(1073741827 * 1073741831), "--n", "1", "--budget", str(2**61)),
        ("oracle", "--p", "3317044064679887385961983", "--n", "1", "--budget", str(10**25)),
        ("oracle", "--p", "3", "--n", "100000000"),
        # a --z that, or whose value, has a part of more than 4300 digits
        ("measure", "--n", "25", "--z", "1/1" + "0" * 200),
        ("cycle-poly", "--lambda", "5,3", "--z", "1" + "0" * 600),
        ("cycle-poly", "--lambda", ",".join(["1"] * 800), "--z", "777777777"),
        ("cycle-poly", "--lambda", "", "--z", "1e5000"),
        # a --z past Z_BITS_LIMIT, refused before it is evaluated
        ("cycle-poly", "--lambda", ",".join(["1"] * 800), "--z", str(2**626 - 1)),
        ("measure", "--n", "25", "--z", "1e1000000"),
        # an exponent so large that parsing alone would run away: 10^(10^9)
        # is a 415 MB integer
        ("measure", "--n", "5", "--z", "1e1000000000"),
        ("cycle-poly", "--lambda", "", "--z", "-2.5E-0001000000000"),
    ],
)
def test_cli_usage_errors_exit_two(args):
    start = time.perf_counter()
    res = run_cli(*args)
    assert res.exit_code == 2, res.output
    assert time.perf_counter() - start < 1, "refusal must come before the work"


def test_cli_oracle_refuses_a_cell_wider_than_a_word():
    res = run_cli("oracle", "--p", "3", "--n", "16", "--budget", "100000000")
    assert res.exit_code == 2
    assert "needs 68 bits" in res.output and "more than the 64 of a word" in res.output


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_oracle_refuses_a_budget_below_one(budget):
    res = run_cli("oracle", "--p", "2", "--n", "3", "--budget", budget)
    assert res.exit_code == 2
    assert f"budget must be at least 1, got {budget}" in res.output


@pytest.mark.parametrize("args", [("oracle", "--p", "2", "--n", "3"), ("verify", "oracle")])
def test_cli_census_takes_no_thread_count(args):
    # the census runs one thread per CPU; no flag chooses another count
    res = run_cli(*args, "--workers", "1")
    assert res.exit_code == 2
    assert "No such option '--workers'" in res.output


def test_cli_version_needs_no_install():
    res = run_cli("--version")
    assert res.exit_code == 0, res.output
    assert res.output == f"braidchar, version {__version__}\n"


def test_cli_size_refusal_names_the_limit():
    limit = COMMAND_LIMITS["measure"]
    res = run_cli("measure", "--n", str(limit + 1))
    assert res.exit_code == 2
    assert f"n <= {limit}" in res.output
    res = run_cli("decompose", "--n", "5", "--which", "b-diff", "--m", str(10**200))
    assert res.exit_code == 2
    assert f"m <= 10^{M_LIMIT_EXPONENT}" in res.output


def test_cli_z_refusal_names_the_limit():
    ones = ",".join(["1"] * COMMAND_LIMITS["cycle-poly"])
    res = run_cli("cycle-poly", "--lambda", ones, "--z", str(2**626 - 1))
    assert res.exit_code == 2
    assert f"degree x bits of --z <= {Z_BITS_LIMIT}" in res.output and "800 x 626" in res.output
    res = run_cli("cycle-poly", "--lambda", ones, "--z", "777777777")
    assert res.exit_code == 2
    assert "the value at z has a part of more than 4300 digits" in res.output
    res = run_cli("measure", "--n", "25", "--z", "1/1" + "0" * 200, "--format", "json")
    assert res.exit_code == 2
    assert re.search(r"the measure of \(.*\) at z has a part of more than 4300 digits", res.output)
    # Fraction also reads surrounding blanks and digit groups
    for z in ("1e1000000000", " 1e+1000000000 ", "1E1_000_000_000", "-2.5e-0_001000000000"):
        res = run_cli("measure", "--n", "5", "--z", z)
        assert res.exit_code == 2
        assert "--z takes exponents of at most 5 digits; got one of 10" in res.output


def test_cli_z_that_prints_is_admitted():
    # a --z whose values print is admitted at the largest sizes: z = 1000
    # for the cycle-poly limit, and a 180-digit denominator for the measure one
    ones = ",".join(["1"] * COMMAND_LIMITS["cycle-poly"])
    res = run_cli("cycle-poly", "--lambda", ones, "--z", "1000")
    assert res.exit_code == 0, res.output
    assert "value at z = 1000: " in res.output
    res = run_cli("measure", "--n", str(COMMAND_LIMITS["measure"]), "--z", "1/" + "3" * 180)
    assert res.exit_code == 0, res.output[-300:]


def test_readme_limits_table_matches_the_code():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| command | largest accepted |", 1)[1].split("\n\n", 1)[0]
    cells = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| `")]
    rows = {first.strip(): second for first, second in cells}
    for command, limit in COMMAND_LIMITS.items():
        (row,) = [second for first, second in rows.items() if f"`{command}`" in first]
        assert re.search(rf"\b{limit}\b", row), (command, limit, row)
    # the table row groups the table names under each limit: "12 (`a`, `b`) or 9 (`c`)"
    documented = {
        name: int(limit)
        for limit, names in re.findall(r"(\d+) \(([^)]*)\)", rows["`table`"])
        for name in re.findall(r"`([^`]+)`", names)
    }
    assert documented == TABLE_LIMITS
    assert rows["`decompose --which b*`"].strip() == f"`--m` up to 10^{M_LIMIT_EXPONENT}"
    z_row = rows["`measure --z`, `cycle-poly --z`"]
    assert re.search(rf"\b{Z_BITS_LIMIT}\b", z_row) and "4300 digits" in z_row
