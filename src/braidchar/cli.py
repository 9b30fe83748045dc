"""Command-line interface.

Every command builds its header, rows and JSON payload once and prints them
through ``tables.render``.  Exit codes: 0 on success, 1 when a verification
fails (a ``verify`` suite check or an ``oracle`` census mismatch), 2 on usage
errors (bad or conflicting flags, out-of-range arguments, refused budgets
and sizes).  The library validates its own arguments and raises ValueError;
``_Command`` turns that into a usage error in one place, so the commands
check only what the library cannot see: flag combinations and size limits,
the weight m of ``decompose --which b*`` among them.  No flag sets the
census's thread count; it runs one thread per CPU.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import click

from . import __version__
from .characters import a_character, b_character, b_character_signed, braid_character
from .fforacle import DEFAULT_BUDGET, census_vs_theory
from .partitions import format_partition, parse_partition, partitions
from .ratpoly import cycle_polynomial
from .specht import decompose
from .tables import (
    COMMAND_LIMITS, FORMATS, M_LIMIT_EXPONENT, TABLE_NAMES, emit_table, json_number,
    measures_table, render, terms_json,
)
from .verify import SUITE_NAMES, VerifyLimits, run_suite


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"expected a rational like 3 or -2/5, got {text!r}: {exc}")


def _check_size(command: str, n: int) -> None:
    """Refuse sizes above the command's measured limit before any work starts."""
    limit = COMMAND_LIMITS[command]
    if n > limit:
        raise click.UsageError(
            f"{command} is limited to n <= {limit}, the largest size measured to "
            f"finish within about 5 s; got n = {n}"
        )


def format_option(choices: tuple[str, ...] = FORMATS):
    return click.option(
        "--format", "fmt", type=click.Choice(choices), default="text", show_default=True,
        help="Output format.",
    )


degree_option = click.option(
    "--n", type=click.IntRange(min=1), required=True, help="Symmetric group degree."
)


class _Command(click.Command):
    """A command whose library ValueError (bad argument, refused budget) exits 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="braidchar")
def main() -> None:
    """Exact splitting measures, braid cohomology characters, and checks."""


@main.command()
@degree_option
@click.option("--z", "z_text", default=None, help="Evaluate at this rational.")
@click.option(
    "--per-element",
    is_flag=True,
    help="Divide evaluated values by the class size (needs --z).",
)
@format_option()
def measure(n: int, z_text: str | None, per_element: bool, fmt: str) -> None:
    """Splitting measure coefficients, one row per partition of n."""
    _check_size("measure", n)
    if per_element and z_text is None:
        raise click.UsageError("--per-element needs --z")
    z = _fraction(z_text) if z_text is not None else None
    header, rows, json_rows = measures_table(n, z, per_element)
    payload = {
        "n": n,
        "z": str(z) if z is not None else None,
        "per_element": per_element,
        "order": "reverse-lex",
        "rows": json_rows,
    }
    click.echo(render(fmt, header, rows, payload), nl=False)


@main.command("cycle-poly")
@click.option("--lambda", "lam_text", required=True, help="Partition, e.g. 3,1,1.")
@click.option("--z", "z_text", default=None, help="Evaluate at this rational.")
@format_option()
def cycle_poly(lam_text: str, z_text: str | None, fmt: str) -> None:
    """Cycle polynomial of a partition, constant coefficient first."""
    lam = parse_partition(lam_text)
    _check_size("cycle-poly", sum(lam))
    z = _fraction(z_text) if z_text is not None else None
    poly = cycle_polynomial(lam)
    payload = {
        "partition": format_partition(lam),
        "n": sum(lam),
        "degree": poly.degree,
        "coefficients": poly.to_strings(),
    }
    rows = [[k, c] for k, c in enumerate(payload["coefficients"])]
    text = f"N({format_partition(lam) or '-'}) = {poly}\n"
    if z is not None:
        value = poly(z)
        payload.update(z=str(z), value=json_number(value))
        rows.append(["value", value])
        text += f"value at z = {z}: {value}\n"
    if fmt != "text":
        text = render(fmt, ["power", "coefficient"], rows, payload)
    click.echo(text, nl=False)


def _character_table(n: int, k: int | None, kind: str, fmt: str) -> None:
    _check_size("hchar" if kind == "h" else "achar", n)
    ks = [k] if k is not None else list(range(n))
    fn = braid_character if kind == "h" else a_character
    chars = [fn(n, j) for j in ks]
    rows = [
        [format_partition(lam), *(int(c(lam)) for c in chars)] for lam in partitions(n)
    ]
    payload = {
        "n": n,
        "kind": kind,
        "ks": ks,
        "order": "reverse-lex",
        "rows": [{"partition": row[0], "values": row[1:]} for row in rows],
    }
    header = ["partition"] + [f"k={j}" for j in ks]
    click.echo(render(fmt, header, rows, payload), nl=False)


@main.command()
@degree_option
@click.option("--k", type=int, default=None, help="Single grade; all if omitted.")
@format_option()
def hchar(n: int, k: int | None, fmt: str) -> None:
    """Cohomology character table; rows are partitions, columns grades."""
    _character_table(n, k, "h", fmt)


@main.command()
@degree_option
@click.option("--k", type=int, default=None, help="Single grade; all if omitted.")
@format_option()
def achar(n: int, k: int | None, fmt: str) -> None:
    """Graded piece character table; rows are partitions, columns grades."""
    _character_table(n, k, "chi", fmt)


_WHICH = ("h", "a", "b", "b-plus", "b-minus", "b-diff")


@main.command("decompose")
@degree_option
@click.option("--k", type=int, default=None, help="Grade (for --which h|a).")
@click.option("--m", type=int, default=None, help="Weight (for --which b*).")
@click.option(
    "--which",
    type=click.Choice(_WHICH),
    default="h",
    show_default=True,
    help="Which character to decompose.",
)
@format_option()
def decompose_cmd(n: int, k: int | None, m: int | None, which: str, fmt: str) -> None:
    """Irreducible multiplicities of a character."""
    _check_size("decompose", n)
    if which in ("h", "a"):
        if k is None:
            raise click.UsageError(f"--which {which} requires --k")
        if m is not None:
            raise click.UsageError(f"--m applies to --which b*, not --which {which}")
        f = braid_character(n, k) if which == "h" else a_character(n, k)
    else:
        if k is not None:
            raise click.UsageError(f"--k applies to --which h|a, not --which {which}")
        if m is None:
            raise click.UsageError(f"--which {which} requires --m")
        if m > 10**M_LIMIT_EXPONENT:
            raise click.UsageError(
                f"decompose is limited to m <= 10^{M_LIMIT_EXPONENT}, the largest weight "
                f"measured to finish within about 5 s with every integer under the "
                f"4300 digits Python prints; got m = {m}"
            )
        if which == "b":
            f = b_character(n, m)
        else:
            plus, minus = b_character_signed(n, m)
            f = {"b-plus": plus, "b-minus": minus, "b-diff": plus - minus}[which]
    dec = decompose(f, virtual=which == "b-diff")
    payload = {
        "n": n,
        "k": k,
        "m": m,
        "which": which,
        "terms": terms_json(dec),
        "dimension": int(dec.dimension),
    }
    rows = [[format_partition(mu), mult] for mu, mult in dec.terms]
    label = {"h": f"h_{n}^{k}", "a": f"chi_{n}^{k}"}.get(which, f"{which}(n={n}, m={m})")
    text = f"{label} = {dec}\ndimension {dec.dimension}\n"
    if fmt != "text":
        text = render(fmt, ["partition", "multiplicity"], rows, payload)
    click.echo(text, nl=False)


@main.command()
@click.option("--p", type=int, required=True, help="Field characteristic (prime).")
@click.option("--n", type=int, required=True, help="Polynomial degree.")
@click.option(
    "--budget",
    type=int,
    default=DEFAULT_BUDGET,
    show_default=True,
    help="Largest p^n the census may take.",
)
@format_option()
def oracle(p: int, n: int, budget: int, fmt: str) -> None:
    """Exhaustive square-free census over F_p versus cycle polynomial counts."""
    report = census_vs_theory(p, n, budget=budget)
    header = ["partition", "count", "theory", "ok"]
    rows = [
        [format_partition(r.partition), r.count, r.predicted, r.ok] for r in report.rows
    ]
    total, expected = report.total_squarefree, report.expected_total
    payload = {
        "p": p,
        "n": n,
        "total": total,
        "expected_total": expected,
        "ok": report.all_ok,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if fmt == "csv":
        rows.append(["total", total, expected, report.all_ok])
    text = render(fmt, header, rows, payload)
    if fmt == "text":
        text += f"square-free total {total} (expected {expected})\n"
        text += "census matches\n" if report.all_ok else "census MISMATCH\n"
    click.echo(text, nl=False)
    if not report.all_ok:
        sys.exit(1)


@main.command()
@click.argument("name", type=click.Choice(TABLE_NAMES))
@click.option("--n", type=int, default=None, help="Row set (measures) or last row.")
@click.option("--max-n", type=int, default=None, help="Last row for triangle tables.")
@format_option()
def table(name: str, n: int | None, max_n: int | None, fmt: str) -> None:
    """Emit one of the built-in reference tables."""
    if name == "measures" and max_n is not None:
        raise click.UsageError("table measures takes --n, not --max-n")
    if n is not None and max_n is not None:
        raise click.UsageError("give --n or --max-n, not both")
    click.echo(emit_table(name, n if max_n is None else max_n, fmt), nl=False)


@main.command()
@click.argument("suite", type=click.Choice(SUITE_NAMES), default="all")
@click.option(
    "--max-n", type=click.IntRange(min=1), default=None, help="Cap every sweep at this n."
)
@format_option(("text", "json"))
def verify(suite: str, max_n: int | None, fmt: str) -> None:
    """Run a verification suite; exits 1 when any check fails."""
    report = run_suite(suite, VerifyLimits().capped(max_n))
    payload = {
        "suite": report.suite,
        "passed": report.passed,
        "elapsed": report.elapsed,
        "checks": [
            {"description": c.description, "passed": c.passed, "details": c.details}
            for c in report.checks
        ],
    }
    lines = "".join(line + "\n" for line in report.lines())
    click.echo(lines if fmt == "text" else render(fmt, [], [], payload), nl=False)
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
