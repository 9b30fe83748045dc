"""One renderer for every command's output, and the five reference tables.

Each command builds its header, rows and JSON payload once; ``render`` emits
them as aligned text, CSV or JSON.  The reference tables compute their rows
from scratch (nothing is read from ``reference``); the frozen data there
exists so tests can diff these tables against known-good values.
Partition-indexed tables list rows in reverse-lexicographic order on the
decreasing part lists and say so in their headers.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .characters import a_character, braid_character
from .measures import _splitting_measure
from .partitions import class_data, format_partition, partitions
from .specht import IrrepDecomposition, decompose

TABLE_NAMES = ("measures", "betti", "a-dims", "h1-decomp", "a2-decomp")

#: Largest n each emitter accepts, keeping worst-case runtime around a second.
TABLE_LIMITS = {
    "measures": 12,
    "betti": 12,
    "a-dims": 12,
    "h1-decomp": 9,
    "a2-decomp": 9,
}

#: Largest n each command accepts (for ``cycle-poly``, the size of the
#: partition): the last size whose worst case took at most 5 s of wall time,
#: median of five fresh-process runs on a 2-core machine.
COMMAND_LIMITS = {
    "measure": 25,
    "hchar": 25,
    "achar": 25,
    "decompose": 24,
    "cycle-poly": 800,
}

#: ``decompose --which b*`` takes m <= 10**M_LIMIT_EXPONENT.  At n = 24, m =
#: 10^194 took 1.6 s for ``--which b`` and ``b-diff`` (median of five
#: fresh-process runs on a 2-core machine), and the dimension of B_{24,m}
#: has 4291 digits; at 10^195 it passes the 4300 digits that Python converts
#: to text, so the digits bind before the 5 s rule.
M_LIMIT_EXPONENT = 194

#: ``--z`` takes (degree evaluated) x (bits of z's larger part) <= Z_BITS_LIMIT:
#: ``cycle-poly`` of 1^800 at z = (2^625 - 1)/(2^625 - 3) took 4.6 s (median of
#: five fresh-process runs on a 2-core machine).  ``check_digits`` then refuses
#: a value that Python, which prints at most 4300 digits, could not print.
Z_BITS_LIMIT = 500_000

FORMATS = ("text", "csv", "json")
_UNPRINTABLE = 10**4300  # the least integer of more than 4300 digits


def check_digits(x: Fraction, what: str) -> None:
    """Refuse with ValueError a rational that Python could not print."""
    if max(abs(x.numerator), x.denominator) >= _UNPRINTABLE:
        raise ValueError(f"{what} has a part of more than 4300 digits, which Python does not print")


def json_number(x: Fraction) -> Any:
    """Integers as JSON ints, other rationals as "p/q" strings."""
    if x.denominator == 1:
        return int(x)
    return str(x)


def terms_json(dec: IrrepDecomposition) -> list[dict]:
    """One ``{"partition", "multiplicity"}`` object per irreducible term."""
    return [
        {"partition": format_partition(mu), "multiplicity": m}
        for mu, m in dec.terms
    ]


#: The writer of each JSON scalar type, as json.dumps writes it.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json(obj: Any, indent: str = "") -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, byte for byte.

    json.dumps with an indent runs the pure-Python encoder; this writer does
    the same walk with one type lookup per value.  It writes what the
    commands' payloads hold: dicts with str keys, lists and tuples, and str,
    int, finite float, bool and None values.  Any other type, a non-str key
    included, raises TypeError.
    """
    write = _JSON_SCALARS.get(type(obj))
    if write is not None:
        return write(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [_json(item, inner) for item in obj]
        brackets = "[]"
    elif isinstance(obj, dict):
        items = [
            f"{encode_basestring_ascii(key)}: {_json(value, inner)}" for key, value in obj.items()
        ]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def render(
    fmt: str, header: list[str], rows: list[list], payload: Any, title: str | None = None
) -> str:
    """``rows`` under ``header`` as aligned text or CSV, or ``payload`` as JSON.

    Text starts with ``# title`` when a title is given.
    """
    if fmt == "json":
        return _json(payload) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    cells = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = [] if title is None else [f"# {title}"]
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def measures_table(
    n: int, z: Fraction | None = None, per_element: bool = False
) -> tuple[list[str], list[list[Any]], list[dict]]:
    """Header, rows and JSON rows of the splitting measures for n.

    With ``z`` each row also carries the measure evaluated there, per class
    or, with ``per_element``, per permutation.  Raises ValueError at a pole.
    """
    header = ["partition", "class_size", "centralizer_order"] + [
        f"alpha_{k}" for k in range(n)
    ]
    if z is not None:
        header.append("value")
    rows: list[list[Any]] = []
    json_rows: list[dict] = []
    for lam in partitions(n):
        cls = class_data(lam)
        m = _splitting_measure(lam)
        alpha = [str(a) for a in m.alpha]
        line = [format_partition(lam), cls.class_size, cls.centralizer_order, *alpha]
        row: dict[str, Any] = dict(zip(header, line[:3]), alpha=alpha)
        if z is not None:
            value = m.value(z, per_element=per_element)
            check_digits(value, f"the measure of ({line[0]}) at z")
            row["value"] = json_number(value)
            line.append(str(value))
        rows.append(line)
        json_rows.append(row)
    return header, rows, json_rows


#: Text title of each table; ``{n}`` is its row set or last row.
_TITLES = {
    "measures": "splitting measure coefficients for n={n} "
    "(rows in reverse-lex partition order)",
    "betti": "cohomology dimensions for n=1..{n}, columns k=0..n-1",
    "a-dims": "graded piece dimensions for n=1..{n}, columns k=0..n-1",
    "h1-decomp": "irreducible decompositions of the k=1 characters for n=2..{n} "
    "(labels in reverse-lex order)",
    "a2-decomp": "irreducible decompositions of the k=2 graded pieces for n=3..{n} "
    "(labels in reverse-lex order)",
}


def _decomposition_json(dec: IrrepDecomposition) -> dict:
    return {"dimension": dec.dimension, "terms": terms_json(dec)}


def _table_row(name: str, n: int, max_n: int) -> tuple[list[Any], dict]:
    """Row n of a triangle or decomposition table, for text/CSV and for JSON."""
    if name in ("betti", "a-dims"):
        character = braid_character if name == "betti" else a_character
        values = [character(n, k)((1,) * n) for k in range(n)]
        return [n] + values + [""] * (max_n - n), {"n": n, "values": values}
    if name == "h1-decomp":
        dh = decompose(braid_character(n, 1))
        da = decompose(a_character(n, 1))
        row = [n, dh.dimension, str(dh), da.dimension, str(da)]
        return row, {"n": n, "h1": _decomposition_json(dh), "a1": _decomposition_json(da)}
    da = decompose(a_character(n, 2))
    return [n, da.dimension, str(da)], {"n": n, **_decomposition_json(da)}


def emit_table(name: str, n: int | None = None, fmt: str = "text") -> str:
    """Render one of the five reference tables.

    ``n`` selects the single row set for ``measures`` (default 4) and the
    largest row for the other tables (defaults: 9).  Formats: ``text``
    (aligned columns), ``csv``, ``json``.

    >>> print(emit_table("betti", n=3, fmt="csv"), end="")
    n,k=0,k=1,k=2
    1,1,,
    2,1,1,
    3,1,3,2
    """
    if name not in TABLE_NAMES:
        raise ValueError(f"unknown table {name!r}; expected one of {TABLE_NAMES}")
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    limit = TABLE_LIMITS[name]
    if n is None:
        n = 4 if name == "measures" else min(limit, 9)
    first = {"h1-decomp": 2, "a2-decomp": 3}.get(name, 1)
    if not first <= n <= limit:
        raise ValueError(
            f"table {name!r} supports n between {first} and {limit}, got {n}"
        )

    if name == "measures":
        header, rows, json_rows = measures_table(n)
        payload = {"table": name, "n": n, "order": "reverse-lex", "rows": json_rows}
    else:
        header = {
            "h1-decomp": ["n", "dim_h1", "h1", "dim_a1", "a1"],
            "a2-decomp": ["n", "dim_a2", "a2"],
        }.get(name, ["n"] + [f"k={k}" for k in range(n)])
        pairs = [_table_row(name, m, n) for m in range(first, n + 1)]
        rows = [row for row, _ in pairs]
        payload = {"table": name, "max_n": n, "rows": [entry for _, entry in pairs]}
    return render(fmt, header, rows, payload, _TITLES[name].format(n=n))
