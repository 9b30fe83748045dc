"""Spans recorded from outside the library, around calls into its modules.

A traced run replaces each public function listed in ``LAYERS`` with a
wrapper, everywhere a caller looks it up: the defining module, every
``braidchar`` module that imported it by name, and the package namespace.
Each call becomes a span (name, start, end, parent).  Spans are kept in
flat arrays while the run is timed and written out when it ends.

A layer's self time is the time its spans cover minus the time their child
spans cover, less the wrappers' own cost (see ``wrapper_cost``).  Functions
in ``COUNTED`` are called too often to be spans without swamping the run;
their wrappers only count calls, and their time stays with the caller's
span.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# layer metric -> (module, public functions whose spans it sums)
LAYERS = {
    "fforacle.census": ("fforacle", ("factor_type_census",)),
    "fforacle.compare": ("fforacle", ("census_vs_theory",)),
    "specht.irreducible_character": ("specht", ("irreducible_character",)),
    "specht.decompose": ("specht", ("decompose",)),
    "characters.inner_product": ("characters", ("inner_product",)),
    "characters": (
        "characters",
        (
            "braid_character",
            "a_character",
            "b_character",
            "b_character_signed",
            "sign_twisted_sum",
        ),
    ),
    "ratpoly": ("ratpoly", ("cycle_polynomial", "necklace_polynomial")),
    "measures": ("measures", ("splitting_coefficients", "measure_value")),
    "partitions": (
        "partitions",
        (
            "check_partition",
            "partitions",
            "multiplicities",
            "conjugate",
            "centralizer_order",
            "class_data",
            "sign_character",
            "moebius",
            "divisors",
            "format_partition",
            "parse_partition",
        ),
    ),
    "verify": ("verify", ("run_suite",)),
    "tables": ("tables", ("emit_table",)),
}

# Murnaghan-Nakayama evaluations: counted, timed as part of the table.
COUNTED = {"specht.irreducible_character_value": ("specht", "irreducible_character_value")}

# Span name of one in-process command line invocation (recorded by the
# benchmark around ``braidchar.cli.main``).
CLI_SPAN = "cli.command"


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counts: dict[str, int] = {}
        self.counted_in: dict[int, int] = {}  # span id -> counted calls made inside it
        self.call_args: dict[int, tuple] = {}
        self.results: dict[int, object] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def _name(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, keep_args: bool = False, keep_result: bool = False):
        """Return fn wrapped so every call records a span called name."""
        idx = self._name(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack, call_args, results = self._stack, self.call_args, self.results
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            if keep_args:
                call_args[sid] = (args, kwargs)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if keep_result:
                results[sid] = out
            return out

        return traced

    def counter(self, name: str, fn):
        counts, counted_in, stack = self.counts, self.counted_in, self._stack
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            top = stack[-1] if stack else -1
            counted_in[top] = counted_in.get(top, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, qualified: str, wrapper_factory) -> None:
        module_name, attr = qualified.split(".", 1)
        module = sys.modules[f"braidchar.{module_name}"]
        original = getattr(module, attr)
        self.originals[qualified] = original
        wrapper = wrapper_factory(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "braidchar" or mod_name.startswith("braidchar.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every function in LAYERS and COUNTED where callers find it."""
        for module_name, functions in LAYERS.values():
            for fn_name in functions:
                qualified = f"{module_name}.{fn_name}"
                self._patch(
                    qualified,
                    lambda fn, q=qualified: self.wrap(
                        q,
                        fn,
                        keep_args=q == "fforacle.factor_type_census",
                        keep_result=q == "verify.run_suite",
                    ),
                )
        for name, (module_name, fn_name) in COUNTED.items():
            self._patch(f"{module_name}.{fn_name}", lambda fn, n=name: self.counter(n, fn))

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------

    def self_times(self, cost: tuple[float, float, float] = (0.0, 0.0, 0.0)) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations.

        ``cost`` is ``wrapper_cost()``; each span also loses the wrapper
        cost that landed inside it, the share of its children's wrappers
        that landed in it, and the cost of the counted calls made in it.
        """
        inside, outside, counted = cost
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for sid in range(n):
            par = parent[sid]
            if par >= 0:
                child[par] += end[sid] - start[sid] + outside
        for sid, calls in self.counted_in.items():
            if sid >= 0:
                child[sid] += calls * counted
        totals = dict.fromkeys(self.names, 0.0)
        names = self.names
        name_of = self.name_of
        for sid in range(n):
            totals[names[name_of[sid]]] += end[sid] - start[sid] - child[sid] - inside
        return totals

    @staticmethod
    def wrapper_cost() -> tuple[float, float, float]:
        """Seconds per call that the wrappers add, split by where they land.

        Returns (inside, outside, counted): what a span wrapper adds to its
        own span's duration, what it adds to its caller's self time, and
        what a counting wrapper adds to its caller.  Taken as the best of
        three timed loops of calls to a no-op function, bare and wrapped.
        On functions called millions of times these costs are most of the
        traced self time, so ``self_times`` takes them out.
        """
        clock = time.perf_counter
        calls = 20000

        def noop():
            return None

        def loop(fn) -> float:
            t = clock()
            for _ in range(calls):
                fn()
            return (clock() - t) / calls

        bare = spanned = counted = inside = float("inf")
        for _ in range(3):
            probe = Tracer()
            wrapped = probe.wrap("noop", noop)
            bare = min(bare, loop(noop))
            spanned = min(spanned, loop(wrapped))
            counted = min(counted, loop(probe.counter("noop", noop)))
            inside = min(inside, sum(e - s for s, e in zip(probe.start, probe.end)) / calls)
        extra = max(spanned - bare, 0.0)
        inside = min(inside, extra)
        return inside, extra - inside, max(counted - bare, 0.0)

    def spans_named(self, name: str) -> list[int]:
        idx = self._index.get(name)
        if idx is None:
            return []
        return [sid for sid in range(len(self.start)) if self.name_of[sid] == idx]

    def top_level_cover(self) -> float:
        """Time covered by spans with no parent (they never overlap)."""
        return sum(
            self.end[sid] - self.start[sid]
            for sid in range(len(self.start))
            if self.parent[sid] < 0
        )

    def write(self, path, origin: float) -> int:
        """Write spans as gzipped JSON lines.

        The first line maps name indices to names and holds the call
        counts; then one line per span, in span id order:
        [name index, start ns, end ns, parent id or -1], times relative to
        origin (a perf_counter reading).
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "counts": self.counts}) + "\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"[{self.name_of[sid]},{round((self.start[sid] - origin) * 1e9)},"
                    f"{round((self.end[sid] - origin) * 1e9)},{self.parent[sid]}]\n"
                )
        return len(self.start)
