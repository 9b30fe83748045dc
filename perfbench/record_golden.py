"""Record the output digests that cli-small checks its commands against.

    python3 perfbench/record_golden.py

Runs every cli-small command whose arguments do not depend on the seed, at
both the full and the smoke size, and writes ``golden.json`` next to this
file.  Run it only at a commit whose outputs are known to be right: a later
commit must reproduce these bytes (verify's ``elapsed`` field excepted).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    digests = {}
    for size in ("full", "smoke"):
        for argv, _ in workloads.cli_commands(size, None):
            code, stdout = workloads.invoke_cli(argv)
            if code != 0:
                print(f"braidchar {' '.join(argv)} exited {code}", file=sys.stderr)
                return 1
            digests[" ".join(argv)] = workloads.output_digest(argv, stdout)
    workloads.GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {workloads.GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
