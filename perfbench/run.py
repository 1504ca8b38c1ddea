"""The repository's benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload cold_check --seed 7 --seconds 38 --trace 0

Workloads: ``cold_check`` (``p4bid --infer --json`` over a fixed corpus),
``warm_edit`` (edit→check in a served session) and ``policy_stream``
(compliance decisions over a replayed stream); see each module's
docstring.  This script replaces itself with ``harness.py`` in a fresh
interpreter with a fixed ``PYTHONHASHSEED`` and ``PYTHONPATH=src``, so
the program is measured from the checkout's sources.  Output: a
provenance header (``#`` lines), one line per metric with its unit, and
last one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` the per-layer ones, and writes the
recorded spans under ``perfbench/out/``.

Latencies are in reference time (see ``calibrate.py``); the raw wall
figures are in the header and in the ``host.*`` per-layer metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HASH_SEED = "0"


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if not (root / "BENCHMARK.json").is_file():
        print("perfbench: BENCHMARK.json not found in the working directory", file=sys.stderr)
        return 2
    harness = str(Path(__file__).with_name("harness.py"))
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH="src")
    os.execve(sys.executable, [sys.executable, harness, *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())
