"""Alternating ``perfbench`` pairs of a parent commit against this checkout.

Run from the repository root (not part of tier-1)::

    python3 benchmarks/pairs.py --parent HEAD~1 --workload warm_edit --pairs 10

The parent's committed files are exported (``git archive``) into a
temporary directory; each pair runs ``python3 perfbench/run.py`` once
there and once here, in alternating order.  For every end-to-end metric
of ``BENCHMARK.json`` it prints both medians, the parent's IQR and in how
many pairs the change was better, and appends one JSON line per workload
to ``benchmarks/results/perf_trajectory.jsonl`` with the provenance
(commits, Python, nproc).  ``perfbench/`` and ``BENCHMARK.json`` are only
read.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "results" / "perf_trajectory.jsonl"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``root``: its closing JSON object."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=38.0)
    args = parser.parse_args()

    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent = _git("rev-parse", args.parent)
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="p4bid-pairs-") as scratch:
        base = Path(scratch)
        archive = subprocess.run(
            ["git", "archive", parent], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base)
        for index in range(args.pairs):
            order = [("parent", base), ("change", ROOT)]
            for side, root in order if index % 2 == 0 else order[::-1]:
                runs[side].append(_run(root, args.workload, args.seed, args.seconds))
                print(f"pair {index + 1} {side}: done", file=sys.stderr)

    metrics = {}
    for name, direction in better.items():
        old = [run["metrics"][name]["value"] for run in runs["parent"] if name in run["metrics"]]
        new = [run["metrics"][name]["value"] for run in runs["change"] if name in run["metrics"]]
        if len(old) != len(new) or not old:
            continue
        wins = sum((n < o) if direction == "lower" else (n > o) for o, n in zip(old, new))
        q1, q3 = _quartiles(old) if len(old) > 1 else (old[0], old[0])
        metrics[name] = {
            "parent_median": statistics.median(old),
            "change_median": statistics.median(new),
            "parent_iqr": q3 - q1,
            "wins": wins,
            "pairs": len(old),
        }
        m = metrics[name]
        print(f"{name:16} {m['parent_median']:10.4f} -> {m['change_median']:10.4f}"
              f"  (parent IQR {m['parent_iqr']:.4f}, better in {wins}/{len(old)})")
    line = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "parent": parent,
        "change": head + ("+dirty" if dirty else ""),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "correct": all(run["correct"] for side in runs.values() for run in side),
        "failed": sum(run["failed"] for side in runs.values() for run in side),
        "metrics": metrics,
    }
    TRAJECTORY.parent.mkdir(parents=True, exist_ok=True)
    with TRAJECTORY.open("a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
