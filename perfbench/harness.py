"""Runs one workload and prints its result.

``run.py`` replaces itself with this file in a fresh interpreter (fixed
``PYTHONHASHSEED``, ``PYTHONPATH=src``), passing its arguments on::

    python3 perfbench/harness.py --workload NAME --seed N --seconds S --trace 0|1

It prints a provenance header (``#`` lines), one line per metric and,
last, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` the per-layer metrics, from a
run that alternates traced and untraced cycles.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from calibrate import ITERATIONS, NOMINAL_MS, calibrate, factor
from spans import OP_SPANS, Layers, Tracer

WORKLOADS = ("cold_check", "warm_edit", "policy_stream")
DEFAULT_SEED = 7
TRACE_DIR = Path("perfbench") / "out"


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class Step:
    """A primary ``op`` or a secondary ``update``: ``calls`` in order.

    Each call is timed alone between two calibrations, so that a host
    speed change in the middle of a long op is tracked; the step's
    latency is the sum of its calls' reference times.
    """

    kind: str
    calls: Sequence[Callable[[], object]]
    #: Known answer: are the calls' results (a list, in order) right?
    check: Callable[[List[object]], bool]
    #: Traced run only: records counters from the calls' results.
    count: Optional[Callable[[Tracer, List[object]], None]] = None
    #: Traced run only: sources lexed standalone for ``frontend.lex``.
    sources: Sequence[str] = ()


@dataclass
class Measurement:
    """Everything one run measured, in reference ms unless noted."""

    #: Untraced primary ops: their latencies (ms-scale workloads), count
    #: and summed latency.
    op_ms: List[float] = field(default_factory=list)
    op_count: int = 0
    op_busy_ms: float = 0.0
    update_ms: List[float] = field(default_factory=list)
    #: Raw wall ms of the untraced primary ops (per-pass p50 for µs ops).
    op_wall_ms: List[float] = field(default_factory=list)
    cal_ms: List[float] = field(default_factory=list)
    #: Per-pass p50/p90 when µs ops are summarised per pass (policy_stream).
    pass_p50: List[float] = field(default_factory=list)
    pass_p90: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Traced run: primary op latencies (per-pass p50s for µs ops) and
    #: the number of traced primary ops.
    traced_op_ms: List[float] = field(default_factory=list)
    traced_ops: int = 0
    #: Traced policy_stream run: mean ref ms of ``PolicyEngine(universe)``.
    compile_ms: float = 0.0
    #: Kinds of call whose exception was already printed.
    reported: set = field(default_factory=set)

    def outcome(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def raised(self, what: str) -> None:
        """Print the exception being handled, once per kind of call."""
        if what not in self.reported:
            self.reported.add(what)
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def top_level_units(source: str) -> List[str]:
    """The source's top-level declarations, as text (comments dropped).

    A unit ends at a ``;`` or at the ``}`` that closes it at depth 0; the
    benchmark uses this to count the units an edit changed, independently
    of the workspace's own diffing.
    """
    units: List[str] = []
    current: List[str] = []
    depth = 0
    i, n = 0, len(source)
    while i < n:
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end < 0 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            i = n if end < 0 else end + 2
            continue
        char = source[i]
        current.append(char)
        if char == "{":
            depth += 1
        elif char == "}":
            depth -= 1
        if depth == 0 and char in ";}":
            units.append(" ".join("".join(current).split()))
            current = []
        i += 1
    return units


def changed_units(before: str, after: str) -> int:
    """How many of ``after``'s top-level units differ from ``before``'s."""
    remaining = list(top_level_units(before))
    changed = 0
    for unit in top_level_units(after):
        if unit in remaining:
            remaining.remove(unit)
        else:
            changed += 1
    return changed


def count_inference(tracer: Tracer, report: dict) -> None:
    """Counters from one report's inference section (``Solution.stats``)."""
    inference = report["inference"]
    if inference is None:
        return
    tracer.count("inference.constraints", inference["constraints"])
    solver = inference["solver"] or {}
    for key in ("edges_visited", "worklist_pops", "sccs"):
        tracer.count(f"inference.{key}", solver.get(key, 0))


def lex_standalone(tracer: Tracer, sources: Sequence[str]) -> None:
    from repro.frontend.lexer import tokenize

    for source in sources:
        start = time.perf_counter_ns()
        tokens = tokenize(source)
        tracer.add("frontend.lex", time.perf_counter_ns() - start)
        tracer.count("frontend.tokens", len(tokens))


def run_steps(
    cycle: Callable[[int], List[Step]],
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Measurement:
    """Closed loop over ``cycle(0), cycle(1), ...`` for ``seconds``.

    Every call of a step is timed alone and scaled by the calibrations
    taken right before and after it.  Whole cycles only, so every run
    does the same work per cycle.  With a ``tracer``, odd cycles run with the layer
    wrappers installed and even cycles without, for ``trace.overhead``.
    """
    layers = Layers() if tracer is not None else None
    m = Measurement()
    previous = calibrate()
    m.cal_ms.append(previous)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            for step in cycle(index):
                outs: List[object] = []
                wall_ms = ref_ms = 0.0
                ok = True
                for number, call in enumerate(step.calls):
                    if traced:
                        # The calibrations between calls stay outside the op.
                        tracer.begin_op() if number == 0 else tracer.resume_op()
                    start = time.perf_counter_ns()
                    try:
                        outs.append(call())
                    except Exception:  # counted as a failed op
                        m.raised(step.kind)
                        ok = False
                    call_ms = (time.perf_counter_ns() - start) / 1e6
                    if traced:
                        tracer.end_op()
                    cal = calibrate()
                    scale = factor(previous, cal)
                    previous = cal
                    m.cal_ms.append(cal)
                    if traced:
                        tracer.flush(scale)
                    wall_ms += call_ms
                    ref_ms += call_ms * scale
                    if not ok:
                        break
                if ok:
                    try:
                        ok = bool(step.check(outs))
                    except Exception:  # a malformed answer is a wrong answer
                        m.raised(f"{step.kind} check")
                        ok = False
                m.outcome(ok)
                if traced:
                    if ok:
                        if step.count is not None:
                            step.count(tracer, outs)
                        lex_standalone(tracer, step.sources)
                        tracer.flush(scale)
                    if step.kind == "op":
                        m.traced_op_ms.append(ref_ms)
                        m.traced_ops += 1
                elif step.kind == "op":
                    m.op_ms.append(ref_ms)
                    m.op_count += 1
                    m.op_busy_ms += ref_ms
                    m.op_wall_ms.append(wall_ms)
                else:
                    m.update_ms.append(ref_ms)
        finally:
            if traced:
                layers.uninstall()
        index += 1
        if time.perf_counter() >= deadline:
            return m


class GcWatch:
    """Counts collections and their pause time via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_ns = 0
        self._start = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pause_ns += time.perf_counter_ns() - self._start
            self.collections[info["generation"]] += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_quantiles(m: Measurement) -> tuple:
    """Untraced op p50 and p90 (medians of the per-pass ones for µs ops)."""
    if m.pass_p50:
        return statistics.median(m.pass_p50), statistics.median(m.pass_p90)
    return quantile(m.op_ms, 0.5), quantile(m.op_ms, 0.9)


def end_to_end(m: Measurement, setup_s: float) -> Dict[str, float]:
    p50, p90 = op_quantiles(m)
    return {
        "setup_s": setup_s,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "ops_per_s": m.op_count / (m.op_busy_ms / 1e3),
        "update_ms_p50": quantile(m.update_ms, 0.5),
        "update_ms_p90": quantile(m.update_ms, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(m: Measurement, tracer: Tracer, watch: GcWatch) -> Dict[str, float]:
    traced_ops = max(1, m.traced_ops)
    ops = max(1, m.op_count + m.traced_ops)
    counts = tracer.counts
    metrics = {
        f"{name}_ms": tracer.self_ms.get(name, 0.0) / traced_ops
        for name in OP_SPANS + ("frontend.lex",)
    }
    for name in (
        "frontend.tokens", "inference.constraints", "inference.edges_visited",
        "inference.worklist_pops", "inference.sccs", "workspace.units_rewalked",
        "workspace.units_respanned", "workspace.constraints_regenerated",
    ):
        metrics[name] = counts.get(name, 0.0) / traced_ops
    changed = counts.get("workspace.units_changed", 0.0)
    metrics["workspace.rewalk_ratio"] = (
        counts.get("workspace.units_rewalked", 0.0) / changed if changed else 0.0
    )
    regrants = counts.get("policy.regrants", 0.0)
    decisions = counts.get("policy.decisions", 0.0)
    metrics["policy.recompiled_per_regrant"] = (
        counts.get("policy.recompiled", 0.0) / regrants if regrants else 0.0
    )
    metrics["policy.permit_share"] = (
        counts.get("policy.permits", 0.0) / decisions if decisions else 0.0
    )
    metrics["policy.compile_ms"] = m.compile_ms
    scale = NOMINAL_MS / statistics.median(m.cal_ms)
    for generation in range(3):
        metrics[f"gc.gen{generation}"] = watch.collections[generation] * 1000.0 / ops
    metrics["gc.pause_ms"] = watch.pause_ns / 1e6 * scale / ops
    metrics["host.cal_ms"] = statistics.median(m.cal_ms)
    metrics["host.wall_op_ms_p50"] = quantile(m.op_wall_ms, 0.5)
    metrics["trace.op_ms"] = tracer.op_ms / traced_ops
    metrics["trace.overhead"] = quantile(m.traced_op_ms, 0.5) / op_quantiles(m)[0]
    return metrics


def declared(kind: str) -> Dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _commit() -> str:
    head = Path(".git") / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    loose = Path(".git") / ref[5:]
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = Path(".git") / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def print_header(args: argparse.Namespace, m: Measurement, fixtures_mb: float) -> None:
    print(f"# commit: {_commit()}")
    print(f"# src sha256: {_source_digest()}")
    print(f"# python: {platform.python_implementation()} {platform.python_version()}")
    print(f"# nproc: {len(os.sched_getaffinity(0))}")
    print(f"# PYTHONHASHSEED: {os.environ.get('PYTHONHASHSEED', 'unset')}")
    print(f"# workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  trace: {args.trace}")
    print(f"# calibration: {ITERATIONS} iterations, nominal {NOMINAL_MS} ms, "
          f"measured p50 {statistics.median(m.cal_ms):.4f} ms")
    print(f"# raw wall op p50: {quantile(m.op_wall_ms, 0.5):.6f} ms  "
          f"ops: {m.op_count}  updates: {len(m.update_ms)}")
    print(f"# peak RSS after imports and fixtures, before set-up: {fixtures_mb:.1f} MB")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    module = importlib.import_module(args.workload)
    workload = module.Workload(args.seed)
    fixtures_mb = peak_rss_mb()
    units = declared("per_layer" if args.trace else "end_to_end")

    if args.trace:
        tracer = Tracer()
        watch = GcWatch()
        gc.callbacks.append(watch)
        try:
            m = workload.run(args.seconds, tracer)
        finally:
            gc.callbacks.remove(watch)
        metrics = per_layer(m, tracer, watch)
        tracer.dump(TRACE_DIR / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        setup_s = statistics.median(workload.setup_once() for _ in range(workload.SETUP_REPS))
        m = workload.run(args.seconds, None)
        metrics = end_to_end(m, setup_s)

    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
        )
    print_header(args, m, fixtures_mb)
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:36s} {metrics[name]:14.6f} {unit}")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
