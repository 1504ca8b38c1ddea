"""Analysis overhead: the lint pass, with guards.

Running ``--lint`` on the case studies stays within a bounded multiple of
the plain check (the lint engine re-runs the unified traversal a small
constant number of times).

The measured numbers land in ``benchmarks/results/BENCH_analysis.json``
(merged by the ``record_json`` fixture, uploaded by CI).  Runs in the CI
smoke job (``P4BID_SOLVER_BENCH_SMOKE=1``) at reduced size as a hard-fail
regression gate.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.analysis import run_lints
from repro.casestudies import all_case_studies
from repro.frontend.parser import parse_program
from repro.lattice.registry import get_lattice
from repro.tool.pipeline import check_source

SMOKE = os.environ.get("P4BID_SOLVER_BENCH_SMOKE", "") not in {"", "0"}
REPETITIONS = 3 if SMOKE else 9


def _median_ms(fn, repetitions: int = REPETITIONS) -> float:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def test_lint_overhead_is_bounded_on_case_studies(record_json):
    """--lint stays within a constant factor of the plain check."""
    rows = {}
    for case in all_case_studies():
        lattice = get_lattice(case.lattice_name)
        program = parse_program(case.secure_source)
        check_ms = _median_ms(
            lambda: check_source(case.secure_source, case.lattice_name)
        )
        lint_ms = _median_ms(lambda: run_lints(program, lattice))
        # The lint engine replays the unified traversal a small constant
        # number of times (relaxed annotations + one probe per declassify
        # site) and re-solves per local annotation; 25x + 50ms is a loose
        # structural ceiling that still catches accidental quadratics.
        assert lint_ms <= 25.0 * check_ms + 50.0, (
            f"{case.name}: lint {lint_ms:.2f} ms vs check {check_ms:.2f} ms"
        )
        rows[case.name] = {
            "check_ms": round(check_ms, 3),
            "lint_ms": round(lint_ms, 3),
            "ratio": round(lint_ms / check_ms, 2) if check_ms else None,
        }
    record_json("BENCH_analysis.json", {"lint_overhead": rows})


def test_lint_pipeline_overhead(record_json):
    """End-to-end: check_source with lint vs without, per case."""
    rows = {}
    for case in all_case_studies():
        plain_ms = _median_ms(
            lambda: check_source(case.secure_source, case.lattice_name, infer=True)
        )
        full_ms = _median_ms(
            lambda: check_source(
                case.secure_source,
                case.lattice_name,
                infer=True,
                lint=True,
            )
        )
        assert full_ms <= 25.0 * plain_ms + 50.0, (
            f"{case.name}: full {full_ms:.2f} ms vs plain {plain_ms:.2f} ms"
        )
        rows[case.name] = {
            "infer_ms": round(plain_ms, 3),
            "infer_lint_ms": round(full_ms, 3),
        }
    record_json("BENCH_analysis.json", {"pipeline_overhead": rows})
