"""Consent updates at policy scale: regrants recompile only their fan-out.

The lattice is ``policy-120-96-8`` — **216 powerset principals** plus an
8-class retention chain.  The check is structural, not timed: revoking
one subject's consent recompiles the effective bounds of the datasets in
that subject's lineage closure and no others.  The recompiled count
lands in ``benchmarks/results/BENCH_policy.json``.

Decision throughput is measured by ``p4bid policy check`` (checks/sec
and p50/p95/p99) and by the ``policy_stream`` workload of
``perfbench/run.py``.

Set ``P4BID_SOLVER_BENCH_SMOKE=1`` (the CI ``policy-smoke`` job does) to
build a smaller universe; the lattice keeps its 216 principals even in
smoke runs.
"""

from __future__ import annotations

import os

from repro.lattice.registry import get_lattice
from repro.policy import PolicyEngine
from repro.synth import scenario_universe

SMOKE = os.environ.get("P4BID_SOLVER_BENCH_SMOKE", "") not in {"", "0"}
LATTICE = "policy-120-96-8"
SUBJECTS = 24 if SMOKE else 96
DATASETS = 16 if SMOKE else 48
SEED = 2022


def test_policy_compile_scales_with_lineage(record_json):
    """Consent updates recompile only the subject's lineage fan-out."""
    universe = scenario_universe(
        get_lattice(LATTICE), subjects=SUBJECTS, datasets=DATASETS, seed=SEED
    )
    engine = PolicyEngine(universe)
    subject = universe.subjects[0]
    affected = engine.set_grant(subject, universe.lattice.bottom)
    assert 0 < len(affected) <= len(universe.datasets)
    assert set(affected) == {
        name
        for name in universe.datasets
        if subject in universe.contributing_subjects(name)
    }
    record_json(
        "BENCH_policy.json",
        {
            "regrant": {
                "datasets": len(universe.datasets),
                "recompiled": len(affected),
            }
        },
    )
