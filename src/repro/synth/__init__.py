"""Synthetic program generation.

Used by the ablation tables of ``benchmarks/regenerate.py`` (checker
cost vs program size and vs lattice height), by the property-based tests
that validate the soundness claim empirically (any randomly generated
program the checker accepts must pass the differential non-interference
harness), and by the solver-scaling stress suite
(:func:`deep_dataflow_program` / :func:`scc_cycle_program` synthesise
programs whose inference constraint systems reach 10k+ constraints).
"""

from repro.synth.constraints import constraint_label_count, mega_constraint_system
from repro.synth.policy_traffic import TrafficEvent, policy_traffic, scenario_universe
from repro.synth.programs import (
    chain_pipeline_program,
    deep_dataflow_program,
    random_straightline_program,
    scc_cycle_program,
    sharded_dataflow_program,
    wide_table_program,
)

__all__ = [
    "chain_pipeline_program",
    "constraint_label_count",
    "deep_dataflow_program",
    "mega_constraint_system",
    "policy_traffic",
    "random_straightline_program",
    "scc_cycle_program",
    "scenario_universe",
    "sharded_dataflow_program",
    "TrafficEvent",
    "wide_table_program",
]
