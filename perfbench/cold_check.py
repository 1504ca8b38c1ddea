"""``cold_check``: the CLI user's time to a verdict.

One op is one pass, in fixed order, over a fixed ~50 KB corpus, running
``check_source`` + ``report_to_dict`` on each program -- what
``p4bid [--infer] --json FILE`` runs per file.  The corpus is the six
paper case studies three ways (secure, insecure, body-stripped under
``infer=True``) plus six synthetic programs of ~5 KB each.  Making the
whole pass the op keeps every op the same work, so its median cannot fall
between programs of different size.  Each program's check is timed alone
between two calibrations and the op's latency is their sum: the host's
speed changes within a ~300-ms pass, and calibrating only at the pass's
ends left its reference times about twice as scattered.

The secondary op ("update") is one single-file verdict: the body-stripped
D2R case study under ``infer=True``.

Set-up is ``import repro.tool.cli`` in a fresh interpreter, which every
``p4bid`` call pays.

Every answer is known without the checker: case-study verdicts and
violation kinds come from the paper (table below); the synthetic
programs' labels follow from how they are built.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

from calibrate import factor
from harness import Measurement, Step, count_inference, run_steps, top_level_units
from spans import Tracer

#: Violation kinds each insecure case study is rejected with (Section 5).
#: ``lattice`` also trips T-TblCall: Alice's ``@pc(A)`` control applies a
#: table whose action writes Bob's ``B`` field.
INSECURE_KINDS = {
    "d2r": {"implicit-flow"},
    "app": {"table-key-flow"},
    "lattice": {"explicit-flow", "table-key-flow", "implicit-flow"},
    "topology": {"explicit-flow"},
    "cache": {"table-key-flow"},
    "netchain": {"call-in-high-context"},
}

DEEP_DEPTH, DEEP_CHAINS = 40, 2
SINK_DEPTH = 80
SCC_CYCLES, SCC_LENGTH = 25, 3
WIDE_TABLES, WIDE_ACTIONS, WIDE_KEYS = 8, 4, 2
CHAIN_LEVELS, CHAIN_ROUNDS = 16, 6
SHARDS, SHARD_DEPTH = 6, 15

_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
from calibrate import calibrate
calibrate()
before = calibrate()
start = time.perf_counter_ns()
import repro.tool.cli
wall = time.perf_counter_ns() - start
after = calibrate()
print(wall, before, after, callable(repro.tool.cli.main))
"""


@dataclass
class Program:
    name: str
    source: str
    lattice: str
    infer: bool
    #: Known answer: does the report dict match what the program must give?
    expect: Callable[[dict], bool]


def _kinds(report: dict) -> set:
    return {diag["kind"] for diag in report["ifc_diagnostics"]}


def _accepted(report: dict) -> bool:
    return report["ok"] and not report["core_diagnostics"] and not report["ifc_diagnostics"]


def _labels(report: dict) -> Dict[str, str]:
    return {entry["slot"]: entry["label"] for entry in report["inference"]["labels"]}


def _all_slots_at(slots: List[str], level: str) -> Callable[[dict], bool]:
    expected = {f"field {slot}": level for slot in slots}
    return lambda report: _accepted(report) and _labels(report) == expected


def _one_conflict(slots: List[str], level: str) -> Callable[[dict], bool]:
    expected = {f"field {slot}": level for slot in slots}

    def expect(report: dict) -> bool:
        inference = report["inference"]
        return (
            not report["ok"]
            and len(inference["conflicts"]) == 1
            and _labels(report) == expected
        )

    return expect


def _rejected_with(kinds: set) -> Callable[[dict], bool]:
    return lambda report: not report["ok"] and _kinds(report) == kinds


def build_corpus(seed: int) -> List[Program]:
    """The fixed corpus; ``seed`` only varies the wide tables' constants."""
    from repro.casestudies import all_case_studies
    from repro.casestudies.base import strip_body_annotations
    from repro.synth.programs import (
        chain_pipeline_program,
        deep_dataflow_program,
        scc_cycle_program,
        sharded_dataflow_program,
        wide_table_program,
    )

    corpus: List[Program] = []
    for study in all_case_studies():
        lattice = study.lattice_name
        corpus.append(Program(f"{study.name}-secure", study.secure_source, lattice, False, _accepted))
        corpus.append(Program(
            f"{study.name}-insecure", study.insecure_source, lattice, False,
            _rejected_with(INSECURE_KINDS[study.name]),
        ))
        corpus.append(Program(
            f"{study.name}-stripped", strip_body_annotations(study.secure_source),
            lattice, True, _accepted,
        ))

    deep = [f"data_t.c{c}_s{i}" for c in range(DEEP_CHAINS) for i in range(DEEP_DEPTH)]
    corpus.append(Program(
        "deep-2x40", deep_dataflow_program(DEEP_DEPTH, chains=DEEP_CHAINS),
        "two-point", True, _all_slots_at(deep, "high"),
    ))
    sink = [f"data_t.c0_s{i}" for i in range(SINK_DEPTH)]
    corpus.append(Program(
        "deep-low-sink", deep_dataflow_program(SINK_DEPTH, sink_level="low"),
        "two-point", True, _one_conflict(sink, "high"),
    ))
    rings = [f"data_t.c{c}_n{i}" for c in range(SCC_CYCLES) for i in range(SCC_LENGTH)]
    corpus.append(Program(
        "scc-rings", scc_cycle_program(SCC_CYCLES, SCC_LENGTH),
        "two-point", True, _all_slots_at(rings, "high"),
    ))
    corpus.append(Program(
        "wide-insecure",
        wide_table_program(
            tables=WIDE_TABLES, actions_per_table=WIDE_ACTIONS,
            keys_per_table=WIDE_KEYS, secure=False, seed=seed,
        ),
        "two-point", False, _rejected_with({"table-key-flow"}),
    ))
    corpus.append(Program(
        "chain-16",
        chain_pipeline_program([f"L{i}" for i in range(CHAIN_LEVELS)], rounds=CHAIN_ROUNDS),
        f"chain-{CHAIN_LEVELS}", True, _all_slots_at([], "L0"),
    ))
    shards = [f"shard{k}_t.s{i}" for k in range(SHARDS) for i in range(SHARD_DEPTH)]
    corpus.append(Program(
        "sharded-diamond",
        sharded_dataflow_program(SHARDS, depth=SHARD_DEPTH, source_level="A"),
        "diamond", True, _all_slots_at(shards, "A"),
    ))
    return corpus


def _check(program: Program) -> dict:
    from repro import check_source
    from repro.tool import report

    return report.report_to_dict(
        check_source(program.source, program.lattice, infer=program.infer, filename=program.name)
    )


def _counter(programs: List[Program]):
    # A one-shot check generates every unit of an inferred program afresh.
    units = sum(len(top_level_units(p.source)) for p in programs if p.infer)

    def count(tracer: Tracer, reports: List[dict]) -> None:
        for report in reports:
            count_inference(tracer, report)
        tracer.count("workspace.units_changed", units)

    return count


class Workload:
    SETUP_REPS = 5

    def __init__(self, seed: int) -> None:
        self.corpus = build_corpus(seed)
        self.single = next(p for p in self.corpus if p.name == "d2r-stripped")
        self._steps = [
            Step("op", [partial(_check, program) for program in self.corpus],
                 self._pass_ok, _counter(self.corpus),
                 [program.source for program in self.corpus]),
            Step("update", [partial(_check, self.single)],
                 lambda reports: self.single.expect(reports[0]),
                 _counter([self.single]), [self.single.source]),
        ]
        # One untimed import fills __pycache__, as any installed p4bid has.
        self._import_once()

    def _import_once(self):
        here = str(Path(__file__).resolve().parent)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, here],
            capture_output=True, text=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH="src"),
        )
        wall_ns, before, after, has_main = done.stdout.split()
        if has_main != "True":
            raise RuntimeError("repro.tool.cli has no main()")
        return int(wall_ns), float(before), float(after)

    def setup_once(self) -> float:
        wall_ns, before, after = self._import_once()
        return wall_ns / 1e9 * factor(before, after)

    def _pass_ok(self, reports: List[dict]) -> bool:
        return len(reports) == len(self.corpus) and all(
            program.expect(report) for program, report in zip(self.corpus, reports)
        )

    def cycle(self, index: int) -> List[Step]:
        return self._steps

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        return run_steps(self.cycle, seconds, tracer)
