"""Cross-process determinism of conflicts, unsat cores, and witnesses.

Python randomises ``hash()`` per process (PYTHONHASHSEED), so any dict or
set iteration order that leaks into solver output shows up as run-to-run
diffs -- breaking SARIF baselines, golden tests, and CI annotations.  The
solver sorts every such tie-break by variable uid; this test pins that by
running the same leaky program under several hash seeds in subprocesses
and asserting byte-identical conflict, core, and witness output.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Several interleaved leaks through shared unannotated locals: enough
#: variables and edges that an unsorted frozenset iteration would surface.
PROGRAM = """\
header h_t {
    <bit<8>, high> s1;
    <bit<8>, high> s2;
    <bit<8>, low> p1;
    <bit<8>, low> p2;
    <bit<8>, low> p3;
}

control C(inout h_t hdr) {
    bit<8> a = hdr.s1;
    bit<8> b = hdr.s2;
    bit<8> c = a;
    bit<8> d = b;
    apply {
        hdr.p1 = c;
        hdr.p2 = d;
        hdr.p3 = a + b;
    }
}
"""

SCRIPT = """\
import sys

from repro.analysis import witnesses_for_solution
from repro.frontend.parser import parse_program
from repro.inference import infer_labels
from repro.lattice.registry import get_lattice

source = sys.stdin.read()
lattice = get_lattice("two-point")
result = infer_labels(parse_program(source), lattice)
for conflict in result.solution.conflicts:
    print("conflict:", conflict)
    for constraint in conflict.core:
        print("  core:", constraint.span, constraint.describe())
for witness in witnesses_for_solution(result.solution):
    print(witness.describe(lattice))
for diag in result.diagnostics:
    print("diag:", diag)
"""


def _run(seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC_DIR)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        input=PROGRAM,
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return completed.stdout


def test_conflicts_cores_and_witnesses_are_hashseed_stable():
    outputs = {seed: _run(seed) for seed in ("0", "1", "42")}
    baseline = outputs["0"]
    assert "conflict:" in baseline and "core:" in baseline
    assert "leak path" in baseline
    for seed, output in outputs.items():
        assert output == baseline, f"PYTHONHASHSEED={seed} changed solver output"


#: The compliance workload end to end: scenario generation, replay
#: decisions, one deny explained with witness chains.  Every line printed
#: is part of the byte-stability contract BENCH_policy.json's differential
#: guard relies on.
POLICY_SCRIPT = """\
import sys

from repro.lattice.registry import get_lattice
from repro.policy import PolicyEngine, replay
from repro.synth import policy_traffic, scenario_universe

backend = sys.argv[1] if len(sys.argv) > 1 else "packed"
lattice = get_lattice("policy-12-8-4")
universe = scenario_universe(lattice, subjects=10, datasets=14, seed=7)
events = policy_traffic(universe, events=150, revoke_every=30, seed=7)
engine = PolicyEngine(universe, backend=backend)
report = replay(engine, events)
for line in report.decision_log():
    print(line)
denied = next(d for d in report.decisions if not d.permit)
explanation = engine.explain(denied.request)
print(explanation.describe(engine))
solution = engine.audit([d.request for d in report.decisions[:40]])
for conflict in solution.conflicts:
    print("conflict:", conflict.constraint.describe())
"""


def _run_policy(seed: str, backend: str = "packed") -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = str(SRC_DIR)
    completed = subprocess.run(
        [sys.executable, "-c", POLICY_SCRIPT, backend],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return completed.stdout


def test_policy_decisions_and_witnesses_are_hashseed_stable():
    """Policy decision logs, deny explanations, and audit conflicts are
    byte-identical across hash seeds and decision backends -- the
    powerset components of a policy label are frozensets, so any unsorted
    iteration would surface here."""
    baseline = _run_policy("0", backend="packed")
    assert " DENY " in baseline and " PERMIT " in baseline
    assert "leak path" in baseline
    for seed in ("1", "42"):
        output = _run_policy(seed, backend="packed")
        assert output == baseline, f"PYTHONHASHSEED={seed} changed policy output"
    assert _run_policy("0", backend="graph") == baseline, (
        "graph backend diverged from packed on the policy workload"
    )
