"""``warm_edit``: a served editor session.

One in-process ``WorkspaceServer`` holds
``sharded_dataflow_program(20, depth=30, source_level="low")`` (34 KB,
600 slots, two-point); JSON-RPC lines go through ``handle_line``.

* Op: an ``edit`` that raises one shard's ``seed`` to ``high`` (the next
  op lowers it back), followed by ``check {infer: true}``.
* Update: ``pin`` one mid-chain slot to ``high`` then ``check``; the next
  update unpins it and checks.

Each cycle is raise, lower, pin, unpin, so the session returns to its
prior state; the shard and slot rotate with the seed and the cycle.

Set-up is what a session pays before its first op: ``open`` + the first
``check {infer: true}`` on a fresh server.

Known answers, by construction: every slot ``sK.s{j}`` copies its
shard's ``seed`` down a chain, so after raising shard K exactly its 30
slots are ``high``; a pin of ``sK.s{j}`` raises exactly ``s{j}..s29`` of
that shard; otherwise every slot is ``low``.
"""

from __future__ import annotations

import json
import time
from functools import partial
from typing import Dict, List, Optional

from calibrate import calibrate, factor
from harness import Measurement, Step, changed_units, count_inference, run_steps
from spans import Tracer

SHARDS, DEPTH = 20, 30
#: Pinned slots rotate over the middle of the chain.
PIN_FIRST, PIN_SPAN = 5, 20


def _request(method: str, **params) -> str:
    return json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params})


def _slot(shard: int, index: int) -> str:
    return f"field shard{shard}_t.s{index}"


def _result(line: str) -> dict:
    return json.loads(line)["result"]


class Workload:
    SETUP_REPS = 5

    def __init__(self, seed: int) -> None:
        from repro.synth.programs import sharded_dataflow_program

        self.seed = seed
        self.source = sharded_dataflow_program(SHARDS, depth=DEPTH, source_level="low")
        self.open_line = _request("open", source=self.source, filename="sharded.p4")
        self.check_line = _request("check", infer=True)
        self.raised: List[str] = []
        self.raise_lines: List[str] = []
        for shard in range(SHARDS):
            low = f"header shard{shard}_t {{\n    <bit<8>, low> seed;"
            if self.source.count(low) != 1:
                raise RuntimeError(f"cannot locate shard {shard}'s seed")
            raised = self.source.replace(low, low.replace("low", "high"))
            self.raised.append(raised)
            self.raise_lines.append(_request("edit", source=raised))
        self.lower_line = _request("edit", source=self.source)
        # Raising a seed rewrites one top-level unit, whichever the shard.
        self.units_changed = changed_units(self.source, self.raised[0])
        self.all_low = {_slot(k, i): "low" for k in range(SHARDS) for i in range(DEPTH)}
        self.server = None

    # ------------------------------------------------------------ answers

    def _expect(self, high: Dict[str, str]) -> Dict[str, str]:
        expected = dict(self.all_low)
        expected.update(high)
        return expected

    def _labels_ok(self, lines: List[str], expected: Dict[str, str]) -> bool:
        report = _result(lines[-1])
        labels = {e["slot"]: e["label"] for e in report["inference"]["labels"]}
        return report["ok"] and not report["ifc_diagnostics"] and labels == expected

    # ------------------------------------------------------------ set-up

    def setup_once(self) -> float:
        from repro.workspace.rpc import WorkspaceServer

        before = calibrate()
        start = time.perf_counter_ns()
        server = WorkspaceServer()
        lines = [server.handle_line(self.open_line), server.handle_line(self.check_line)]
        wall_ns = time.perf_counter_ns() - start
        after = calibrate()
        if not self._labels_ok(lines, self.all_low):
            raise RuntimeError("the opened session did not infer every slot low")
        self.server = server
        return wall_ns / 1e9 * factor(before, after)

    # ------------------------------------------------------------ the loop

    def _calls(self, *lines: str):
        return [partial(self.server.handle_line, line) for line in lines]

    def _count(self, edited: bool):
        def count(tracer: Tracer, lines: List[str]) -> None:
            count_inference(tracer, _result(lines[-1]))
            if edited:
                tracer.count("workspace.units_changed", self.units_changed)

        return count

    def cycle(self, index: int) -> List[Step]:
        shard = (self.seed + index) % SHARDS
        pinned = (self.seed * 7 + index + SHARDS // 2) % SHARDS
        first = PIN_FIRST + (self.seed * 3 + index) % PIN_SPAN
        slot = _slot(pinned, first)
        raised = {_slot(shard, i): "high" for i in range(DEPTH)}
        pinned_high = {_slot(pinned, i): "high" for i in range(first, DEPTH)}
        expect_raised = self._expect(raised)
        expect_pinned = self._expect(pinned_high)

        def pin_ok(lines: List[str]) -> bool:
            return _result(lines[0])["pins"] == {slot: "high"} and self._labels_ok(
                lines, expect_pinned
            )

        def unpin_ok(lines: List[str]) -> bool:
            return _result(lines[0])["pins"] == {} and self._labels_ok(lines, self.all_low)

        return [
            Step("op", self._calls(self.raise_lines[shard], self.check_line),
                 lambda lines: self._labels_ok(lines, expect_raised),
                 self._count(True), [self.raised[shard]]),
            Step("op", self._calls(self.lower_line, self.check_line),
                 lambda lines: self._labels_ok(lines, self.all_low),
                 self._count(True), [self.source]),
            Step("update", self._calls(_request("pin", slot=slot, label="high"), self.check_line),
                 pin_ok, self._count(False)),
            Step("update", self._calls(_request("pin", slot=slot, label=None), self.check_line),
                 unpin_ok, self._count(False)),
        ]

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        if self.server is None:
            self.setup_once()
        # One untimed cycle builds the persistent solver the first warm
        # operation constructs; every timed cycle then does the same work.
        for step in self.cycle(-1):
            if not step.check([call() for call in step.calls]):
                raise RuntimeError(f"warm-up {step.kind} gave a wrong answer")
        return run_steps(self.cycle, seconds, tracer)
