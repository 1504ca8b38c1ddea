"""Span recording for the traced run, from the benchmark's own files.

The traced run wraps each layer's public function (``_LAYER_TABLE``)
for the duration of a traced op and records one
span per call: name, start, end, parent span and op id.  A layer's *self
time* is its span minus the spans nested in it; the op itself is a span
named ``tool.glue``, so whatever the op spends outside every named layer
(pipeline bookkeeping, the benchmark's call overhead) lands in
``tool.glue`` and the layers' self times plus glue add up to the op.

The program's own ``repro.telemetry`` recorder stays off throughout.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

GLUE = "tool.glue"
#: Spans kept for the dump; later spans still count toward self times.
SPAN_CAP = 50_000


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self) -> None:
        #: The first ``SPAN_CAP`` spans, as ``(id, name, start_ns, end_ns,
        #: parent_id, op_id)``; written out by :meth:`dump`.
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self._stack: List[list] = []
        self._next_id = 0
        self.op_id = 0
        #: Raw self ns per layer since the last :meth:`flush`.
        self._pending: Dict[str, int] = defaultdict(int)
        #: Reference ms per layer, summed over the run.
        self.self_ms: Dict[str, float] = defaultdict(float)
        #: Reference ms of the op spans, summed over the run.
        self.op_ms = 0.0
        self._pending_op_ns = 0
        #: Counters taken from the layers' public return values.
        self.counts: Dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter_ns(), 0, self._next_id])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = time.perf_counter_ns()
        name, start, child_ns, sid = self._stack.pop()
        duration = end - start
        self._pending[name] += duration - child_ns
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.op_id))
        return duration

    def begin_op(self) -> None:
        self.op_id += 1
        self.resume_op()

    def resume_op(self) -> None:
        """Re-open the current op after a pause outside it."""
        self.enter(GLUE)

    def end_op(self) -> None:
        self._pending_op_ns += self.exit()

    def add(self, name: str, raw_ns: int) -> None:
        """Account ``raw_ns`` to ``name`` outside any op (e.g. standalone lexing)."""
        self._pending[name] += raw_ns

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def flush(self, factor: float) -> None:
        """Convert the pending raw self times with this interval's factor."""
        for name, raw_ns in self._pending.items():
            self.self_ms[name] += raw_ns / 1e6 * factor
        self._pending.clear()
        self.op_ms += self._pending_op_ns / 1e6 * factor
        self._pending_op_ns = 0

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "name", "start_ns", "end_ns", "parent", "op"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)


PostHook = Callable[[Tracer, tuple, object], None]


def _regen_counts(tracer: Tracer, args: tuple, result: object) -> None:
    stats = args[0].last
    tracer.count("workspace.units_rewalked", stats.units_rewalked)
    tracer.count("workspace.units_respanned", stats.units_respanned)
    tracer.count("workspace.constraints_regenerated", stats.constraints_regenerated)


def _regrant_counts(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("policy.regrants")
    tracer.count("policy.recompiled", len(result))


def _decision_counts(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("policy.decisions")
    tracer.count("policy.permits", 1 if result.permit else 0)


#: (module, owner attribute or None for the module itself, function, span, hook)
_LAYER_TABLE: Tuple[Tuple[str, Optional[str], str, str, Optional[PostHook]], ...] = (
    ("repro.workspace.session", None, "parse_program", "frontend.parse", None),
    ("repro.typechecker.checker", None, "check_core_types", "typechecker.core", None),
    ("repro.workspace.regen", "IncrementalGenerator", "refresh", "inference.generate", _regen_counts),
    ("repro.workspace.session", None, "solve", "inference.solve", None),
    ("repro.inference.engine", "Solver", "rebase", "inference.solve", None),
    ("repro.workspace.session", None, "elaborate_program", "inference.elaborate", None),
    ("repro.tool.pipeline", None, "check_ifc", "ifc.check", None),
    ("repro.tool.report", None, "report_to_dict", "tool.report", None),
    ("repro.workspace.session", "Workspace", "edit", "workspace.edit", None),
    ("repro.workspace.session", "Workspace", "infer", "workspace.infer", None),
    ("repro.workspace.session", "Workspace", "pin", "workspace.pin", None),
    ("repro.workspace.session", "Workspace", "check", GLUE, None),
    ("repro.workspace.session", "Workspace", "stats", GLUE, None),
    ("repro.workspace.rpc", "WorkspaceServer", "handle_line", "workspace.rpc", None),
    ("repro.policy.engine", "PolicyEngine", "decide", "policy.decide", _decision_counts),
    ("repro.policy.engine", "PolicyEngine", "set_grant", "policy.regrant", _regrant_counts),
)


#: Every span a traced op can contain; their self times partition the op.
OP_SPANS = tuple(dict.fromkeys([row[3] for row in _LAYER_TABLE] + [GLUE]))


def _wrap(function, name: str, tracer: Tracer, hook: Optional[PostHook]):
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


class Layers:
    """Installs and removes the span wrappers around the layer functions."""

    def __init__(self) -> None:
        self._targets = []
        for module_name, owner_name, attr, span, hook in _LAYER_TABLE:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            self._targets.append((owner, attr, owner.__dict__[attr], span, hook))

    def install(self, tracer: Tracer) -> None:
        for owner, attr, original, span, hook in self._targets:
            setattr(owner, attr, _wrap(original, span, tracer, hook))

    def uninstall(self) -> None:
        for owner, attr, original, _span, _hook in self._targets:
            setattr(owner, attr, original)
