"""Replaying scenario traffic through an engine at sustained rate.

:func:`replay` drives a :class:`~repro.policy.engine.PolicyEngine` over a
:mod:`repro.synth.policy_traffic` event stream and separates the two
things a throughput harness must never conflate:

* the **decision log** — deterministic, byte-identical for a given
  ``(universe, stream)`` regardless of hash seed or machine load; this
  is what the differential and determinism suites compare;
* the **timing report** — checks/sec plus p50/p95/p99 latency from a
  local power-of-two :class:`~repro.telemetry.recorder.Histogram` of
  per-decision microseconds; this is what ``p4bid policy check``
  reports.

``rate`` (requests/sec) paces the replay with monotonic-clock sleeps for
soak runs; the default ``None`` replays at full speed, which is what a
throughput measurement wants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.policy.engine import Decision, PolicyEngine
from repro.telemetry.recorder import Histogram, current_recorder

if TYPE_CHECKING:  # pragma: no cover - type-only import (synth imports us)
    from repro.synth.policy_traffic import TrafficEvent


@dataclass
class ReplayReport:
    """The outcome of one replay: decision log + timing summary."""

    engine: PolicyEngine
    decisions: List[Decision] = field(default_factory=list)
    revocations: int = 0
    duration_s: float = 0.0
    #: Per-decision latency in microseconds (power-of-two buckets).
    latency_us: Histogram = field(default_factory=Histogram)

    @property
    def checks_per_sec(self) -> float:
        if self.duration_s <= 0.0:
            return 0.0
        return len(self.decisions) / self.duration_s

    @property
    def permits(self) -> int:
        return sum(1 for decision in self.decisions if decision.permit)

    @property
    def denies(self) -> int:
        return len(self.decisions) - self.permits

    def decision_log(self) -> List[str]:
        """One deterministic line per decision — the byte-stability surface.

        Contains no timing, nothing environmental: two replays of the same
        stream must produce identical logs whatever machine decided them.
        """
        lattice = self.engine.universe.lattice
        return [
            f"{decision.request.uid} {decision.request.kind} "
            f"{decision.request.dataset} "
            f"{'PERMIT' if decision.permit else 'DENY'} "
            f"demand={decision.demand} bound={lattice.format_label(decision.bound)}"
            for decision in self.decisions
        ]

    def as_dict(self) -> Dict[str, Any]:
        quantiles = self.latency_us.percentiles()
        return {
            "lattice": self.engine.universe.lattice.name,
            "principals": self.engine.universe.lattice.principal_count,
            "events": len(self.decisions) + self.revocations,
            "decisions": len(self.decisions),
            "permits": self.permits,
            "denies": self.denies,
            "revocations": self.revocations,
            "duration_s": self.duration_s,
            "checks_per_sec": self.checks_per_sec,
            "latency_us": {
                "mean": self.latency_us.mean,
                "p50": quantiles["p50"],
                "p95": quantiles["p95"],
                "p99": quantiles["p99"],
                "max": self.latency_us.maximum,
            },
        }

    def describe(self) -> str:
        payload = self.as_dict()
        quantiles = payload["latency_us"]
        return (
            f"{payload['decisions']} decisions "
            f"({payload['permits']} permit / {payload['denies']} deny, "
            f"{payload['revocations']} revocation(s)) over "
            f"{payload['lattice']}: {payload['checks_per_sec']:,.0f} "
            f"checks/sec, latency p50={quantiles['p50']:.1f}us "
            f"p95={quantiles['p95']:.1f}us p99={quantiles['p99']:.1f}us"
        )


def replay(
    engine: PolicyEngine,
    events: List["TrafficEvent"],
    *,
    rate: Optional[float] = None,
) -> ReplayReport:
    """Replay ``events`` through ``engine``, timing every decision.

    ``rate`` paces request admission at that many events/sec (monotonic
    deadline schedule, so pacing error does not accumulate); ``None``
    replays as fast as the engine decides.
    """
    if rate is not None and rate <= 0.0:
        raise ValueError(f"replay rate must be positive, got {rate!r}")
    report = ReplayReport(engine)
    recorder = current_recorder()
    with recorder.span("policy.replay", events=len(events)):
        started = time.perf_counter()
        for index, event in enumerate(events):
            if rate is not None:
                deadline = started + index / rate
                remaining = deadline - time.perf_counter()
                if remaining > 0.0:
                    time.sleep(remaining)
            if event.regrant is not None:
                subject, bound = event.regrant
                engine.set_grant(subject, bound)
                report.revocations += 1
                continue
            assert event.request is not None
            before = time.perf_counter_ns()
            decision = engine.decide(event.request)
            report.latency_us.record((time.perf_counter_ns() - before) / 1000.0)
            report.decisions.append(decision)
        report.duration_s = time.perf_counter() - started
        if recorder.enabled:
            recorder.count("policy.replayed_events", len(events))
    return report
