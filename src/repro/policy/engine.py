"""The batch decision engine: ``decide(request) -> permit/deny + witness``.

Compilation and decision are separate stages because the workload is
read-heavy: consent changes are rare, requests are not.

* **compile** — every dataset's effective consent bound (the meet over
  its lineage closure) is computed once and packed into an int by the
  lattice's :class:`~repro.lattice.policy.PolicyCodec`.  A consent
  update re-compiles only the datasets whose closure contains the
  updated subject.

* **decide** — one ``⊑`` check: ``demand | bound == bound`` over cached
  ints, where the demand's int is three table lookups.  No label object
  is built; :attr:`Decision.demand` is built only when read.  The
  differential suites pin every decision to the object lattice's
  :meth:`~repro.lattice.policy.PolicyLattice.leq` as the oracle.

* **explain** — a denied request is re-phrased as a tiny constraint
  system (the demand propagates up the derivation lineage; every
  contributing subject's grant is a check obligation) and solved by
  :func:`~repro.inference.solve.solve`, so the leak-witness machinery
  reports the *shortest policy-violation chain*: request → derivation
  hops → the consent bound it breaks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.witness import LeakWitness, witnesses_for_solution
from repro.ifc.errors import ViolationKind
from repro.inference.constraints import Constraint
from repro.inference.solve import Solution, solve
from repro.inference.terms import ConstTerm, LabelVar, VarSupply, VarTerm
from repro.lattice.policy import PolicyCodec, PolicyLabel
from repro.policy.model import PolicyError, PolicyUniverse, Request
from repro.telemetry.recorder import current_recorder


@dataclass(frozen=True)
class Decision:
    """The outcome of one compliance check, deterministic by construction."""

    request: Request
    permit: bool
    bound: PolicyLabel

    @property
    def demand(self) -> PolicyLabel:
        """The label the request demands, built when something reads it."""
        request = self.request
        return PolicyLabel(
            frozenset((request.purpose,)),
            frozenset((request.recipient,)),
            request.retention,
        )

    def as_dict(self, engine: "PolicyEngine") -> Dict[str, Any]:
        lattice = engine.universe.lattice
        return {
            "request": self.request.uid,
            "kind": self.request.kind,
            "dataset": self.request.dataset,
            "permit": self.permit,
            "demand": lattice.format_label(self.demand),
            "bound": lattice.format_label(self.bound),
        }

    def describe(self, engine: "PolicyEngine") -> str:
        lattice = engine.universe.lattice
        verdict = "PERMIT" if self.permit else "DENY"
        return (
            f"{verdict} {self.request.describe()} — demands "
            f"{lattice.format_label(self.demand)}, bound "
            f"{lattice.format_label(self.bound)}"
        )


@dataclass(frozen=True)
class Explanation:
    """Why a request was denied: the shortest policy-violation chain."""

    decision: Decision
    #: One witness per violated consent bound, shortest chain first.
    witnesses: Tuple[LeakWitness, ...]
    #: The subjects whose grants the request violates, sorted.
    violated_subjects: Tuple[str, ...]

    def describe(self, engine: "PolicyEngine") -> str:
        lattice = engine.universe.lattice
        lines = [self.decision.describe(engine)]
        if not self.witnesses:
            lines.append("  (permitted: nothing to explain)")
        for witness in self.witnesses:
            lines.extend(
                "  " + line for line in witness.describe(lattice).splitlines()
            )
        return "\n".join(lines)


class PolicyEngine:
    """Decides compliance requests against one :class:`PolicyUniverse`."""

    def __init__(self, universe: PolicyUniverse) -> None:
        self.universe = universe
        lattice = universe.lattice
        self._codec = PolicyCodec(lattice)
        self._bounds: Dict[str, PolicyLabel] = {}
        self._bound_bits: Dict[str, int] = {}
        self._subject_datasets: Dict[str, Tuple[str, ...]] = {}
        # Per-component demand bit tables: a request encodes as three dict
        # lookups and two ORs, no label objects.
        encode = self._codec.encode
        self._purpose_bits = {
            name: encode(lattice.label([name])) for name in lattice.purposes
        }
        self._recipient_bits = {
            name: encode(lattice.label(recipients=[name]))
            for name in lattice.recipients
        }
        self._retention_bits = {
            name: encode(lattice.label(retention=name))
            for name in lattice.retention_classes
        }
        self.decisions = 0
        self.permits = 0
        self.denies = 0
        self.revocations = 0
        self._compile_all()

    # -- compilation --------------------------------------------------------

    def _compile_all(self) -> None:
        recorder = current_recorder()
        with recorder.span("policy.compile", lattice=self.universe.lattice.name):
            by_subject: Dict[str, List[str]] = {}
            for name in self.universe.datasets:
                for subject in self.universe.contributing_subjects(name):
                    by_subject.setdefault(subject, []).append(name)
                self._compile_dataset(name)
            self._subject_datasets = {
                subject: tuple(names) for subject, names in by_subject.items()
            }
            recorder.count("policy.compiled_bounds", len(self._bounds))

    def _compile_dataset(self, name: str) -> None:
        bound = self.universe.effective_bound(name)
        self._bounds[name] = bound
        self._bound_bits[name] = self._codec.encode(bound)

    # -- decisions ----------------------------------------------------------

    def decide(self, request: Request) -> Decision:
        recorder = current_recorder()
        started = time.perf_counter_ns() if recorder.enabled else 0
        # Demand validation *is* the bit lookup; the ⊑ check is one OR and
        # one compare over cached ints.
        try:
            demand_bits = (
                self._purpose_bits[request.purpose]
                | self._recipient_bits[request.recipient]
                | self._retention_bits[request.retention]
            )
            bound_bits = self._bound_bits[request.dataset]
        except KeyError as exc:
            raise PolicyError(
                f"{request.describe()} names unknown dataset or labels "
                f"outside lattice {self.universe.lattice.name!r}"
            ) from exc
        permit = demand_bits | bound_bits == bound_bits
        self.decisions += 1
        if permit:
            self.permits += 1
        else:
            self.denies += 1
        if recorder.enabled:
            recorder.count("policy.decisions")
            recorder.count("policy.permits" if permit else "policy.denies")
            recorder.observe(
                "policy.decide_us", (time.perf_counter_ns() - started) / 1000.0
            )
        return Decision(request, permit, self._bounds[request.dataset])

    # -- consent updates ----------------------------------------------------

    def set_grant(self, subject: str, bound: PolicyLabel) -> Tuple[str, ...]:
        """Apply a consent grant/revocation; returns the datasets whose
        effective bound was re-compiled (the subject's lineage fan-out)."""
        recorder = current_recorder()
        started = time.perf_counter_ns() if recorder.enabled else 0
        with recorder.span("policy.regrant", subject=subject):
            self.universe.set_grant(subject, bound)
            affected = self._subject_datasets.get(subject, ())
            for name in affected:
                self._compile_dataset(name)
            self.revocations += 1
            recorder.count("policy.revocations")
            recorder.count("policy.recompiled_bounds", len(affected))
        if recorder.enabled:
            recorder.observe(
                "policy.regrant_us", (time.perf_counter_ns() - started) / 1000.0
            )
        return affected

    # -- explanations -------------------------------------------------------

    def _lineage_system(self, request: Request) -> List[Constraint]:
        """The request as a constraint system over its lineage.

        One variable per dataset on the lineage paths ("the use demanded of
        this dataset"); the request's demand seeds the target; derived use
        counts as use of every source (``use(child) ⊑ use(parent)``); each
        direct subject's grant is a check obligation.
        """
        universe = self.universe
        supply = VarSupply()
        use_of: Dict[str, LabelVar] = {}

        def use_var(name: str) -> LabelVar:
            var = use_of.get(name)
            if var is None:
                var = supply.fresh(hint=f"use({name})")
                use_of[name] = var
            return var

        constraints: List[Constraint] = []
        demand = universe.demand(request)
        pending = [request.dataset]
        seen = set()
        constraints.append(
            Constraint(
                ConstTerm(demand),
                VarTerm(use_var(request.dataset)),
                rule="policy-request",
                kind=ViolationKind.EXPLICIT_FLOW,
                reason=request.describe(),
            )
        )
        while pending:
            name = pending.pop()
            if name in seen:
                continue
            seen.add(name)
            dataset = universe.dataset(name)
            for parent in dataset.parents:
                constraints.append(
                    Constraint(
                        VarTerm(use_var(name)),
                        VarTerm(use_var(parent)),
                        rule="policy-derivation",
                        kind=ViolationKind.EXPLICIT_FLOW,
                        reason=f"{name!r} is derived from {parent!r}",
                    )
                )
                pending.append(parent)
            for subject in sorted(dataset.subjects):
                constraints.append(
                    Constraint(
                        VarTerm(use_var(name)),
                        ConstTerm(universe.grant(subject)),
                        rule="policy-consent",
                        kind=ViolationKind.DECLASSIFICATION,
                        reason=f"consent bound of subject {subject!r} on {name!r}",
                    )
                )
        return constraints

    def explain(self, request: Request) -> Explanation:
        """Explain ``request``; denies get shortest policy-violation chains.

        Explanations solve the request's lineage system and walk the
        propagation graph with the witness BFS; they are cold-path by
        design."""
        with current_recorder().span("policy.explain", request=request.uid):
            decision = self.decide(request)
            if decision.permit:
                return Explanation(decision, (), ())
            constraints = self._lineage_system(request)
            solution = solve(self.universe.lattice, constraints)
            witnesses = tuple(witnesses_for_solution(solution))
            violated = sorted(
                {
                    _subject_of(witness.conflict.constraint.reason)
                    for witness in witnesses
                }
                - {None}
            )
            return Explanation(decision, witnesses, tuple(violated))

    # -- audits -------------------------------------------------------------

    def audit(self, requests: List[Request]) -> Solution:
        """Solve every request's lineage system as *one* batch (the surface
        the determinism suite pins across hash seeds)."""
        constraints: List[Constraint] = []
        for request in requests:
            constraints.extend(self._lineage_system(request))
        return solve(self.universe.lattice, constraints)

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "lattice": self.universe.lattice.name,
            "principals": self.universe.lattice.principal_count,
            "subjects": len(self.universe.subjects),
            "datasets": len(self.universe.datasets),
            "decisions": self.decisions,
            "permits": self.permits,
            "denies": self.denies,
            "revocations": self.revocations,
        }


def _subject_of(reason: str) -> Optional[str]:
    """Recover the subject name from a ``policy-consent`` reason string."""
    marker = "consent bound of subject "
    if not reason.startswith(marker):
        return None
    rest = reason[len(marker):]
    if not rest.startswith("'"):
        return None
    return rest[1 : rest.index("'", 1)]
