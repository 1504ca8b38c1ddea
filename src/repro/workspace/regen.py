"""Incremental constraint re-generation over a persistent symbolic walk.

:class:`IncrementalGenerator` owns one long-lived
:class:`~repro.flow.symbolic.SymbolicAlgebra` -- and with it the variable
supply and :class:`~repro.inference.generate.SiteRegistry` whose node
identities anchor every label variable ever allocated -- and the
per-unit states of the last revision.

:meth:`IncrementalGenerator.plan` diffs a new revision against those
states (:mod:`repro.workspace.diff`) and settles them: every per-unit
cache of a *dirty* unit is dropped -- its generated constraints,
elaborated node and IFC products.  A unit that only moved
keeps them all: their spans are relative to the unit's anchor, which the
parser or the diff re-based.  The workspace plans once per revision,
before its first phase, so generation, elaboration and the IFC check all
read the same verdicts.

:meth:`IncrementalGenerator.refresh` then runs the real
:class:`~repro.flow.analysis.FlowAnalysis` walk through the per-unit
loop (:func:`repro.flow.units.drive_units`) with the states as its
cache: a unit that still holds its generated products replays its
recorded context effects (Γ bindings, Δ definitions, inferred write
bounds) and reuses its constraints, diagnostics and touched annotation
sites verbatim; every other unit is re-walked, its outputs captured on
their own.  The same loop, with the concrete algebra, runs the IFC
check of the elaborated program (or of the source, without inference).

The merge of per-unit products reproduces what a cold
:func:`~repro.inference.generate.generate_constraints` over the same
source would build.  The constraints stay in per-unit buckets: the
global list is their concatenation in unit order, with no second
deduplication (each unit's list is duplicate-free and the dedup key
includes the span, so no two units emit the same constraint), and a
unit that kept its products hands the solver the very bucket it did
last time, so :meth:`~repro.inference.engine.Solver.rebase` patches
only the buckets that changed.  The live site list is the
first-occurrence union of the units' touch logs -- which on a fully
dirty refresh *is* allocation order.  A matched unit keeps its old AST
node, so its sites keep their variables, and warm output renders
identically to a cold run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.flow.analysis import FlowAnalysis
from repro.flow.symbolic import SymbolicAlgebra
from repro.inference.generate import GenerationResult, InferenceSite
from repro.lattice.base import Lattice
from repro.syntax.program import Program
from repro.syntax.source import anchor_of
from repro.telemetry import current_recorder
from repro.workspace.diff import StateSlots, UnitState, diff_program


@dataclass
class RegenStats:
    """What one :meth:`IncrementalGenerator.refresh` reused vs. redid."""

    units_total: int = 0
    units_reused: int = 0
    units_rewalked: int = 0
    #: Reused units whose start offset moved since the last plan.
    units_respanned: int = 0
    constraints_reused: int = 0
    constraints_regenerated: int = 0
    sites_live: int = 0


class IncrementalGenerator:
    """A persistent constraint generator that re-walks only dirty units."""

    def __init__(
        self, lattice: Lattice, *, allow_declassification: bool = False
    ) -> None:
        self.lattice = lattice
        self.allow_declassification = allow_declassification
        self.algebra = SymbolicAlgebra(
            lattice, allow_declassification=allow_declassification
        )
        self.units: List[UnitState] = []
        #: The revision the unit states were last planned against.
        self.program: Optional[Program] = None
        self._moved = 0
        self.last = RegenStats()
        #: The sites the last refresh dropped or made.
        self.changed_sites: List[InferenceSite] = []

    # ------------------------------------------------------------------ plan

    def plan(self, program: Program, *, adopted: bool = False) -> Program:
        """Diff ``program`` against the cached unit states and settle them.

        Every cache of a *dirty* unit is dropped here -- its generated
        constraints, elaborated node and IFC products --
        so a later phase, whichever revision it first runs at, re-walks
        exactly the units still lacking products.

        ``adopted``: ``program`` was parsed outside the workspace, so its
        nodes' anchors must never be re-based (:func:`diff_program`).

        Returns the assembled revision: the states' nodes in unit order,
        which every later phase must see.
        """
        first = not self.units
        previous = self.units
        plans = diff_program(previous, program, adopted=adopted)
        self.units = [plan.state for plan in plans]
        live = {id(state) for state in self.units}
        registry = self.algebra.registry
        for state in previous:
            if id(state) not in live:
                registry.forget_hints(state.hinted)
        moved = 0
        for plan in plans:
            state = plan.state
            if plan.dirty:
                state.generated = None
                state.elaborated = None
                state.ifc = None
                state.labels = None
            anchor = anchor_of(state.node.span)
            start = None if anchor is None else anchor.start
            if not plan.dirty and start != state.start:
                moved += 1
            state.start = start
        self._moved = moved
        if not first:
            program = Program(
                tuple(state.node for state in self.units if not state.is_control),
                tuple(state.node for state in self.units if state.is_control),
                span=program.span,
                name=program.name,
            )
        self.program = program
        return program

    # ------------------------------------------------------------------ refresh

    def refresh(self, program: Program) -> GenerationResult:
        """Bring the cached constraint system up to date with ``program``.

        ``program`` is normally what :meth:`plan` just returned; any
        other program is planned first.
        """
        if program is not self.program:
            program = self.plan(program)
        algebra = self.algebra
        # The algebra captured the ambient recorder at construction; a
        # long-lived workspace must see the recorder of *this* check.
        algebra.telemetry = current_recorder()
        registry = algebra.registry

        cache = StateSlots(self.units, "generated")
        analysis = FlowAnalysis(algebra)
        analysis.run(program, cache)

        stats = RegenStats(
            units_total=len(self.units),
            units_rewalked=cache.walked,
            units_reused=len(self.units) - cache.walked,
            units_respanned=self._moved,
        )
        # The live sites are the first-occurrence union of the units'
        # touch logs -- on a fully dirty refresh, allocation order.  A unit
        # whose share of it changed drops its inferred labels.
        sites: List[InferenceSite] = []
        seen_sites: set = set()
        for state, fresh in zip(self.units, cache.fresh):
            outputs = state.generated.outputs
            if fresh:
                stats.constraints_regenerated += len(outputs.constraints)
                state.hinted = outputs.hinted
            else:
                stats.constraints_reused += len(outputs.constraints)
            touched = outputs.unique_touches()
            if seen_sites.isdisjoint(touched):
                # The unit's share is all it touched: its old share, unless
                # an earlier unit claimed some of it then.
                seen_sites.update(touched)
                own = state.sites
                if fresh or own is None or len(own) != len(touched):
                    own = list(touched.values())
            else:
                own = []
                for key, site in touched.items():
                    if key not in seen_sites:
                        seen_sites.add(key)
                        own.append(site)
            if own is not state.sites and own != state.sites:
                state.sites = own
                state.labels = None
            sites.extend(own)
        self.changed_sites = registry.restrict_to(sites)

        stats.sites_live = len(sites)
        self.last = stats
        return GenerationResult(
            program,
            self.lattice,
            algebra.constraints,
            registry.sites(),
            registry,
            list(algebra.errors),
            dict(analysis.function_bounds),
            dict(analysis.table_bounds),
            list(algebra.control_pc_vars),
            algebra.buckets,
        )
