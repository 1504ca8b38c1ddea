"""Incremental constraint re-generation over a persistent symbolic walk.

:class:`IncrementalGenerator` owns one long-lived
:class:`~repro.flow.symbolic.SymbolicAlgebra` -- and with it the variable
supply and :class:`~repro.inference.generate.SiteRegistry` whose node
identities anchor every label variable ever allocated.  Each call to
:meth:`IncrementalGenerator.refresh` diffs the new program revision
against the cached per-unit states (:mod:`repro.workspace.diff`), then:

* **clean** units replay their recorded context effects (Γ bindings, Δ
  definitions, inferred write bounds) and reuse their cached constraints,
  diagnostics, and touched annotation sites verbatim;
* **dirty** units are re-walked through the real
  :class:`~repro.flow.analysis.FlowAnalysis` traversal, with the
  algebra's per-unit outputs (constraint set, error list, pc vars)
  swapped out so exactly this unit's products are captured.

The merge of per-unit products reproduces what a cold
:func:`~repro.inference.generate.generate_constraints` over the same
source would build: the global constraint list re-deduplicates in unit
order (the dedup key includes the span, so per-unit capture cannot
manufacture cross-unit collisions), and the live site list is the
first-occurrence union of the units' touch logs -- which on a fully
dirty refresh *is* allocation order.  A matched unit keeps its old AST
node (so its sites keep their variables); one the parser re-parsed is
re-spanned in place to the new revision's positions, and its cached
constraints, diagnostics, and variable spans are rewritten through the
re-span map so warm output renders identically to a cold run.

Interception of context effects is by substitution, not patching:
:class:`RecordingContext` / :class:`RecordingDefs` subclass the real
contexts and log top-level ``bind`` / ``define`` calls when a log is
installed.  Their inherited ``child()`` returns *plain* instances, so
statement-level scopes inside function bodies record nothing -- only the
effects that outlive the unit are replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional

from repro.flow.analysis import FlowAnalysis
from repro.flow.symbolic import SymbolicAlgebra
from repro.ifc.context import SecurityContext, SecurityTypeDefs
from repro.ifc.security_types import SMatchKind, SecurityType
from repro.inference.constraints import ConstraintSet
from repro.inference.generate import GenerationResult, InferenceSite
from repro.lattice.base import Lattice
from repro.syntax.digest import iter_tree
from repro.syntax.program import Program
from repro.syntax.source import SourceSpan
from repro.syntax.types import AnnotatedType
from repro.telemetry import current_recorder
from repro.typechecker.checker import DEFAULT_MATCH_KINDS
from repro.workspace.diff import UnitState, diff_program


class RecordingDefs(SecurityTypeDefs):
    """Δ that logs top-level ``define`` calls when a log is installed."""

    def __init__(self) -> None:
        super().__init__()
        self.effects: Optional[list] = None

    def define(self, name: str, ty) -> None:
        if self.effects is not None:
            self.effects.append(("delta", name, ty))
        super().define(name, ty)


class RecordingContext(SecurityContext):
    """Γ that logs top-level ``bind`` calls when a log is installed."""

    def __init__(self) -> None:
        super().__init__()
        self.effects: Optional[list] = None

    def bind(self, name: str, sec_type) -> None:
        if self.effects is not None:
            self.effects.append(("gamma", name, sec_type))
        super().bind(name, sec_type)


class RecordingDict(dict):
    """Bounds dict (``function_bounds`` / ``table_bounds``) with a log."""

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag
        self.effects: Optional[list] = None

    def __setitem__(self, key, value) -> None:
        if self.effects is not None:
            self.effects.append((self.tag, key, value))
        super().__setitem__(key, value)


@dataclass
class RegenStats:
    """What one :meth:`IncrementalGenerator.refresh` reused vs. redid."""

    units_total: int = 0
    units_reused: int = 0
    units_rewalked: int = 0
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
        self.last = RegenStats()

    # ------------------------------------------------------------------ re-span

    def _apply_respan(
        self, state: UnitState, span_map: Dict[SourceSpan, SourceSpan]
    ) -> None:
        """Rewrite everything the unit cached that embeds old spans.

        The AST nodes themselves were already rewritten in place by
        :func:`~repro.syntax.digest.respan`; what remains are the values
        *derived* from them -- constraints and diagnostics (frozen, so
        rebuilt), label-variable spans, and the default ``annotation at
        <span>`` hints that bake a position into a string.
        """
        state.constraints = [
            dc_replace(c, span=span_map[c.span]) if c.span in span_map else c
            for c in state.constraints
        ]
        state.errors = [
            dc_replace(err, span=span_map[err.span]) if err.span in span_map else err
            for err in state.errors
        ]
        registry = self.algebra.registry
        for node in iter_tree(state.node):
            if not isinstance(node, AnnotatedType):
                continue
            site = registry.site_of(node)
            if site is None:
                continue
            var = site.var
            new_span = span_map.get(var.span)
            if new_span is None:
                continue
            stale_hint = f"annotation at {var.span}"
            object.__setattr__(var, "span", new_span)
            if site.hint == stale_hint:
                site.hint = f"annotation at {new_span}"
            if var.hint == stale_hint:
                object.__setattr__(var, "hint", f"annotation at {new_span}")
        for control, var in state.pc_vars:
            if var.span in span_map:
                object.__setattr__(var, "span", span_map[var.span])

    # ------------------------------------------------------------------ refresh

    def refresh(self, program: Program) -> GenerationResult:
        """Bring the cached constraint system up to date with ``program``."""
        algebra = self.algebra
        # The algebra captured the ambient recorder at construction; a
        # long-lived workspace must see the recorder of *this* check.
        algebra.telemetry = current_recorder()

        first = not self.units
        plans = diff_program(self.units, program)
        self.units = [plan.state for plan in plans]

        for plan in plans:
            if plan.span_map:
                self._apply_respan(plan.state, plan.span_map)

        if first:
            assembled = program
        else:
            assembled = Program(
                tuple(p.state.node for p in plans if not p.state.is_control),
                tuple(p.state.node for p in plans if p.state.is_control),
                span=program.span,
                name=program.name,
            )

        stats = RegenStats(units_total=len(plans))
        registry = algebra.registry

        gamma = RecordingContext()
        delta = RecordingDefs()
        analysis = FlowAnalysis(algebra)
        analysis.function_bounds = RecordingDict("fn")
        analysis.table_bounds = RecordingDict("tbl")
        labeler = algebra.make_labeler(delta)
        kind = SecurityType(SMatchKind(), algebra.bottom)
        for member in DEFAULT_MATCH_KINDS:
            gamma.bind(member, kind)
        analysis._suggest_declaration_hints(assembled)

        recorders = (gamma, delta, analysis.function_bounds, analysis.table_bounds)
        for plan in plans:
            state = plan.state
            if plan.respanned:
                stats.units_respanned += 1
            if not plan.dirty:
                stats.units_reused += 1
                stats.constraints_reused += len(state.constraints)
                for tag, name, value in state.effects:
                    if tag == "gamma":
                        gamma.bind(name, value)
                    elif tag == "delta":
                        delta.define(name, value)
                    elif tag == "fn":
                        analysis.function_bounds[name] = value
                    else:
                        analysis.table_bounds[name] = value
                continue

            stats.units_rewalked += 1
            log: list = []
            algebra.constraints = ConstraintSet()
            algebra.errors = []
            algebra.control_pc_vars = []
            registry.begin_touch_log()
            for recorder in recorders:
                recorder.effects = log
            try:
                if state.is_control:
                    analysis.check_control(state.node, gamma, labeler)
                else:
                    analysis.check_declaration(
                        state.node, gamma, labeler, algebra.bottom
                    )
            finally:
                for recorder in recorders:
                    recorder.effects = None
            state.constraints = algebra.constraints.as_list()
            state.errors = list(algebra.errors)
            state.pc_vars = list(algebra.control_pc_vars)
            state.touches = registry.end_touch_log()
            state.effects = log
            stats.constraints_regenerated += len(state.constraints)

        # Merge per-unit products back into one global system, in unit
        # order, exactly as one cold walk would have emitted them.
        merged = ConstraintSet()
        errors = []
        pc_vars = []
        sites: List[InferenceSite] = []
        seen_sites: set = set()
        for state in self.units:
            for constraint in state.constraints:
                merged.add(constraint)
            errors.extend(state.errors)
            pc_vars.extend(state.pc_vars)
            for site in state.touches:
                if id(site) not in seen_sites:
                    seen_sites.add(id(site))
                    sites.append(site)
        registry.restrict_to(sites)

        algebra.constraints = merged
        algebra.errors = errors
        algebra.control_pc_vars = pc_vars

        stats.sites_live = len(sites)
        self.last = stats
        return GenerationResult(
            assembled,
            self.lattice,
            merged.as_list(),
            registry.sites(),
            registry,
            list(errors),
            dict(analysis.function_bounds),
            dict(analysis.table_bounds),
            list(pc_vars),
        )
