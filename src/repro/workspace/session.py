"""The session-oriented workspace: long-lived state between checks.

A :class:`Workspace` owns everything the one-shot pipeline used to build
from scratch on every call -- the parsed :class:`~repro.syntax.program.Program`,
the constraint system with its annotation-site registry, the propagation
graph, the solved assignment, and cached verdicts -- and keeps them warm
across edits:

* :meth:`Workspace.open` / :meth:`Workspace.edit` install a new source
  revision, re-parsing only the top-level units the edit touched (a
  :class:`~repro.frontend.parser.ParseIndex` of the last good parse);
  the others come back as the cached nodes, moved to where they sit now,
  which the diff matches by identity, so only re-parsed units are
  fingerprinted.
  :meth:`Workspace.infer` (and everything downstream) then re-walks only
  the *changed* declarations
  (:class:`~repro.workspace.regen.IncrementalGenerator`) and re-solves
  only the edit's cone of influence
  (:meth:`~repro.inference.engine.Solver.rebase`);
* :meth:`Workspace.pin` models an interactive annotation edit over the
  current revision (:meth:`~repro.inference.engine.Solver.resolve`);
  pinning a slot back to ``None`` restores its inferred least label;
* :meth:`Workspace.save` / :meth:`Workspace.load` persist the source,
  options and pins (:mod:`repro.workspace.persist`); the first check
  after a load is a cold check.

Past generation, a warm check redoes only the units it must.  Each
:class:`~repro.workspace.diff.UnitState` caches, next to its generated
constraints, three per-unit products that live and die with it:

* the **elaborated node** -- reused while the unit is clean and the
  solution still assigns its annotation slots (and its control's pc)
  the labels it was elaborated with;
* the **IFC products** (diagnostics, declassification events,
  effects) -- reused while the unit is clean, keeps the very
  node they were made for (elaborated, or the source on a check without
  inference) and every referenced declarer's products were reused too,
  decided in unit order so the rule is transitive (:class:`RecheckSlots`);
* the **inferred labels** of the sites the unit adds to the site list,
  with their text and location (:class:`SlotLabels`).

Which labels the solutions since the last :meth:`Workspace.infer` moved
is what the solver reports (:attr:`~repro.inference.solve.Solution.moved`)
plus the slots whose site an edit dropped or made, so a warm check reads
the solution only for those: an elaboration stays valid while none of its
slots is among them, and a label is remade only when it is.

The Core P4 diagnostics are no phase of their own: every walk reports
them per unit next to its label outputs, so :meth:`Workspace.core`
reads them from the products of the walk over the source -- generation,
or the IFC check of a check without inference.

Every phase reads the diff plan the first phase of a revision takes
(:meth:`Workspace.plan`), so a session that never infers reuses
IFC products all the same.  The first plan of a workspace has
no states to diff against, so it only lists the units: their
fingerprints, reference sets and dependency signatures, which nothing
but a later edit reads, are computed at the next plan -- or by an IFC
re-check of the same revision that finds products it could reuse
(:func:`~repro.workspace.diff.settle_states`).  A one-shot check never
computes them.

An edit that only moves a unit (lines inserted above it) redoes it in no
phase: its spans are relative to its anchor, which the parser or the
diff re-based, so its products render at the new positions as they
stand.  How many units the last run of each phase redid at the current
revision is in ``stats()["rechecks"]`` and, under a
tracing recorder, in the ``workspace.units_elaborated`` /
``workspace.units_ifc_checked`` counters.

The first check of a freshly opened workspace is the *cold* path, and a
one-shot :func:`repro.check_source` or
:func:`~repro.inference.engine.infer_labels` is exactly that, over a
throwaway workspace.  Its solve is the one-shot
:func:`~repro.inference.solve.solve`, whose
:class:`~repro.inference.engine.Solver` the workspace keeps: every later
solve is a :meth:`~repro.inference.engine.Solver.rebase` of it.

This module never imports :mod:`repro.tool.pipeline` at module level --
the pipeline imports the workspace to serve as its engine; reports are
produced via :func:`repro.tool.pipeline.check_workspace`, imported
lazily by :meth:`Workspace.check`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Set, Union

from repro.flow.units import UnitProducts, program_units
from repro.frontend.errors import FrontendError
from repro.frontend.parser import ParseIndex, parse_program
from repro.inference.elaborate import elaborate_program
from repro.inference.engine import (
    InferenceResult,
    InferredLabel,
    Solver,
    _maximise_control_pcs,
)
from repro.inference.generate import GenerationResult, InferenceSite
from repro.inference.graph import PropagationGraph
from repro.inference.solve import Solution, solve
from repro.inference.terms import LabelVar
from repro.lattice.base import Label, Lattice
from repro.lattice.registry import get_lattice
from repro.lattice.two_point import TwoPointLattice
from repro.syntax.program import Program
from repro.syntax.source import anchor_of, placement, same_placement
from repro.telemetry.recorder import current_recorder
from repro.typechecker import checker
from repro.typechecker.checker import CoreCheckResult
from repro.workspace.diff import StateSlots, UnitState, settle_states
from repro.workspace.regen import IncrementalGenerator


class WorkspaceError(Exception):
    """An operation the workspace's current state cannot support."""


def replayable(states: List[UnitState], whole: List[bool]) -> List[bool]:
    """Per unit, whether it may replay its products: they are ``whole``,
    and so are those of every unit declaring a name it references.
    Deciding in unit order makes that transitive, as
    :func:`~repro.workspace.diff.environment_signatures` does for the
    source."""
    settle_states(states)
    replayed: Set[int] = set()
    valid = []
    for index, (state, ok) in enumerate(zip(states, whole)):
        ok = ok and all(declarer is None or declarer in replayed for declarer in state.declarers)
        if ok:
            replayed.add(index)
        valid.append(ok)
    return valid


class RecheckSlots(StateSlots):
    """The units' IFC re-check products, as a per-unit cache.

    A unit's products are reused when they were made for the very node
    the unit has now in the checked program (its elaborated node, or its
    source node on a check without inference), and every name it
    references resolves to a declaring unit whose products are reused
    too (:func:`replayable`).  A reused declarer then holds the very products the unit was
    checked against: every run stores all units' products, so a unit
    whose declarer was re-checked was re-checked in the same run, and a
    plan keeps a unit's products only while its declarers are the same
    states as before, themselves clean
    (:func:`~repro.workspace.diff.diff_program`).

    The declarers come from the diff, which a first plan defers
    (:func:`~repro.workspace.diff.settle_states`); only a run that finds
    products it could reuse reads them.
    """

    def __init__(self, states: List[UnitState], program: Program, note) -> None:
        super().__init__(states, "ifc")
        self.nodes = program_units(program)
        self._note = note

    def reuse(self) -> Optional[list]:
        states = self.states
        if all(state.ifc is None for state in states):
            return None
        whole = [
            state.ifc is not None and state.ifc_node is node
            for state, node in zip(states, self.nodes)
        ]
        valid = replayable(states, whole)
        return [state.ifc if ok else None for state, ok in zip(states, valid)]

    def store(self, products: list) -> None:
        super().store(products)
        for state, node in zip(self.states, self.nodes):
            state.ifc_node = node
        self._note("units_ifc_checked", self.walked)


class SourceWalkCore:
    """The source walk's products as a cache of the label-free walk
    (:class:`repro.flow.units.UnitCache`).

    A unit replays its effects and keeps its core outputs when they are
    whole -- its annotations resolved -- and every name it references
    resolves to a declaring unit that is replayed too, so it sees the
    environment the label-free walk would give it but for labels, which
    that walk ignores (:func:`replayable`).  The other units are walked
    afresh, and nothing is kept.
    """

    def __init__(self, states: List[UnitState], products: List[UnitProducts]) -> None:
        self.states = states
        self.products = products

    def reuse(self) -> list:
        valid = replayable(self.states, [unit.outputs.core is not None for unit in self.products])
        return [
            UnitProducts(unit.effects, unit.outputs.core) if ok else None
            for unit, ok in zip(self.products, valid)
        ]

    def store(self, products: list) -> None:
        pass


class SlotLabels:
    """The inferred labels of the sites one unit adds to the site list
    (:attr:`UnitState.sites <repro.workspace.diff.UnitState.sites>`), as
    ``entries``, with what they were made from: the sites' variables and
    the placement of every unit whose spans they render.

    ``encoded`` is the entries' JSON, as the items of the report's
    ``labels`` list: made by the first served check that reads it
    (:meth:`fragment`), and dropped when :meth:`update` remakes an entry.
    """

    __slots__ = ("sites", "entries", "vars", "marks", "encoded")

    def __init__(
        self, sites: List[InferenceSite], solution: Solution, lattice: Lattice
    ) -> None:
        self.sites = sites
        self.entries = [_inferred(site, solution, lattice) for site in sites]
        self.encoded: Optional[str] = None
        self.vars = frozenset(site.var for site in sites)
        anchors = {}
        for site in sites:
            anchor = anchor_of(site.span)
            if anchor is not None:
                anchors[id(anchor)] = anchor
        self.marks = [(anchor, placement(anchor)) for anchor in anchors.values()]

    def placed(self) -> bool:
        """Whether every span the entries render is where it was."""
        return all(same_placement(anchor, mark) for anchor, mark in self.marks)

    def update(self, solution: Solution, moved: Set[LabelVar], lattice: Lattice) -> int:
        """Remake the entries whose variable is in ``moved``; returns how many."""
        entries = self.entries
        remade = 0
        for index, site in enumerate(self.sites):
            if site.var in moved:
                entries[index] = _inferred(site, solution, lattice)
                remade += 1
        if remade:
            self.encoded = None
        return remade

    def fragment(self) -> str:
        """The entries' JSON, as a list's items (encoded once)."""
        if self.encoded is None:
            from repro.tool.report import label_entry

            self.encoded = ", ".join(map(json.dumps, map(label_entry, self.entries)))
        return self.encoded


def _inferred(site: InferenceSite, solution: Solution, lattice: Lattice) -> InferredLabel:
    """The reported label of ``site``: its effective label, ``floor`` ⊔ solved."""
    label = solution.value_of(site.var)
    if site.floor is not None:
        label = lattice.join(label, site.floor)
    span = site.span
    return InferredLabel(site.hint, span, label, lattice.format_label(label), str(span))


class Workspace:
    """Long-lived checking state for one program under one lattice."""

    def __init__(
        self,
        lattice: Union[Lattice, str, None] = None,
        *,
        allow_declassification: bool = False,
        name: Optional[str] = None,
    ) -> None:
        if lattice is None:
            resolved: Lattice = TwoPointLattice()
        elif isinstance(lattice, str):
            resolved = get_lattice(lattice)
        else:
            resolved = lattice
        self.lattice = resolved
        self.allow_declassification = allow_declassification
        self.name = name
        self.filename = "<workspace>"
        #: Bumped on every :meth:`open` / :meth:`edit`; caches key off it.
        self.revision = 0
        #: The text of the latest :meth:`open` / :meth:`edit` (``None``
        #: after :meth:`open_program`).
        self.source: Optional[str] = None
        self.program: Optional[Program] = None
        self.parse_error: Optional[str] = None
        #: The last successful parse, from which an edit re-parses only
        #: the units it touched.
        self._parse_index = ParseIndex()
        self._generator = IncrementalGenerator(
            resolved, allow_declassification=allow_declassification
        )
        self._generation: Optional[GenerationResult] = None
        self._generation_rev = -1
        self._solver: Optional[Solver] = None
        self._solved: Optional[Solution] = None
        self._solved_generation: Optional[GenerationResult] = None
        self._inference: Optional[InferenceResult] = None
        self._inference_rev = -1
        self._core = None
        self._core_rev = -1
        self._lints = None
        self._lints_rev = -1
        #: The revision the unit states were last diffed against.
        self._planned_rev = -1
        #: How many units the last run of each per-unit phase re-did at
        #: this revision (0 until it runs).
        self._rechecked: Dict[str, int] = {
            "units_elaborated": 0,
            "units_ifc_checked": 0,
        }
        #: Interactive pins, keyed by slot *hint* (stable across the var
        #: re-allocation a structural edit may cause).
        self._pin_hints: Dict[str, Label] = {}
        #: What may have changed since :meth:`infer` last made the units'
        #: slot labels and elaborations: the variables whose value moved or
        #: whose site was dropped or made, and the ids of the slot nodes
        #: that gained a site.  ``None`` after a full solve, or once it
        #: outgrows the site list (:meth:`_bound_moved`): everything.
        self._moved: Optional[Set[LabelVar]] = None
        self._sited: Set[int] = set()
        #: How many slot labels the last :meth:`infer` at this revision
        #: made afresh.
        self._relabelled = 0

    # ------------------------------------------------------------------ identity

    @property
    def display_name(self) -> str:
        return self.name or self.filename

    # ------------------------------------------------------------------ revisions

    def open(
        self,
        source: str,
        *,
        filename: str = "<workspace>",
        name: Optional[str] = None,
    ) -> bool:
        """Install a new source revision; returns whether it parsed.

        A parse failure keeps the previous solved state warm: the next
        revision that parses diffs against it as usual.
        """
        self.filename = filename
        if name is not None:
            self.name = name
        self.revision += 1
        self.source = source
        self._invalidate()
        try:
            program = parse_program(
                source, filename, name=self.name, index=self._parse_index
            )
        except FrontendError as exc:
            self.parse_error = str(exc)
            self.program = None
            return False
        self.parse_error = None
        self.program = program
        return True

    def edit(self, source: str) -> bool:
        """Install the next revision of the current file."""
        return self.open(source, filename=self.filename, name=self.name)

    def open_program(self, program: Program, *, name: Optional[str] = None) -> None:
        """Install an already-parsed program as the next revision."""
        if name is not None:
            self.name = name
        self.revision += 1
        self.source = None
        self._invalidate()
        self._parse_index = ParseIndex()
        self.parse_error = None
        self.program = program

    def _invalidate(self) -> None:
        self._rechecked = dict.fromkeys(self._rechecked, 0)
        self._relabelled = 0
        self._generation = None
        self._generation_rev = -1
        self._inference = None
        self._inference_rev = -1
        self._core = None
        self._core_rev = -1
        self._lints = None
        self._lints_rev = -1

    def _require_program(self) -> Program:
        if self.program is None:
            raise WorkspaceError(
                self.parse_error
                if self.parse_error is not None
                else "no program opened in this workspace"
            )
        return self.program

    # ------------------------------------------------------------------ generation

    def plan(self) -> Program:
        """Diff the current revision against the unit states, once.

        Every per-unit phase (generation, elaboration, IFC re-check)
        reads the states this settles.  Matched units keep their original
        AST nodes; the assembled program (identical to the parse on a
        first plan) is what every phase must see, and what the next
        edit's parse hands back for the units it leaves alone.
        """
        program = self._require_program()
        if self._planned_rev != self.revision:
            # A revision without source text is a program the caller parsed.
            assembled = self._generator.plan(program, adopted=self.source is None)
            self._parse_index.relink(program, assembled)
            self.program = program = assembled
            self._planned_rev = self.revision
        return program

    def _note(self, counter: str, units: int) -> None:
        """Record how many units a per-unit phase re-did."""
        self._rechecked[counter] = units
        recorder = current_recorder()
        if recorder.enabled:
            recorder.count("workspace." + counter, units)

    def _ensure_generation(self) -> GenerationResult:
        self.plan()
        if self._generation is not None and self._generation_rev == self.revision:
            return self._generation
        recorder = current_recorder()
        with recorder.span("workspace.regenerate", revision=self.revision):
            generation = self._generator.refresh(self.program)
        if self._moved is not None:
            for site in self._generator.changed_sites:
                self._moved.add(site.var)
                self._sited.add(id(site.node))
            self._bound_moved(generation)
        stats = self._generator.last
        if recorder.enabled:
            recorder.count("workspace.regenerations")
            recorder.count("workspace.units_total", stats.units_total)
            recorder.count("workspace.units_reused", stats.units_reused)
            recorder.count("workspace.units_rewalked", stats.units_rewalked)
            recorder.count("workspace.units_respanned", stats.units_respanned)
            recorder.count("workspace.constraints_reused", stats.constraints_reused)
            recorder.count(
                "workspace.constraints_regenerated", stats.constraints_regenerated
            )
            recorder.count("workspace.sites_live", stats.sites_live)
            recorder.count("parse.units_reused", self._parse_index.reused)
            recorder.count("parse.units_reparsed", self._parse_index.reparsed)
        self._generation = generation
        self._generation_rev = self.revision
        return generation

    # ------------------------------------------------------------------ solving

    def _pins_for(self, generation: GenerationResult) -> Dict[object, Label]:
        pins: Dict[object, Label] = {}
        if self._pin_hints:
            for site in generation.sites:
                label = self._pin_hints.get(site.hint)
                if label is not None:
                    pins[site.var] = label
        return pins

    def _adopt(self, solution: Solution, generation: GenerationResult) -> None:
        """Make ``solution`` the current one, noting what it moved."""
        self._solved = solution
        if self._moved is not None:
            if solution.moved is None:
                self._moved = None
            else:
                self._moved.update(solution.moved)
                self._bound_moved(generation)

    def _bound_moved(self, generation: GenerationResult) -> None:
        """Give up the moved set once it holds more variables than
        ``generation`` has sites.

        Remaking every label and elaboration then costs about what
        testing each against the set does, and a session that refreshes
        or re-solves without inferring (lints, pins, unsat cores) would
        otherwise grow the set on every edit -- and keep, through the
        spans of dropped variables, the source of every revision.
        """
        if len(self._moved) > len(generation.sites):
            self._moved = None
            self._sited = set()

    def _ensure_solution(self) -> Solution:
        generation = self._ensure_generation()
        if self._solved is not None and self._solved_generation is generation:
            return self._solved
        pins = self._pins_for(generation)
        if self._solver is None:
            # The cold solve; the pins a load replays ride on a rebase.
            solution = solve(
                self.lattice, generation.constraints, buckets=generation.buckets
            )
            self._solver = solution.solver
            if pins:
                solution = self._solver.rebase(generation.buckets, pins=pins)
        else:
            solution = self._solver.rebase(generation.buckets, pins=pins)
        self._adopt(solution, generation)
        self._solved_generation = generation
        return solution

    def _solution_graph(self, generation: GenerationResult) -> PropagationGraph:
        """A propagation graph over the current constraints, reusing the
        solver's when it is current."""
        if self._solver is not None and self._solved_generation is generation:
            return self._solver.graph
        return PropagationGraph(self.lattice, generation.constraints)

    # ------------------------------------------------------------------ pinning

    def pin(self, hint: str, label: Union[Label, str, None]) -> None:
        """Pin the slot named ``hint`` to ``label`` (``None`` unpins).

        Models the user writing (or deleting) an explicit annotation:
        the label becomes a floor of the slot; unpinning restores the
        inferred least label.  Over a warm solution only the pin's cone
        of influence is re-solved.  Unpinning a slot that an edit removed
        just drops the pin, which no longer reached the solver.
        """
        if isinstance(label, str):
            label = self.lattice.parse_label(label)
        generation = self._ensure_generation()
        site = next((s for s in generation.sites if s.hint == hint), None)
        if site is None and label is None and hint in self._pin_hints:
            del self._pin_hints[hint]
            self._inference = None
            self._inference_rev = -1
            return
        if site is None:
            raise WorkspaceError(f"no annotation slot named {hint!r}")
        if label is None:
            self._pin_hints.pop(hint, None)
        else:
            self._pin_hints[hint] = label
        self._inference = None
        self._inference_rev = -1
        if self._solved is not None and self._solved_generation is generation:
            self._adopt(self._solver.resolve({site.var: label}), generation)

    @property
    def pins(self) -> Dict[str, Label]:
        """The active pins, keyed by slot hint (a copy)."""
        return dict(self._pin_hints)

    # ------------------------------------------------------------------ phases

    def core(self) -> CoreCheckResult:
        """The Core P4 (non-security) diagnostics, cached per revision.

        They are the per-unit core outputs of the walk over the source
        that every unit still holds products of: generation, or the IFC
        check of the source (a check without inference).  When neither
        is current they come from the label-free walk
        (:func:`~repro.typechecker.checker.check_core_types`).  So do a
        unit's when an annotation in it did not resolve (that walk then
        went on without the binding), and those of every unit that
        depends on it; the other units replay the source walk's products
        (:class:`SourceWalkCore`).
        """
        if self._core is None or self._core_rev != self.revision:
            program = self.plan()
            products = self._source_walk()
            if products is None:
                self._core = checker.check_core_types(program)
            elif any(unit.outputs.core is None for unit in products):
                cache = SourceWalkCore(self._generator.units, products)
                self._core = checker.check_core_types(program, cache)
            else:
                self._core = CoreCheckResult(
                    program, [diag for unit in products for diag in unit.outputs.core]
                )
            self._core_rev = self.revision
        return self._core

    def _source_walk(self) -> Optional[List[UnitProducts]]:
        """Per unit, the products of the current walk over the source."""
        states = self._generator.units
        if all(state.generated is not None for state in states):
            return [state.generated for state in states]
        if all(state.ifc is not None and state.ifc_node is state.node for state in states):
            return [state.ifc for state in states]
        return None

    def infer(self) -> InferenceResult:
        """Label inference over the current revision (cached until edited).

        The one assembly of an :class:`InferenceResult`
        (:func:`~repro.inference.engine.infer_labels` runs it over a
        throwaway workspace): generation comes from the incremental
        re-walk and the solution from the workspace's solver; then pc
        maximisation, the inferred labels, diagnostics and elaboration.

        The inferred labels are kept per unit (:class:`SlotLabels`), and
        a unit's are remade only when its share of the site list changed
        (its walk, or an earlier unit's), a unit whose spans they render
        moved, or -- label by label -- the variable is among those the
        solutions since the last run moved.  A unit keeps its elaboration
        unless it read such a variable (the pc variables always count:
        maximisation re-derives them).  Without that set -- after a full
        solve, or once it outgrew the site list -- every label and
        elaboration is remade.
        """
        if self._inference is not None and self._inference_rev == self.revision:
            return self._inference
        recorder = current_recorder()
        with recorder.span("infer.generate") as generate_span:
            generation = self._ensure_generation()
        if recorder.enabled:
            generate_span.attrs["constraints"] = len(generation.constraints)
            generate_span.attrs["slots"] = len(generation.sites)
            recorder.count("infer.runs")
            recorder.count("infer.constraints_generated", len(generation.constraints))
            recorder.count("infer.slots", len(generation.sites))
        solution = self._ensure_solution()
        if solution.ok and generation.control_pc_vars:
            with recorder.span(
                "infer.maximise-pc", pcs=len(generation.control_pc_vars)
            ):
                solution = _maximise_control_pcs(self.lattice, generation, solution)
        moved, sited = self._moved, self._sited
        if moved is not None:
            moved.update(var for _control, var in generation.control_pc_vars)
        lattice = self.lattice
        inferred: List[InferredLabel] = []
        relabelled = 0
        for state in self._generator.units:
            if not state.sites:
                continue
            labels = state.labels
            if labels is None or moved is None or not labels.placed():
                labels = state.labels = SlotLabels(state.sites, solution, lattice)
                relabelled += len(labels.entries)
            elif not moved.isdisjoint(labels.vars):
                relabelled += labels.update(solution, moved, lattice)
            inferred.extend(labels.entries)
        self._relabelled = relabelled
        if recorder.enabled:
            recorder.count("workspace.slots_relabelled", relabelled)
        diagnostics = list(generation.errors)
        diagnostics.extend(
            conflict.as_diagnostic(lattice) for conflict in solution.conflicts
        )
        with recorder.span("infer.elaborate"):
            cache = StateSlots(self._generator.units, "elaborated")
            elaborated = elaborate_program(
                generation, solution, cache, moved=moved, sited=sited
            )
        self._note("units_elaborated", cache.walked)
        self._moved, self._sited = set(), set()
        result = InferenceResult(
            self.program,
            self.lattice,
            generation,
            solution,
            inferred,
            diagnostics,
            elaborated,
        )
        self._inference = result
        self._inference_rev = self.revision
        return result

    def labels_json(self) -> str:
        """The JSON of the ``labels`` list a report of the current
        inference holds (:func:`repro.tool.report.report_to_dict`),
        spliced from the units' fragments (:meth:`SlotLabels.fragment`): only the
        units whose labels were remade since the last call are encoded
        (counter ``workspace.labels_encoded``).  Call it after
        :meth:`infer`."""
        fragments = []
        encoded = 0
        for state in self._generator.units:
            labels = state.labels
            if state.sites:
                if labels.encoded is None:
                    encoded += len(labels.entries)
                fragments.append(labels.fragment())
        recorder = current_recorder()
        if recorder.enabled:
            recorder.count("workspace.labels_encoded", encoded)
        return "[" + ", ".join(fragments) + "]"

    def recheck_cache(self, program: Program) -> RecheckSlots:
        """The per-unit cache of the IFC check of ``program`` -- the
        current revision, or the program :meth:`infer` elaborated from
        it: pass it to :func:`repro.ifc.checker.check_ifc` as ``cache``."""
        return RecheckSlots(self._generator.units, program, self._note)

    def lint(self) -> list:
        """The :mod:`repro.analysis` lints over the warm constraint graph."""
        from repro.analysis import run_lints

        if self._lints is not None and self._lints_rev == self.revision:
            return self._lints
        generation = self._ensure_generation()
        graph = self._solution_graph(generation)
        self._lints = run_lints(
            self.program,
            self.lattice,
            allow_declassification=self.allow_declassification,
            generation=generation,
            graph=graph,
        )
        self._lints_rev = self.revision
        return self._lints

    def unsat_cores(self) -> List[dict]:
        """The conflicts of the current solution with their cores."""
        solution = self._ensure_solution()
        cores = []
        for conflict in solution.conflicts:
            cores.append(
                {
                    "message": str(conflict.as_diagnostic(self.lattice)),
                    "span": str(conflict.constraint.span),
                    "observed": self.lattice.format_label(conflict.observed),
                    "required": self.lattice.format_label(conflict.required),
                    "core": [
                        {
                            "span": str(c.span),
                            "rule": c.rule,
                            "reason": c.reason,
                        }
                        for c in conflict.core
                    ],
                }
            )
        return cores

    def witnesses(self) -> list:
        """Leak-path witnesses for the current conflicts, warm."""
        from repro.analysis.witness import witnesses_for_solution

        return witnesses_for_solution(self._ensure_solution())

    # ------------------------------------------------------------------ reports

    def check(
        self,
        *,
        include_ifc: bool = True,
        infer: bool = False,
        lint: bool = False,
        explain_released_flows: bool = False,
        recorder=None,
    ):
        """A full :class:`~repro.tool.pipeline.CheckReport` over the warm state."""
        from repro.tool.pipeline import check_workspace

        return check_workspace(
            self,
            include_ifc=include_ifc,
            infer=infer,
            lint=lint,
            explain_released_flows=explain_released_flows,
            recorder=recorder,
        )

    # ------------------------------------------------------------------ persistence

    def save(self, path) -> None:
        """Write the source, options and pins to ``path`` (JSON)."""
        from repro.workspace.persist import save_workspace

        save_workspace(self, path)

    @classmethod
    def load(cls, path) -> "Workspace":
        """Open the source saved with :meth:`save` and replay its pins."""
        from repro.workspace.persist import load_workspace

        return load_workspace(path)

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        """A JSON-friendly snapshot of the workspace's warm state."""
        regen = self._generator.last
        return {
            "name": self.display_name,
            "lattice": self.lattice.name,
            "revision": self.revision,
            "parsed": self.program is not None,
            "parse_error": self.parse_error,
            "units": len(self._generator.units),
            "parse": {
                "units_reused": self._parse_index.reused,
                "units_reparsed": self._parse_index.reparsed,
            },
            "constraints": len(self._generation.constraints)
            if self._generation is not None
            else None,
            "sites": len(self._generation.sites)
            if self._generation is not None
            else None,
            "pins": {
                hint: self.lattice.format_label(label)
                for hint, label in sorted(self._pin_hints.items())
            },
            "solver": {
                "solved": self._solved is not None,
                "conflicts": len(self._solved.conflicts)
                if self._solved is not None
                else None,
            },
            "rechecks": dict(self._rechecked),
            "slots_relabelled": self._relabelled,
            "regen": {
                "units_total": regen.units_total,
                "units_reused": regen.units_reused,
                "units_rewalked": regen.units_rewalked,
                "units_respanned": regen.units_respanned,
                "constraints_reused": regen.constraints_reused,
                "constraints_regenerated": regen.constraints_regenerated,
                "sites_live": regen.sites_live,
            },
        }
