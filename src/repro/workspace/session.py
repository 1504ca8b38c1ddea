"""The session-oriented workspace: long-lived state between checks.

A :class:`Workspace` owns everything the one-shot pipeline used to build
from scratch on every call -- the parsed :class:`~repro.syntax.program.Program`,
the constraint system with its annotation-site registry, the propagation
graph, the solved assignment, and cached verdicts -- and keeps them warm
across edits:

* :meth:`Workspace.open` / :meth:`Workspace.edit` install a new source
  revision, re-parsing only the top-level units the edit touched (a
  :class:`~repro.frontend.parser.ParseIndex` of the last good parse);
  the others come back as the cached nodes, which the diff matches by
  identity, so only re-parsed units are fingerprinted and re-spanned.
  :meth:`Workspace.infer` (and everything downstream) then re-walks only
  the *changed* declarations
  (:class:`~repro.workspace.regen.IncrementalGenerator`) and re-solves
  only the edit's cone of influence
  (:meth:`~repro.inference.engine.Solver.rebase`);
* :meth:`Workspace.pin` models an interactive annotation edit over the
  current revision (:meth:`~repro.inference.engine.Solver.resolve`);
  pinning a slot back to ``None`` restores its inferred least label;
* :meth:`Workspace.save` / :meth:`Workspace.load` persist the whole
  solved state (:mod:`repro.workspace.persist`), so a later session warms
  up without a cold solve.

The first check of a freshly opened workspace is the *cold* path run
verbatim -- same walk, same solver entry point, same spans and counters
-- so a one-shot :func:`repro.check_source` built on a throwaway
workspace stays byte-identical with what the pipeline always produced.
The persistent :class:`~repro.inference.engine.Solver` is only
constructed at the first warm operation (it adopts the cold solution and
rebases from there).

This module never imports :mod:`repro.tool.pipeline` at module level --
the pipeline imports the workspace to serve as its engine; reports are
produced via :func:`repro.tool.pipeline.check_workspace`, imported
lazily by :meth:`Workspace.check`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.frontend.errors import FrontendError
from repro.frontend.parser import ParseIndex, parse_program
from repro.inference.elaborate import elaborate_program
from repro.inference.engine import (
    InferenceResult,
    InferredLabel,
    Solver,
    _maximise_control_pcs,
)
from repro.inference.generate import GenerationResult
from repro.inference.graph import NormalisationCache, PropagationGraph
from repro.inference.solve import Solution, solve
from repro.lattice.base import Label, Lattice
from repro.lattice.registry import get_lattice
from repro.lattice.two_point import TwoPointLattice
from repro.syntax.program import Program
from repro.telemetry.recorder import current_recorder
from repro.workspace.regen import IncrementalGenerator, RegenStats


class WorkspaceError(Exception):
    """An operation the workspace's current state cannot support."""


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
        self.program: Optional[Program] = None
        self.parse_error: Optional[str] = None
        #: The last successful parse, from which an edit re-parses only
        #: the units it touched.
        self._parse_index = ParseIndex()
        self._generator = IncrementalGenerator(
            resolved, allow_declassification=allow_declassification
        )
        self._cache = NormalisationCache(resolved)
        self._generation: Optional[GenerationResult] = None
        self._generation_rev = -1
        self._solver: Optional[Solver] = None
        self._solved: Optional[Solution] = None
        self._solved_generation: Optional[GenerationResult] = None
        self._solved_constraints: list = []
        self._inference: Optional[InferenceResult] = None
        self._inference_rev = -1
        self._core = None
        self._core_rev = -1
        self._lints = None
        self._lints_rev = -1
        #: Interactive pins, keyed by slot *hint* (stable across the var
        #: re-allocation a structural edit may cause).
        self._pin_hints: Dict[str, Label] = {}

    # ------------------------------------------------------------------ identity

    @property
    def display_name(self) -> str:
        return self.name or self.filename

    @property
    def regen_stats(self) -> RegenStats:
        """What the last re-generation reused (for tests and ``stats``)."""
        return self._generator.last

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
        self._invalidate()
        self._parse_index = ParseIndex()
        self.parse_error = None
        self.program = program

    def _invalidate(self) -> None:
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

    def _ensure_generation(self) -> GenerationResult:
        self._require_program()
        if self._generation is not None and self._generation_rev == self.revision:
            return self._generation
        recorder = current_recorder()
        with recorder.span("workspace.regenerate", revision=self.revision):
            generation = self._generator.refresh(self.program)
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
        # Matched units keep their original AST nodes; the assembled
        # program (identical to the parse on a first refresh) is what
        # every downstream phase must see, and what the next edit's
        # parse hands back for the units it leaves alone.
        self._parse_index.relink(self.program, generation.program)
        self.program = generation.program
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

    def _ensure_solver(self) -> Solver:
        """The persistent solver, built lazily at the first warm operation."""
        if self._solver is None:
            # The cold solve already built a propagation graph over exactly
            # these constraints; hand it over rather than constructing it a
            # second time.
            graph = self._solved.graph if self._solved is not None else None
            self._solver = Solver(
                self.lattice,
                self._solved_constraints,
                cache=self._cache,
                graph=graph,
            )
            if self._solved is not None:
                self._solver.adopt(self._solved)
        return self._solver

    def _ensure_solution(self) -> Solution:
        generation = self._ensure_generation()
        if self._solved is not None and self._solved_generation is generation:
            return self._solved
        if self._solved is None and self._solver is None:
            # First solve ever: run the one-shot path verbatim (identical
            # spans/counters to the cold pipeline) unless pins already
            # exist, which only the persistent solver can honour.
            if self._pin_hints:
                self._solved_constraints = list(generation.constraints)
                solution = self._ensure_solver().resolve(self._pins_for(generation))
            else:
                solution = solve(self.lattice, generation.constraints)
        else:
            solver = self._ensure_solver()
            solution = solver.rebase(
                generation.constraints, pins=self._pins_for(generation)
            )
        self._solved = solution
        self._solved_generation = generation
        self._solved_constraints = list(generation.constraints)
        return solution

    def _solution_graph(self, generation: GenerationResult) -> PropagationGraph:
        """A propagation graph over the current constraints, reusing the
        solver's or the last solution's when it is current."""
        if (
            self._solver is not None
            and self._solved_generation is generation
            and self._solver.graph.lattice is self.lattice
        ):
            return self._solver.graph
        if (
            self._solved is not None
            and self._solved_generation is generation
            and self._solved.graph is not None
        ):
            return self._solved.graph
        return PropagationGraph(self.lattice, generation.constraints, cache=self._cache)

    # ------------------------------------------------------------------ pinning

    def pin(self, hint: str, label: Union[Label, str, None]) -> None:
        """Pin the slot named ``hint`` to ``label`` (``None`` unpins).

        Models the user writing (or deleting) an explicit annotation:
        the label becomes a floor of the slot; unpinning restores the
        inferred least label.  Over a warm solution only the pin's cone
        of influence is re-solved.
        """
        if isinstance(label, str):
            label = self.lattice.parse_label(label)
        generation = self._ensure_generation()
        site = next((s for s in generation.sites if s.hint == hint), None)
        if site is None:
            raise WorkspaceError(f"no annotation slot named {hint!r}")
        if label is None:
            self._pin_hints.pop(hint, None)
        else:
            self._pin_hints[hint] = label
        self._inference = None
        self._inference_rev = -1
        if self._solved is not None and self._solved_generation is generation:
            self._solved = self._ensure_solver().resolve({site.var: label})

    @property
    def pins(self) -> Dict[str, Label]:
        """The active pins, keyed by slot hint (a copy)."""
        return dict(self._pin_hints)

    # ------------------------------------------------------------------ phases

    def core(self):
        """The Core P4 (non-security) check, cached per revision."""
        from repro.typechecker.checker import check_core_types

        program = self._require_program()
        if self._core is None or self._core_rev != self.revision:
            self._core = check_core_types(program)
            self._core_rev = self.revision
        return self._core

    def infer(self) -> InferenceResult:
        """Label inference over the current revision (cached until edited).

        Re-implements :func:`repro.inference.engine.infer_labels` over
        the warm state: generation comes from the incremental re-walk and
        the solution from the persistent solver; everything downstream
        (pc maximisation, elaboration, diagnostics) is shared code.
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
        inferred = [
            InferredLabel(
                site.hint,
                site.span,
                solution.value_of(site.var)
                if site.floor is None
                else self.lattice.join(solution.value_of(site.var), site.floor),
            )
            for site in generation.sites
        ]
        diagnostics = list(generation.errors)
        diagnostics.extend(
            conflict.as_diagnostic(self.lattice) for conflict in solution.conflicts
        )
        with recorder.span("infer.elaborate"):
            elaborated = elaborate_program(generation, solution)
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

        generation = self._ensure_generation()
        solution = self._ensure_solution()
        if solution.graph is None:
            solution.graph = self._solution_graph(generation)
        return witnesses_for_solution(solution)

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
        """Persist the solved workspace state to ``path``."""
        from repro.workspace.persist import save_workspace

        save_workspace(self, path)

    @classmethod
    def load(cls, path) -> "Workspace":
        """Restore a workspace persisted with :meth:`save`."""
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
                "persistent": self._solver is not None,
                "solved": self._solved is not None,
                "conflicts": len(self._solved.conflicts)
                if self._solved is not None
                else None,
            },
            "regen": {
                "units_total": regen.units_total,
                "units_reused": regen.units_reused,
                "units_rewalked": regen.units_rewalked,
                "units_respanned": regen.units_respanned,
                "constraints_reused": regen.constraints_reused,
                "constraints_regenerated": regen.constraints_regenerated,
                "sites_live": regen.sites_live,
            },
            "normalisation_cache": {
                "entries": len(self._cache),
                "hits": self._cache.hits,
                "misses": self._cache.misses,
            },
        }
