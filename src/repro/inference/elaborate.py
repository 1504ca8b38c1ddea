"""Substitution: write a solved label assignment back into the AST.

``elaborate_program`` rebuilds a :class:`~repro.syntax.program.Program` in
which every annotation slot that received a label variable now carries the
concrete spelling of its solved label (via ``lattice.format_label``, whose
output round-trips through ``lattice.parse_label``).  Explicit annotations
are left untouched; bare ``infer`` markers whose slot needed no variable
(because the underlying declaration already fixes the label) are simply
dropped.  The result is a fully annotated program the stock
:func:`repro.ifc.checker.check_ifc` re-verifies independently -- the
soundness of inference rests on that unmodified checker, not on the solver.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from repro.flow.units import UnitCache, program_units
from repro.inference.generate import GenerationResult, InferenceSite
from repro.inference.solve import Solution
from repro.inference.terms import LabelVar
from repro.syntax import declarations as d
from repro.syntax import statements as s
from repro.syntax.digest import Unit
from repro.syntax.program import Program
from repro.syntax.types import (
    AnnotatedType,
    Field,
    HeaderType,
    RecordType,
    StackType,
    Type,
    is_inference_marker,
)


class Elaboration:
    """One top-level unit with its solved labels written in.

    ``slots`` are the unit's annotation slots, in the order elaboration
    read them, ``sites`` their sites (``None`` for a slot without one),
    and ``pc_var`` the control's pc variable, if it has one: the
    elaborated ``node`` is a function of the unit and the values of the
    variables they name.
    """

    __slots__ = ("node", "slots", "sites", "pc_var", "_reads")

    def __init__(
        self,
        node: Unit,
        slots: List[AnnotatedType],
        sites: List[Optional[InferenceSite]],
        pc_var: Optional[LabelVar] = None,
    ) -> None:
        self.node = node
        self.slots = slots
        self.sites = sites
        self.pc_var = pc_var
        self._reads: Optional[Tuple[FrozenSet[LabelVar], FrozenSet[int]]] = None

    def unchanged(self, moved: Set[LabelVar], sited: Set[int]) -> bool:
        """Whether none of the variables read is in ``moved`` and none of
        the slots that had no site is in ``sited`` (ids of slot nodes that
        gained one): then elaborating the unit again builds the same node."""
        if self._reads is None:
            read = {site.var for site in self.sites if site is not None}
            if self.pc_var is not None:
                read.add(self.pc_var)
            unsited = {
                id(slot) for slot, site in zip(self.slots, self.sites) if site is None
            }
            self._reads = frozenset(read), frozenset(unsited)
        read, unsited = self._reads
        return moved.isdisjoint(read) and sited.isdisjoint(unsited)


class _Elaborator:
    def __init__(self, generation: GenerationResult, solution: Solution) -> None:
        self._registry = generation.registry
        self._control_pc_vars = {
            id(control): var for control, var in generation.control_pc_vars
        }
        self._solution = solution
        self._lattice = generation.lattice
        #: The slots read (and their sites) by the current unit.
        self._slots: List[AnnotatedType] = []
        self._sites: List[Optional[InferenceSite]] = []

    # -- units ----------------------------------------------------------------

    def unit(self, unit: Unit) -> Elaboration:
        self._slots, self._sites = [], []
        pc_var = None
        if isinstance(unit, d.ControlDecl):
            node: Unit = self.control(unit)
            pc_var = self._control_pc_vars.get(id(unit))
        else:
            node = self.declaration(unit)
        return Elaboration(node, self._slots, self._sites, pc_var)

    # -- types ---------------------------------------------------------------

    def _label_text(self, node: AnnotatedType) -> Optional[str]:
        site = self._registry.site_of(node) if self._registry is not None else None
        self._slots.append(node)
        self._sites.append(site)
        if site is not None:
            label = self._solution.value_of(site.var)
            if site.augments and self._lattice.equal(label, self._lattice.bottom):
                # A ⊥ augmentation adds nothing to the underlying label;
                # leave the slot unannotated rather than writing a label
                # *below* the declaration's (which would read as lowering).
                return None
            return self._lattice.format_label(label)
        if node.wants_inference() and not self._parses(node.label):
            # The slot needed no variable of its own (the underlying
            # declaration carries the label); drop the marker.  A spelling
            # that names an actual lattice level stays.
            return None
        return node.label

    def _parses(self, label: Optional[str]) -> bool:
        try:
            self._lattice.parse_label(label)
            return True
        except Exception:
            return False

    def annotated(self, node: AnnotatedType) -> AnnotatedType:
        return AnnotatedType(self._type(node.ty), self._label_text(node), node.span)

    def _type(self, ty: Type) -> Type:
        if isinstance(ty, RecordType):
            return RecordType(self._fields(ty.fields))
        if isinstance(ty, HeaderType):
            return HeaderType(self._fields(ty.fields))
        if isinstance(ty, StackType):
            return StackType(self.annotated(ty.element), ty.size)
        return ty

    def _fields(self, fields):
        return tuple(Field(field.name, self.annotated(field.ty)) for field in fields)

    # -- declarations ---------------------------------------------------------

    def declaration(self, decl: d.Declaration) -> d.Declaration:
        if isinstance(decl, d.VarDecl):
            return d.VarDecl(self.annotated(decl.ty), decl.name, decl.init, span=decl.span)
        if isinstance(decl, d.TypedefDecl):
            return d.TypedefDecl(self.annotated(decl.ty), decl.name, span=decl.span)
        if isinstance(decl, d.HeaderDecl):
            return d.HeaderDecl(decl.name, self._fields(decl.fields), span=decl.span)
        if isinstance(decl, d.StructDecl):
            return d.StructDecl(decl.name, self._fields(decl.fields), span=decl.span)
        if isinstance(decl, d.FunctionDecl):
            return d.FunctionDecl(
                decl.name,
                tuple(self._param(p) for p in decl.params),
                self._block(decl.body),
                return_type=(
                    self.annotated(decl.return_type)
                    if decl.return_type is not None
                    else None
                ),
                is_action=decl.is_action,
                span=decl.span,
            )
        # Tables, match_kinds, ... carry no annotation slots.
        return decl

    def _param(self, param: d.Param) -> d.Param:
        return d.Param(param.direction, param.name, self.annotated(param.ty), span=param.span)

    # -- statements -----------------------------------------------------------

    def _block(self, block: s.Block) -> s.Block:
        # map(), not a generator: one frame per nesting level (MAX_DEPTH).
        return s.Block(tuple(map(self._statement, block.statements)), span=block.span)

    def _statement(self, stmt: s.Statement) -> s.Statement:
        if isinstance(stmt, s.Block):
            return self._block(stmt)
        if isinstance(stmt, s.VarDeclStmt):
            declaration = self.declaration(stmt.declaration)
            return s.VarDeclStmt(declaration, span=stmt.span)
        if isinstance(stmt, s.If):
            return s.If(
                stmt.condition,
                self._block(stmt.then_branch),
                self._block(stmt.else_branch),
                span=stmt.span,
            )
        return stmt

    # -- controls -------------------------------------------------------------

    def control(self, control: d.ControlDecl) -> d.ControlDecl:
        pc_label = control.pc_label
        var = self._control_pc_vars.get(id(control))
        if var is not None:
            pc_label = self._lattice.format_label(self._solution.value_of(var))
        elif is_inference_marker(pc_label):
            pc_label = None
        return d.ControlDecl(
            control.name,
            tuple(self._param(p) for p in control.params),
            tuple(self.declaration(decl) for decl in control.local_declarations),
            self._block(control.apply_block),
            pc_label=pc_label,
            span=control.span,
        )


def elaborate_program(
    generation: GenerationResult,
    solution: Solution,
    cache: Optional[UnitCache] = None,
    *,
    moved: Optional[Set[LabelVar]] = None,
    sited: Set[int] = frozenset(),
) -> Program:
    """The program with every inferred label written into its slot.

    Elaborates one top-level unit at a time.  ``cache`` works like the
    per-unit loop's (:class:`repro.flow.units.UnitCache`), over
    :class:`Elaboration` records, and receives every unit's elaboration.
    With ``moved`` -- the variables whose value may differ from the
    solution the cached elaborations were made from -- and ``sited`` --
    the ids of the slot nodes that gained a site since -- it offers each
    unit's last elaboration, which the unit keeps while it read none of
    them (:meth:`Elaboration.unchanged`).  Without ``moved`` (after a
    full solve) every unit is elaborated afresh.
    """
    elaborator = _Elaborator(generation, solution)
    program = generation.program
    units = program_units(program)
    cached = cache.reuse() if cache is not None and moved is not None else None
    elaborations: List[Elaboration] = []
    for index, unit in enumerate(units):
        previous = cached[index] if cached is not None else None
        if previous is not None and previous.unchanged(moved, sited):
            elaborations.append(previous)
        else:
            elaborations.append(elaborator.unit(unit))
    if cache is not None:
        cache.store(elaborations)
    split = len(program.declarations)
    return Program(
        tuple(e.node for e in elaborations[:split]),
        tuple(e.node for e in elaborations[split:]),
        span=program.span,
        name=program.name,
    )
