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

from typing import Optional

from repro.inference.generate import GenerationResult
from repro.inference.solve import Solution
from repro.syntax import declarations as d
from repro.syntax import statements as s
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


class _Elaborator:
    def __init__(self, generation: GenerationResult, solution: Solution) -> None:
        self._registry = generation.registry
        self._control_pc_vars = {
            id(control): var for control, var in generation.control_pc_vars
        }
        self._solution = solution
        self._lattice = generation.lattice

    # -- types ---------------------------------------------------------------

    def _label_text(self, node: AnnotatedType) -> Optional[str]:
        site = self._registry.site_of(node) if self._registry is not None else None
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


def elaborate_program(generation: GenerationResult, solution: Solution) -> Program:
    """The program with every inferred label written into its slot."""
    elaborator = _Elaborator(generation, solution)
    program = generation.program
    return Program(
        tuple(elaborator.declaration(decl) for decl in program.declarations),
        tuple(elaborator.control(control) for control in program.controls),
        span=program.span,
        name=program.name,
    )
