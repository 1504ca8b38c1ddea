"""Pretty printer: render an AST back to the annotated P4 dialect.

The output is accepted by :mod:`repro.frontend.parser`, so the printer is
used for parse/print round-trip tests and by the case-study generators
(which synthesise large programs, e.g. D2R with ``k`` unrolled BFS steps,
and feed the printed text back through the full pipeline the way a user
would).
"""

from __future__ import annotations

from typing import List

from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax import statements as s
from repro.syntax.program import Program
from repro.syntax.types import (
    AnnotatedType,
    BitType,
    BoolType,
    HeaderType,
    IntType,
    MatchKindType,
    RecordType,
    StackType,
    TableType,
    Type,
    TypeName,
    UnitType,
)

_INDENT = "    "


def pretty_print(node) -> str:
    """Render a :class:`Program` (or any sub-node) as source text."""
    printer = _Printer()
    return printer.render(node)


class _Printer:
    def render(self, node) -> str:
        if isinstance(node, Program):
            return self.program(node)
        if isinstance(node, d.ControlDecl):
            return "\n".join(self.control(node))
        if isinstance(node, d.Declaration):
            return "\n".join(self.declaration(node, 0))
        if isinstance(node, s.Statement):
            return "\n".join(self.statement(node, 0))
        if isinstance(node, e.Expression):
            return self.expression(node)
        if isinstance(node, AnnotatedType):
            return self.annotated_type(node)
        if isinstance(node, Type):
            return self.type(node)
        raise TypeError(f"cannot pretty print {type(node).__name__}")

    # -- program level -----------------------------------------------------

    def program(self, program: Program) -> str:
        lines: List[str] = []
        for decl in program.declarations:
            lines.extend(self.declaration(decl, 0))
            lines.append("")
        for control in program.controls:
            lines.extend(self.control(control))
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"

    def control(self, control: d.ControlDecl) -> List[str]:
        lines: List[str] = []
        if control.pc_label is not None:
            lines.append(f"@pc({control.pc_label})")
        params = ", ".join(self.param(p) for p in control.params)
        lines.append(f"control {control.name}({params}) {{")
        for decl in control.local_declarations:
            lines.extend(self.declaration(decl, 1))
        lines.append(f"{_INDENT}apply {{")
        for stmt in control.apply_block.statements:
            lines.extend(self.statement(stmt, 2))
        lines.append(f"{_INDENT}}}")
        lines.append("}")
        return lines

    # -- declarations --------------------------------------------------------

    def declaration(self, decl: d.Declaration, depth: int) -> List[str]:
        pad = _INDENT * depth
        if isinstance(decl, d.HeaderDecl):
            lines = [f"{pad}header {decl.name} {{"]
            for field in decl.fields:
                lines.append(f"{pad}{_INDENT}{self.annotated_type(field.ty)} {field.name};")
            lines.append(f"{pad}}}")
            return lines
        if isinstance(decl, d.StructDecl):
            lines = [f"{pad}struct {decl.name} {{"]
            for field in decl.fields:
                lines.append(f"{pad}{_INDENT}{self.annotated_type(field.ty)} {field.name};")
            lines.append(f"{pad}}}")
            return lines
        if isinstance(decl, d.TypedefDecl):
            return [f"{pad}typedef {self.annotated_type(decl.ty)} {decl.name};"]
        if isinstance(decl, d.MatchKindDecl):
            return [f"{pad}match_kind {{ {', '.join(decl.members)} }}"]
        if isinstance(decl, d.VarDecl):
            if decl.init is None:
                return [f"{pad}{self.annotated_type(decl.ty)} {decl.name};"]
            return [
                f"{pad}{self.annotated_type(decl.ty)} {decl.name} = "
                f"{self.expression(decl.init)};"
            ]
        if isinstance(decl, d.FunctionDecl):
            params = ", ".join(self.param(p) for p in decl.params)
            if decl.is_action:
                head = f"{pad}action {decl.name}({params}) {{"
            else:
                ret = (
                    self.annotated_type(decl.return_type)
                    if decl.return_type is not None
                    else "void"
                )
                head = f"{pad}function {ret} {decl.name}({params}) {{"
            lines = [head]
            for stmt in decl.body.statements:
                lines.extend(self.statement(stmt, depth + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(decl, d.TableDecl):
            lines = [f"{pad}table {decl.name} {{"]
            lines.append(f"{pad}{_INDENT}key = {{")
            for key in decl.keys:
                lines.append(
                    f"{pad}{_INDENT}{_INDENT}{self.expression(key.expression)}: "
                    f"{key.match_kind};"
                )
            lines.append(f"{pad}{_INDENT}}}")
            actions = "; ".join(self.action_ref(a) for a in decl.actions)
            lines.append(f"{pad}{_INDENT}actions = {{ {actions}; }}")
            lines.append(f"{pad}}}")
            return lines
        raise TypeError(f"cannot print declaration {type(decl).__name__}")

    def param(self, param: d.Param) -> str:
        direction = param.direction.value
        prefix = f"{direction} " if direction else ""
        return f"{prefix}{self.annotated_type(param.ty)} {param.name}"

    def action_ref(self, ref: d.ActionRef) -> str:
        if not ref.arguments:
            return ref.name
        args = ", ".join(map(self.expression, ref.arguments))
        return f"{ref.name}({args})"

    # -- statements -----------------------------------------------------------

    def statement(self, stmt: s.Statement, depth: int) -> List[str]:
        pad = _INDENT * depth
        if isinstance(stmt, s.Assign):
            return [
                f"{pad}{self.expression(stmt.target)} = "
                f"{self.expression(stmt.value)};"
            ]
        if isinstance(stmt, s.CallStmt):
            call = stmt.call
            if isinstance(call.callee, e.Var) and not call.arguments:
                return [f"{pad}{call.callee.name}.apply();"]
            return [f"{pad}{self.expression(call)};"]
        if isinstance(stmt, s.If):
            lines = [f"{pad}if ({self.expression(stmt.condition)}) {{"]
            for inner in stmt.then_branch.statements:
                lines.extend(self.statement(inner, depth + 1))
            if stmt.else_branch.is_empty():
                lines.append(f"{pad}}}")
            else:
                lines.append(f"{pad}}} else {{")
                for inner in stmt.else_branch.statements:
                    lines.extend(self.statement(inner, depth + 1))
                lines.append(f"{pad}}}")
            return lines
        if isinstance(stmt, s.Block):
            lines = [f"{pad}{{"]
            for inner in stmt.statements:
                lines.extend(self.statement(inner, depth + 1))
            lines.append(f"{pad}}}")
            return lines
        if isinstance(stmt, s.Exit):
            return [f"{pad}exit;"]
        if isinstance(stmt, s.Return):
            if stmt.value is None:
                return [f"{pad}return;"]
            return [f"{pad}return {self.expression(stmt.value)};"]
        if isinstance(stmt, s.VarDeclStmt):
            return self.declaration(stmt.declaration, depth)
        raise TypeError(f"cannot print statement {type(stmt).__name__}")

    # -- expressions ------------------------------------------------------------

    def expression(self, expr: e.Expression) -> str:
        if isinstance(expr, e.BoolLiteral):
            return "true" if expr.value else "false"
        if isinstance(expr, e.IntLiteral):
            if expr.width is None:
                return str(expr.value)
            return f"{expr.width}w{expr.value}"
        if isinstance(expr, e.Var):
            return expr.name
        if isinstance(expr, e.Index):
            return f"{self.expression(expr.array)}[{self.expression(expr.index)}]"
        if isinstance(expr, e.BinaryOp):
            return (
                f"({self.expression(expr.left)} {expr.op} "
                f"{self.expression(expr.right)})"
            )
        if isinstance(expr, e.UnaryOp):
            return f"({expr.op}{self.expression(expr.operand)})"
        if isinstance(expr, e.RecordLiteral):
            # map() and loops rather than generator expressions keep the
            # recursion at one frame per nesting level (see MAX_DEPTH).
            inner = []
            for name, value in expr.fields:
                inner.append(f"{name} = {self.expression(value)}")
            return "{" + ", ".join(inner) + "}"
        if isinstance(expr, e.FieldAccess):
            return f"{self.expression(expr.target)}.{expr.field_name}"
        if isinstance(expr, e.Call):
            args = ", ".join(map(self.expression, expr.arguments))
            return f"{self.expression(expr.callee)}({args})"
        raise TypeError(f"cannot print expression {type(expr).__name__}")

    # -- types -------------------------------------------------------------------

    def annotated_type(self, annotated: AnnotatedType) -> str:
        if annotated.label is None:
            return self.type(annotated.ty)
        return f"<{self.type(annotated.ty)}, {annotated.label}>"

    def type(self, ty: Type) -> str:
        if isinstance(ty, BoolType):
            return "bool"
        if isinstance(ty, IntType):
            return "int"
        if isinstance(ty, BitType):
            return f"bit<{ty.width}>"
        if isinstance(ty, UnitType):
            return "void"
        if isinstance(ty, TypeName):
            return ty.name
        if isinstance(ty, StackType):
            return f"{self.annotated_type(ty.element)}[{ty.size}]"
        if isinstance(ty, (RecordType, HeaderType)):
            keyword = "struct" if isinstance(ty, RecordType) else "header"
            inner = "; ".join(
                f"{self.annotated_type(f.ty)} {f.name}" for f in ty.fields
            )
            return f"{keyword} {{ {inner} }}"
        if isinstance(ty, MatchKindType):
            return "match_kind {" + ", ".join(ty.members) + "}"
        if isinstance(ty, TableType):
            return ty.describe()
        raise TypeError(f"cannot print type {type(ty).__name__}")
