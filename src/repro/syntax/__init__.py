"""Abstract syntax for the Core P4 fragment of Figure 1 / Figure 3.

The AST mirrors the paper's grammar:

* :mod:`repro.syntax.types` -- the base and general types of Figure 3.
* :mod:`repro.syntax.expressions` -- Figure 1a.
* :mod:`repro.syntax.statements` -- Figure 1b.
* :mod:`repro.syntax.declarations` -- Figure 1c/1d (variables, typedefs,
  match_kind, actions/functions, tables, headers/structs, controls).
* :mod:`repro.syntax.program` -- whole programs.

Security annotations from the surface syntax (``<bit<8>, high>``) are kept
as raw strings on :class:`repro.syntax.types.AnnotatedType`; the IFC checker
resolves them against a lattice, while the ordinary type checker ignores
them.
"""

from repro.syntax.source import SourceSpan, Position
from repro.syntax.types import (
    AnnotatedType,
    BitType,
    BoolType,
    Field,
    HeaderType,
    IntType,
    MatchKindType,
    RecordType,
    StackType,
    TableType,
    FunctionType,
    Parameter,
    Type,
    TypeName,
    UnitType,
)
from repro.syntax.expressions import (
    BinaryOp,
    BoolLiteral,
    Call,
    Expression,
    FieldAccess,
    Index,
    IntLiteral,
    RecordLiteral,
    UnaryOp,
    Var,
)
from repro.syntax.statements import (
    Assign,
    Block,
    CallStmt,
    Exit,
    If,
    Return,
    Statement,
    VarDeclStmt,
)
from repro.syntax.declarations import (
    ActionRef,
    ControlDecl,
    Declaration,
    Direction,
    FunctionDecl,
    HeaderDecl,
    MatchKindDecl,
    Param,
    StructDecl,
    TableDecl,
    TableKey,
    TypedefDecl,
    VarDecl,
)
from repro.syntax.program import Program
from repro.syntax.visitor import AstVisitor, walk
from repro.syntax.printer import pretty_print
from repro.syntax.digest import (
    declared_names,
    iter_tree,
    referenced_names,
    unit_fingerprint,
)

__all__ = [
    "SourceSpan",
    "Position",
    # types
    "AnnotatedType",
    "BitType",
    "BoolType",
    "Field",
    "HeaderType",
    "IntType",
    "MatchKindType",
    "RecordType",
    "StackType",
    "TableType",
    "FunctionType",
    "Parameter",
    "Type",
    "TypeName",
    "UnitType",
    # expressions
    "BinaryOp",
    "BoolLiteral",
    "Call",
    "Expression",
    "FieldAccess",
    "Index",
    "IntLiteral",
    "RecordLiteral",
    "UnaryOp",
    "Var",
    # statements
    "Assign",
    "Block",
    "CallStmt",
    "Exit",
    "If",
    "Return",
    "Statement",
    "VarDeclStmt",
    # declarations
    "ActionRef",
    "ControlDecl",
    "Declaration",
    "Direction",
    "FunctionDecl",
    "HeaderDecl",
    "MatchKindDecl",
    "Param",
    "StructDecl",
    "TableDecl",
    "TableKey",
    "TypedefDecl",
    "VarDecl",
    # program and utilities
    "Program",
    "AstVisitor",
    "walk",
    "pretty_print",
    # structural digests (incremental workspaces)
    "declared_names",
    "iter_tree",
    "referenced_names",
    "unit_fingerprint",
]
