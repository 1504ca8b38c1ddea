"""Unit tests for the parser."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.frontend.errors import FrontendError, ParserError
from repro.frontend.lexer import tokenize
from repro.frontend.parser import MAX_TYPE_DEPTH, parse_expression, parse_program
from repro.syntax import (
    Assign,
    BinaryOp,
    BitType,
    Block,
    BoolLiteral,
    Call,
    CallStmt,
    ControlDecl,
    Direction,
    Exit,
    FieldAccess,
    FunctionDecl,
    HeaderDecl,
    If,
    Index,
    IntLiteral,
    MatchKindDecl,
    RecordLiteral,
    Return,
    StackType,
    StructDecl,
    TableDecl,
    TypeName,
    TypedefDecl,
    UnaryOp,
    Var,
    VarDecl,
    VarDeclStmt,
)


class TestExpressions:
    def test_int_literal(self):
        expr = parse_expression("42")
        assert isinstance(expr, IntLiteral)
        assert expr.value == 42

    def test_width_literal(self):
        expr = parse_expression("8w200")
        assert isinstance(expr, IntLiteral)
        assert expr.width == 8

    def test_bool_literals(self):
        parsed = parse_expression("true")
        assert parsed == BoolLiteral(True, span=parsed.span)
        assert isinstance(parse_expression("false"), BoolLiteral)

    def test_variable(self):
        expr = parse_expression("hdr")
        assert isinstance(expr, Var)
        assert expr.name == "hdr"

    def test_field_access_chain(self):
        expr = parse_expression("hdr.ipv4.ttl")
        assert isinstance(expr, FieldAccess)
        assert expr.field_name == "ttl"
        assert isinstance(expr.target, FieldAccess)
        assert expr.target.field_name == "ipv4"

    def test_index(self):
        expr = parse_expression("stack[3]")
        assert isinstance(expr, Index)
        assert isinstance(expr.index, IntLiteral)

    def test_call_with_arguments(self):
        expr = parse_expression("forward(x, 1)")
        assert isinstance(expr, Call)
        assert len(expr.arguments) == 2

    def test_apply_desugars_to_call(self):
        expr = parse_expression("my_table.apply()")
        assert isinstance(expr, Call)
        assert isinstance(expr.callee, Var)
        assert expr.callee.name == "my_table"
        assert expr.arguments == ()

    def test_record_literal(self):
        expr = parse_expression("{a = 1, b = x}")
        assert isinstance(expr, RecordLiteral)
        assert [name for name, _ in expr.fields] == ["a", "b"]

    def test_unary(self):
        expr = parse_expression("!flag")
        assert isinstance(expr, UnaryOp)
        assert expr.op == "!"

    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_precedence_comparison_over_logic(self):
        expr = parse_expression("a < b && c == d")
        assert expr.op == "&&"
        assert expr.left.op == "<"
        assert expr.right.op == "=="

    def test_left_associativity(self):
        expr = parse_expression("a - b - c")
        assert expr.op == "-"
        assert isinstance(expr.left, BinaryOp)
        assert expr.left.op == "-"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryOp)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParserError):
            parse_expression("1 + 2 extra")

    def test_missing_operand(self):
        with pytest.raises(ParserError):
            parse_expression("1 +")


class TestTypeDeclarations:
    def test_header_with_annotations(self):
        program = parse_program(
            "header h_t { <bit<8>, high> secret; bit<16> plain; }"
        )
        (decl,) = program.declarations
        assert isinstance(decl, HeaderDecl)
        assert decl.fields[0].ty.label == "high"
        assert isinstance(decl.fields[0].ty.ty, BitType)
        assert decl.fields[0].ty.ty.width == 8
        assert decl.fields[1].ty.label is None

    def test_struct(self):
        program = parse_program("struct headers { h_t h; g_t g; }")
        (decl,) = program.declarations
        assert isinstance(decl, StructDecl)
        assert isinstance(decl.fields[0].ty.ty, TypeName)

    def test_typedef(self):
        program = parse_program("typedef bit<48> macAddr_t;")
        (decl,) = program.declarations
        assert isinstance(decl, TypedefDecl)
        assert decl.name == "macAddr_t"

    def test_match_kind(self):
        program = parse_program("match_kind { exact, lpm, ternary }")
        (decl,) = program.declarations
        assert isinstance(decl, MatchKindDecl)
        assert decl.members == ("exact", "lpm", "ternary")

    def test_stack_type_field(self):
        program = parse_program("header h_t { bit<8>[4] lanes; }")
        (decl,) = program.declarations
        field_type = decl.fields[0].ty.ty
        assert isinstance(field_type, StackType)
        assert field_type.size == 4

    def test_global_constant(self):
        program = parse_program("const bit<8> THRESHOLD = 3;")
        (decl,) = program.declarations
        assert isinstance(decl, VarDecl)
        assert decl.init is not None


class TestControls:
    SOURCE = """
    header h_t { <bit<8>, high> x; <bit<8>, low> y; }
    struct headers { h_t h; }

    @pc(A)
    control Main(inout headers hdr, in bit<8> port) {
        bit<8> counter = 0;
        action set_x(<bit<8>, high> v) { hdr.h.x = v; }
        action nop() { }
        table t {
            key = { hdr.h.y: exact; hdr.h.x: lpm; }
            actions = { set_x(1); nop; }
        }
        apply {
            if (hdr.h.y == 0) {
                t.apply();
            } else {
                nop();
            }
            exit;
        }
    }
    """

    def test_control_structure(self):
        program = parse_program(self.SOURCE)
        assert len(program.controls) == 1
        control = program.controls[0]
        assert isinstance(control, ControlDecl)
        assert control.name == "Main"
        assert control.pc_label == "A"
        assert [p.name for p in control.params] == ["hdr", "port"]
        assert control.params[0].direction is Direction.INOUT
        assert control.params[1].direction is Direction.IN

    def test_control_locals(self):
        control = parse_program(self.SOURCE).controls[0]
        kinds = [type(decl).__name__ for decl in control.local_declarations]
        assert kinds == ["VarDecl", "FunctionDecl", "FunctionDecl", "TableDecl"]

    def test_table_contents(self):
        control = parse_program(self.SOURCE).controls[0]
        table = control.local_declarations[-1]
        assert isinstance(table, TableDecl)
        assert [k.match_kind for k in table.keys] == ["exact", "lpm"]
        assert [a.name for a in table.actions] == ["set_x", "nop"]
        assert len(table.actions[0].arguments) == 1

    def test_apply_block(self):
        control = parse_program(self.SOURCE).controls[0]
        statements = control.apply_block.statements
        assert isinstance(statements[0], If)
        assert isinstance(statements[1], Exit)
        then_stmt = statements[0].then_branch.statements[0]
        assert isinstance(then_stmt, CallStmt)

    def test_action_params(self):
        control = parse_program(self.SOURCE).controls[0]
        action = control.local_declarations[1]
        assert isinstance(action, FunctionDecl)
        assert action.is_action
        assert action.params[0].ty.label == "high"

    def test_pc_annotation_only_on_controls(self):
        with pytest.raises(ParserError):
            parse_program("@pc(A) header h_t { bit<8> x; }")

    def test_unknown_annotation(self):
        with pytest.raises(ParserError):
            parse_program("@speed(9) control C() { apply { } }")

    def test_main_control_helper(self):
        program = parse_program(self.SOURCE)
        assert program.main_control().name == "Main"
        assert program.control_named("Main") is not None
        assert program.control_named("Other") is None


class TestStatements:
    def wrap(self, body: str):
        source = (
            "header h_t { bit<8> x; } struct headers { h_t h; }\n"
            "control C(inout headers hdr) { apply { " + body + " } }"
        )
        return parse_program(source).controls[0].apply_block.statements

    def test_assignment(self):
        (stmt,) = self.wrap("hdr.h.x = 3;")
        assert isinstance(stmt, Assign)

    def test_nested_blocks(self):
        (stmt,) = self.wrap("{ hdr.h.x = 1; hdr.h.x = 2; }")
        assert isinstance(stmt, Block)
        assert len(stmt.statements) == 2

    def test_if_without_else(self):
        (stmt,) = self.wrap("if (hdr.h.x == 1) { hdr.h.x = 2; }")
        assert isinstance(stmt, If)
        assert stmt.else_branch.is_empty()

    def test_else_if_chain(self):
        (stmt,) = self.wrap(
            "if (hdr.h.x == 1) { hdr.h.x = 2; } else if (hdr.h.x == 2) { hdr.h.x = 3; }"
        )
        assert isinstance(stmt.else_branch.statements[0], If)

    def test_return_with_value(self):
        (stmt,) = self.wrap("return hdr.h.x;")
        assert isinstance(stmt, Return)
        assert stmt.value is not None

    def test_bare_return(self):
        (stmt,) = self.wrap("return;")
        assert isinstance(stmt, Return)
        assert stmt.value is None

    def test_local_variable_declaration(self):
        (stmt,) = self.wrap("bit<8> tmp = hdr.h.x;")
        assert isinstance(stmt, VarDeclStmt)
        assert stmt.declaration.name == "tmp"

    def test_annotated_local_declaration(self):
        (stmt,) = self.wrap("<bit<8>, high> tmp;")
        assert isinstance(stmt, VarDeclStmt)
        assert stmt.declaration.ty.label == "high"

    def test_named_type_local_declaration(self):
        (stmt,) = self.wrap("h_t copy;")
        assert isinstance(stmt, VarDeclStmt)
        assert isinstance(stmt.declaration.ty.ty, TypeName)

    def test_multi_stack_local_declaration(self):
        """Any number of ``[n]`` suffixes start a declaration, and the
        local gets the very type the parameter form does."""
        source = (
            "header h_t { bit<8> x; }\n"
            "control C(in h_t[2][3] p) {\n"
            "    h_t[2][3] local;\n"
            "    apply { h_t[2][3] y; h_t[4] z; }\n"
            "}"
        )
        control = parse_program(source).controls[0]
        expected = control.params[0].ty.ty
        assert isinstance(expected, StackType) and expected.size == 3
        assert isinstance(expected.element.ty, StackType)
        assert control.local_declarations[0].ty.ty == expected
        y, z = control.apply_block.statements
        assert isinstance(y, VarDeclStmt) and y.declaration.name == "y"
        assert y.declaration.ty.ty == expected
        assert isinstance(z, VarDeclStmt) and z.declaration.ty.ty.size == 4

    def test_indexed_assignments_stay_statements(self):
        for body in ("a[1][2] = b;", "x[0] = y;", "a[1][2][3] = b[0];"):
            (stmt,) = self.wrap(body)
            assert isinstance(stmt, Assign)
            assert isinstance(stmt.target, Index)

    def test_stack_suffixes_past_the_type_cap(self):
        deep = "[1]" * (MAX_TYPE_DEPTH + 1)
        with pytest.raises(ParserError, match=f"deeper than {MAX_TYPE_DEPTH} levels"):
            self.wrap(f"h_t{deep} y;")
        (stmt,) = self.wrap("h_t" + "[1]" * MAX_TYPE_DEPTH + " y;")
        assert isinstance(stmt, VarDeclStmt)

    def test_expression_statement_must_be_call(self):
        with pytest.raises(ParserError):
            self.wrap("hdr.h.x + 1;")

    def test_missing_semicolon(self):
        with pytest.raises(ParserError):
            self.wrap("hdr.h.x = 1")


class TestParserErrors:
    def test_unclosed_control(self):
        with pytest.raises(ParserError):
            parse_program("control C(inout headers hdr) { apply { }")

    def test_bad_table_body(self):
        with pytest.raises(ParserError):
            parse_program(
                "control C() { table t { rows = { } } apply { } }"
            )

    def test_bad_top_level_token(self):
        with pytest.raises(ParserError):
            parse_program("== control")

    def test_error_carries_location(self):
        try:
            parse_program("header h_t { bit<8> }")
        except ParserError as exc:
            assert exc.span.start.line == 1
        else:  # pragma: no cover
            pytest.fail("expected a parse error")


# ---------------------------------------------------------------- mutation corpus
#
# Every case study (secure, insecure and body-stripped) and every synthetic
# program of the ``cold_check`` corpus, with every ``MUTATION_STRIDE``-th
# token deleted or duplicated.  Each outcome -- the error's class, message
# and rendered span, or the SHA-256 of the parsed program's ``repr``, which
# renders every span -- must match ``parse_mutations.json`` byte for byte.
# Regenerate the fixture only for a deliberate change of the parser's
# output:
#
#     PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \
#         import test_parser; test_parser.write_mutation_fixture()"

MUTATION_STRIDE = 31
MUTATION_FIXTURE = Path(__file__).with_name("parse_mutations.json")


def mutation_corpus():
    """``(name, source)`` of every program of the ``cold_check`` corpus."""
    from repro.casestudies import all_case_studies
    from repro.casestudies.base import strip_body_annotations
    from repro.synth.programs import (
        chain_pipeline_program,
        deep_dataflow_program,
        scc_cycle_program,
        sharded_dataflow_program,
        wide_table_program,
    )

    corpus = []
    for study in all_case_studies():
        corpus.append((f"{study.name}-secure", study.secure_source))
        corpus.append((f"{study.name}-insecure", study.insecure_source))
        corpus.append((f"{study.name}-stripped", strip_body_annotations(study.secure_source)))
    corpus.append(("deep-2x40", deep_dataflow_program(40, chains=2)))
    corpus.append(("deep-low-sink", deep_dataflow_program(80, sink_level="low")))
    corpus.append(("scc-rings", scc_cycle_program(25, 3)))
    corpus.append((
        "wide-insecure",
        wide_table_program(tables=8, actions_per_table=4, keys_per_table=2, secure=False, seed=7),
    ))
    corpus.append(("chain-16", chain_pipeline_program([f"L{i}" for i in range(16)], rounds=6)))
    corpus.append(("sharded-diamond", sharded_dataflow_program(6, depth=15, source_level="A")))
    return corpus


def _outcome(source, filename):
    try:
        program = parse_program(source, filename)
    except FrontendError as exc:
        span = exc.span
        return [type(exc).__name__, exc.message, f"{span.filename}:{span.start}-{span.end}"]
    return hashlib.sha256(repr(program).encode()).hexdigest()


def mutation_outcomes(name, source):
    """``[token index, "delete" | "duplicate", outcome]`` per mutation."""
    tokens = tokenize(source)[:-1]
    outcomes = []
    for at in range(0, len(tokens), MUTATION_STRIDE):
        start = tokens[at].offset
        end = start + len(tokens[at].text)
        for edit, mutated in (
            ("delete", source[:start] + source[end:]),
            ("duplicate", source[:end] + " " + source[start:]),
        ):
            outcomes.append([at, edit, _outcome(mutated, f"{name}.p4")])
    return outcomes


def write_mutation_fixture():
    """Record the current parser's outcomes, one mutation a line."""
    programs = [
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(outcome) for outcome in mutation_outcomes(name, source))
        + "\n]"
        for name, source in mutation_corpus()
    ]
    MUTATION_FIXTURE.write_text("{\n" + ",\n".join(programs) + "\n}\n")


@pytest.mark.parametrize("name, source", mutation_corpus(), ids=lambda value: value[:24])
def test_mutated_programs_parse_as_recorded(name, source):
    expected = json.loads(MUTATION_FIXTURE.read_text())[name]
    assert mutation_outcomes(name, source) == expected
