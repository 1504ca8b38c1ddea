"""Differential drift tests for the unified Figure 5–7 traversal.

The checker and the constraint generator are façades over one shared
:class:`repro.flow.analysis.FlowAnalysis`, so their rule *sites* agree by
construction.  These tests pin the remaining degree of freedom -- the two
algebras' *interpretations* of each site -- against each other:

* the concrete checker defaults every missing annotation to ⊥, and an
  unassigned label variable also evaluates to ⊥, so **evaluating the
  symbolic constraint system under the empty assignment must reproduce
  the concrete verdict exactly**, site for site (span, rule, kind);
* the symbolically inferred ``pc_fn`` / ``pc_tbl`` bounds must evaluate
  to the concrete checker's inferred bounds;
* solving-then-evaluating must agree with concrete re-checking: a
  satisfiable system elaborates to a program the stock checker accepts,
  an unsatisfiable one comes from a program the checker rejects.

Corpora: the random straight-line generator (leaky and leak-free
programs), the deep-dataflow chains (unannotated slots, satisfiable and
unsatisfiable variants), and the wide-table family (table keys, actions,
``pc_fn``/``pc_tbl`` bounds) -- across every registered lattice plus a
four-level chain.  CI runs this module as the ``drift-guard`` step.
"""

from __future__ import annotations

import pytest

from repro.frontend.parser import parse_program
from repro.ifc import ViolationKind, check_ifc
from repro.inference import evaluate, generate_constraints, infer_labels, solve
from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import (
    deep_dataflow_program,
    random_straightline_program,
    wide_table_program,
)
from repro.tool.pipeline import check_source

#: Kinds the require_* hooks produce (flow conditions: constraints in the
#: symbolic reading, diagnostics in the concrete one).
FLOW_KINDS = frozenset(
    {
        ViolationKind.EXPLICIT_FLOW,
        ViolationKind.IMPLICIT_FLOW,
        ViolationKind.TABLE_KEY_FLOW,
        ViolationKind.CALL_CONTEXT,
        ViolationKind.ARGUMENT_FLOW,
        ViolationKind.CONTROL_SIGNAL,
    }
)
#: Kinds reported through the shared ``error`` hook in both algebras.
ERROR_KINDS = frozenset(
    {
        ViolationKind.LABEL_ERROR,
        ViolationKind.TYPE_ERROR,
        ViolationKind.DECLASSIFICATION,
    }
)

#: Every registered lattice, plus a taller chain for multi-level coverage.
LATTICE_NAMES = tuple(available_lattices()) + ("chain-4",)

#: Fixed seed matrix (also exercised by the CI drift-guard step).
SEEDS = tuple(range(0, 90, 3))


def generator_levels(lattice):
    """The lattice's labels as generator level names, lowest first."""
    members = list(lattice.labels())
    ranked = sorted(members, key=lambda a: sum(lattice.leq(b, a) for b in members))
    return [str(label) for label in ranked]


def assert_no_drift(source, lattice, *, allow_declassification=False):
    """Check ``source`` with both algebras and compare site-for-site."""
    program = parse_program(source)
    concrete = check_ifc(
        program, lattice, allow_declassification=allow_declassification
    )
    generation = generate_constraints(
        program, lattice, allow_declassification=allow_declassification
    )
    # Unassigned variables evaluate to ⊥ -- the checker's default for a
    # missing annotation -- so the ⊥-evaluated system is the checker.
    # Sites are compared as (span, rule): the constraint IR deduplicates
    # syntactically identical ⊑ facts, so when one rule application imposes
    # the same comparison twice under different kinds (T-Assign's explicit
    # value flow and implicit pc flow can coincide), the system keeps one
    # constraint where the checker reports two diagnostics.
    violated = {
        (c.span, c.rule)
        for c in generation.constraints
        if not lattice.leq(
            evaluate(c.lhs, lattice, {}), evaluate(c.rhs, lattice, {})
        )
    }
    concrete_flows = {
        (diag.span, diag.rule)
        for diag in concrete.diagnostics
        if diag.kind in FLOW_KINDS
    }
    assert violated == concrete_flows, (
        f"drift between algebras under {lattice.name}:\n"
        f"  symbolic-only: {sorted(map(str, violated - concrete_flows))}\n"
        f"  concrete-only: {sorted(map(str, concrete_flows - violated))}\n{source}"
    )
    generated_errors = {(d.span, d.rule, d.kind) for d in generation.errors}
    concrete_errors = {
        (diag.span, diag.rule, diag.kind)
        for diag in concrete.diagnostics
        if diag.kind in ERROR_KINDS
    }
    assert generated_errors == concrete_errors
    for name, bound in generation.function_bounds.items():
        assert lattice.equal(
            concrete.function_bounds[name], evaluate(bound, lattice, {})
        ), f"pc_fn of {name!r} drifted under {lattice.name}"
    for name, bound in generation.table_bounds.items():
        assert lattice.equal(
            concrete.table_bounds[name], evaluate(bound, lattice, {})
        ), f"pc_tbl of {name!r} drifted under {lattice.name}"
    return concrete, generation


@pytest.mark.parametrize("lattice_name", LATTICE_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_straightline_corpus_has_no_drift(lattice_name, seed):
    lattice = get_lattice(lattice_name)
    source = random_straightline_program(
        seed, statements=6, levels=generator_levels(lattice)
    )
    concrete, generation = assert_no_drift(source, lattice)
    # Fully annotated: no label variables, so solving the system is the
    # same as evaluating it -- the solver verdict *is* the checker verdict.
    assert not generation.sites
    solution = solve(lattice, generation.constraints)
    assert solution.ok == concrete.ok


@pytest.mark.parametrize("lattice_name", LATTICE_NAMES)
def test_wide_table_corpus_has_no_drift(lattice_name):
    lattice = get_lattice(lattice_name)
    levels = generator_levels(lattice)
    for secure in (True, False):
        source = wide_table_program(
            tables=3, actions_per_table=3, keys_per_table=2, secure=secure, seed=7
        )
        # The generator spells labels low/high; map those onto the lattice's
        # own bottom/top levels so the variant is meaningful everywhere.
        source = source.replace("low", levels[0]).replace("high", levels[-1])
        concrete, generation = assert_no_drift(source, lattice)
        solution = solve(lattice, generation.constraints)
        assert solution.ok == concrete.ok
        assert concrete.ok is secure


@pytest.mark.parametrize("lattice_name", LATTICE_NAMES)
@pytest.mark.parametrize("satisfiable", [True, False], ids=["sat", "unsat"])
def test_deep_dataflow_corpus_has_no_drift(lattice_name, satisfiable):
    lattice = get_lattice(lattice_name)
    levels = generator_levels(lattice)
    source = deep_dataflow_program(
        12,
        chains=2,
        source_level=levels[-1],
        sink_level=None if satisfiable else levels[0],
    )
    assert_no_drift(source, lattice)
    # Solving-then-evaluating: the inferred (elaborated) program must get
    # the stock checker's blessing exactly when the system is satisfiable.
    result = infer_labels(parse_program(source), lattice)
    assert result.ok is satisfiable
    if satisfiable:
        assert check_ifc(result.elaborated, lattice).ok
    else:
        assert result.solution.conflicts


# ---------------------------------------------------------------------------
# declassification and control-plane signals, under both algebras


DECLASSIFY_PRELUDE = """
header h_t {
    <bit<8>, low>  pub;
    <bit<8>, high> sec;
    <bool, high>   sec_flag;
    <bool, low>    pub_flag;
}
struct headers { h_t h; }
"""


def control(body: str, locals_: str = "") -> str:
    return (
        DECLASSIFY_PRELUDE
        + "control C(inout headers hdr) {\n"
        + locals_
        + "\n  apply {\n"
        + body
        + "\n  }\n}"
    )


class TestDeclassificationUnderBothAlgebras:
    def test_release_accepted_by_both(self, two_point):
        concrete, generation = assert_no_drift(
            control("hdr.h.pub = declassify(hdr.h.sec);"),
            two_point,
            allow_declassification=True,
        )
        assert concrete.ok and not generation.errors
        assert len(concrete.declassifications) == 1

    def test_forbidden_release_reported_by_both(self, two_point):
        concrete, generation = assert_no_drift(
            control("hdr.h.pub = declassify(hdr.h.sec);"),
            two_point,
            allow_declassification=False,
        )
        assert [d.kind for d in generation.errors] == [
            ViolationKind.DECLASSIFICATION
        ]
        # The concrete checker additionally keeps checking the unreleased
        # value, so the high-into-low assignment surfaces as a flow too.
        assert [d.kind for d in concrete.diagnostics] == [
            ViolationKind.DECLASSIFICATION,
            ViolationKind.EXPLICIT_FLOW,
        ]
        assert concrete.declassifications == []

    def test_release_under_high_guard_rejected_by_both(self, two_point):
        concrete, generation = assert_no_drift(
            control("if (hdr.h.sec_flag) { hdr.h.sec = declassify(hdr.h.sec); }"),
            two_point,
            allow_declassification=True,
        )
        assert not concrete.ok
        assert any(
            c.kind is ViolationKind.IMPLICIT_FLOW and c.rule == "T-Declassify"
            for c in generation.constraints
        )

    def test_high_writing_action_cannot_declassify(self, two_point):
        """The pc_fn ⊑ ⊥ obligation: a body writing only high has a high
        write bound, so an audited release inside it leaks the caller's
        guard.  The concrete algebra finds this on the re-walk under
        ``pc_fn``; the symbolic algebra through the recorded obligation."""
        locals_ = (
            "  action leak() {\n"
            "      hdr.h.sec = declassify(hdr.h.sec);\n"
            "      hdr.h.sec = hdr.h.sec + 1;\n"
            "  }"
        )
        concrete, generation = assert_no_drift(
            control("leak();", locals_), two_point, allow_declassification=True
        )
        assert any(
            d.kind is ViolationKind.IMPLICIT_FLOW and d.rule == "T-Declassify"
            for d in concrete.diagnostics
        )
        assert any(
            c.rule == "T-Declassify" and "pc_fn" in c.reason
            for c in generation.constraints
        )

    def test_low_writing_action_may_declassify(self, two_point):
        locals_ = "  action release() { hdr.h.pub = declassify(hdr.h.sec); }"
        concrete, generation = assert_no_drift(
            control("release();", locals_), two_point, allow_declassification=True
        )
        assert concrete.ok
        assert len(concrete.declassifications) == 1  # silent pass audits nothing

    def test_arity_error_reported_by_both(self, two_point):
        concrete, generation = assert_no_drift(
            control("hdr.h.pub = declassify(hdr.h.sec, hdr.h.pub);"),
            two_point,
            allow_declassification=True,
        )
        assert [d.kind for d in generation.errors] == [ViolationKind.TYPE_ERROR]


class TestControlSignalsUnderBothAlgebras:
    def test_exit_under_high_guard_rejected_by_both(self, two_point):
        concrete, generation = assert_no_drift(
            control("if (hdr.h.sec_flag) { exit; }"), two_point
        )
        assert [d.kind for d in concrete.diagnostics] == [
            ViolationKind.CONTROL_SIGNAL
        ]
        assert any(
            c.kind is ViolationKind.CONTROL_SIGNAL and c.rule == "T-Exit"
            for c in generation.constraints
        )

    def test_exit_under_low_guard_accepted_by_both(self, two_point):
        concrete, generation = assert_no_drift(
            control("if (hdr.h.pub_flag) { exit; }"), two_point
        )
        assert concrete.ok
        assert not any(
            c.kind is ViolationKind.CONTROL_SIGNAL for c in generation.constraints
        )

    def test_return_in_guarded_action_body(self, two_point):
        """``return`` under a secret guard inside an action: T-Return's
        pc ⊑ ⊥ fails in both readings, at the same site."""
        locals_ = (
            "  action maybe_stop() {\n"
            "      if (hdr.h.sec_flag) { return; }\n"
            "      hdr.h.pub = 1;\n"
            "  }"
        )
        concrete, generation = assert_no_drift(control("maybe_stop();", locals_), two_point)
        concrete_sites = {
            (d.span, d.rule)
            for d in concrete.diagnostics
            if d.kind is ViolationKind.CONTROL_SIGNAL
        }
        symbolic_sites = {
            (c.span, c.rule)
            for c in generation.constraints
            if c.kind is ViolationKind.CONTROL_SIGNAL
        }
        assert concrete_sites and concrete_sites == symbolic_sites

    def test_exit_forces_bottom_write_bound_in_both(self, two_point):
        locals_ = "  action stop() { exit; }"
        concrete, generation = assert_no_drift(control("stop();", locals_), two_point)
        assert two_point.equal(concrete.function_bounds["stop"], two_point.bottom)
        assert two_point.equal(
            evaluate(generation.function_bounds["stop"], two_point, {}),
            two_point.bottom,
        )


# ---------------------------------------------------------------------------
# Core P4's typing under the label rules: the one operator table decides
# which assignments get a flow check, and a dropped release is still typed


def checked(source, *, infer=False):
    """``(core, flows)`` of a check: core diagnostics as (rule, message),
    the inference (with ``infer``) or IFC diagnostics as (kind, rule)."""
    report = check_source(source, infer=infer, allow_declassification=True)
    flows = report.inference_diagnostics if infer else report.ifc_diagnostics
    return (
        [(d.rule, d.message) for d in report.core_diagnostics],
        [(d.kind, d.rule) for d in flows],
    )


class TestCoreTypingUnderTheLabelRules:
    def test_shift_by_a_secret_amount_into_a_wider_public_target(self, two_point):
        """``1 << y`` has Core P4's type ``int``, whatever ``y``'s width, so
        it fits a ``bit<16>`` target and its label is checked: a high
        shift amount is an explicit flow into a low ``x``."""
        source = control("x = 1 << hdr.h.sec;", "  <bit<16>, low> x;")
        assert_no_drift(source, two_point)
        for infer in (False, True):
            assert checked(source, infer=infer) == (
                [],
                [(ViolationKind.EXPLICIT_FLOW, "T-Assign")],
            )

    def test_reordered_struct_assignment_is_a_core_error_without_a_flow(self, two_point):
        """Core P4 matches record fields in order, so assigning a struct
        from one with the same fields swapped is a core error; the label
        rules add no flow check for it, even from a high source."""
        source = (
            "struct pair_t { <bit<8>, low> a; <bit<8>, low> b; }\n"
            "struct swapped_t { <bit<8>, low> b; <bit<8>, low> a; }\n"
        ) + control("p = q;", "  pair_t p;\n  <swapped_t, high> q;")
        assert_no_drift(source, two_point)
        for infer in (False, True):
            assert checked(source, infer=infer) == (
                [
                    (
                        "T-Assign",
                        "cannot assign struct {b: <bit<8>, low>, a: <bit<8>, low>} "
                        "to 'p' of type struct {a: <bit<8>, low>, b: <bit<8>, low>}",
                    )
                ],
                [],
            )

    def test_int_target_fed_a_bit_is_a_core_error_without_a_flow(self, two_point):
        source = control("x = hdr.h.sec;", "  <int, low> x;")
        assert_no_drift(source, two_point)
        for infer in (False, True):
            assert checked(source, infer=infer) == (
                [("T-Assign", "cannot assign bit<8> to 'x' of type int")],
                [],
            )

    def test_dropped_release_types_its_argument(self, two_point):
        """``declassify(e);`` releases nothing, but ``e`` is still typed:
        its core errors and the flows of a call inside it are reported."""
        function = "  function <bit<8>, low> f(in <bit<8>, low> v) { hdr.h.pub = v; return v; }"
        cases = {
            control("declassify(hdr.h.sec + true);"): (
                [("T-BinOp", "operator '+' cannot be applied to bit<8> and bool")],
                [],
            ),
            control("declassify(f(hdr.h.sec));", function): (
                [],
                [(ViolationKind.ARGUMENT_FLOW, "T-Call")],
            ),
            control("if (hdr.h.sec_flag) { declassify(f(hdr.h.pub)); }", function): (
                [],
                [(ViolationKind.CALL_CONTEXT, "T-FnCall")],
            ),
            control("declassify(hdr.h.sec);"): ([], []),
        }
        for source, expected in cases.items():
            assert_no_drift(source, two_point, allow_declassification=True)
            for infer in (False, True):
                assert checked(source, infer=infer) == expected, source
