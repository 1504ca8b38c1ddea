"""Table-driven corpus for the lint rules, plus leak-path witness tests.

Every rule has a *firing* program and a *non-firing near miss* -- the
minimal edit that should silence the rule -- and the corpus runs across
every registered lattice (label names are templated on each lattice's
formatted top/bottom).  The witness tests pin the acceptance criterion:
every failing case study yields at least one leak-path witness whose hops
all carry source provenance.
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    ALL_RULES,
    explain_flows,
    probe_declassifications,
    rule_by_code,
    rule_for_violation,
    rule_table,
    run_lints,
    witnesses_for_solution,
)
from repro.casestudies import all_case_studies
from repro.casestudies.base import strip_body_annotations, strip_security_annotations
from repro.frontend.parser import parse_program
from repro.ifc.errors import ViolationKind
from repro.inference import infer_labels
from repro.lattice.registry import available_lattices, get_lattice

LATTICE_NAMES = sorted(set(available_lattices()) | {"chain-3", "chain-5"})

CASE_NAMES = [case.name for case in all_case_studies()]
#: Insecure variants whose body-stripped inference conflicts: all but
#: topology, whose secret is a body annotation (see below).
BODY_STRIPPED_CONFLICTS = [name for name in CASE_NAMES if name != "topology"]


def _infer_body_stripped_insecure(case_name):
    case = next(c for c in all_case_studies() if c.name == case_name)
    partial = strip_body_annotations(case.insecure_source)
    return infer_labels(parse_program(partial), get_lattice(case.lattice_name))


def _program_template(body: str) -> str:
    """A two-field header (one {top}, one {bot}) around ``body``."""
    return (
        "header h_t {{\n"
        "    <bit<8>, {top}> secret;\n"
        "    <bit<8>, {bot}> pub;\n"
        "}}\n\n"
        "control C(inout h_t hdr) {{\n" + body + "}}\n"
    )


#: rule code -> (firing program template, near-miss template, needs declassify)
CORPUS = {
    "P4B001": (
        # Annotation equal to what inference would derive anyway.
        _program_template(
            "    <bit<8>, {top}> copy = hdr.secret;\n"
            "    apply {{ hdr.secret = copy; }}\n"
        ),
        # The same slot annotated above its inflow is slack, not redundant.
        _program_template(
            "    <bit<8>, {top}> copy = hdr.pub;\n"
            "    apply {{ hdr.secret = copy; }}\n"
        ),
        False,
    ),
    "P4B002": (
        # Annotation strictly above the least label the flows require.
        _program_template(
            "    <bit<8>, {top}> copy = hdr.pub;\n"
            "    apply {{ hdr.secret = copy; }}\n"
        ),
        # Tight annotation: the inflow matches the declared label.
        _program_template(
            "    <bit<8>, {top}> copy = hdr.secret;\n"
            "    apply {{ hdr.secret = copy; }}\n"
        ),
        False,
    ),
    "P4B003": (
        # The declassified value only ever reaches a {top} sink, so the
        # release changes nothing an observer can see.
        _program_template(
            "    apply {{ hdr.secret = declassify(hdr.secret); }}\n"
        ),
        # Released into a {bot} sink: the declassify is load-bearing.
        _program_template(
            "    apply {{ hdr.pub = declassify(hdr.secret); }}\n"
        ),
        True,
    ),
    "P4B004": (
        # The stored label is never read downstream.
        _program_template(
            "    bit<8> scratch = hdr.secret;\n"
            "    apply {{ hdr.secret = hdr.secret; }}\n"
        ),
        # Reading the slot into a sink makes the store live.
        _program_template(
            "    bit<8> scratch = hdr.secret;\n"
            "    apply {{ hdr.secret = scratch; }}\n"
        ),
        False,
    ),
    "P4B005": (
        # Statements after exit can never execute.
        _program_template(
            "    apply {{\n"
            "        exit;\n"
            "        hdr.secret = hdr.secret;\n"
            "    }}\n"
        ),
        # The exit is the last statement: nothing is dead.
        _program_template(
            "    apply {{\n"
            "        hdr.secret = hdr.secret;\n"
            "        exit;\n"
            "    }}\n"
        ),
        False,
    ),
}


def _lint_codes(template: str, lattice_name: str, *, declassify: bool):
    lattice = get_lattice(lattice_name)
    source = template.format(
        top=lattice.format_label(lattice.top),
        bot=lattice.format_label(lattice.bottom),
    )
    program = parse_program(source)
    findings = run_lints(program, lattice, allow_declassification=declassify)
    return {finding.code for finding in findings}


class TestLintCorpus:
    @pytest.mark.parametrize("lattice_name", LATTICE_NAMES)
    @pytest.mark.parametrize("code", sorted(CORPUS))
    def test_rule_fires_on_its_program(self, code, lattice_name):
        firing, _, declassify = CORPUS[code]
        assert code in _lint_codes(firing, lattice_name, declassify=declassify)

    @pytest.mark.parametrize("lattice_name", LATTICE_NAMES)
    @pytest.mark.parametrize("code", sorted(CORPUS))
    def test_rule_stays_silent_on_the_near_miss(self, code, lattice_name):
        _, near_miss, declassify = CORPUS[code]
        assert code not in _lint_codes(
            near_miss, lattice_name, declassify=declassify
        )

    def test_interface_annotations_are_never_linted(self):
        """Header/parameter annotations are policy, not implementation."""
        lattice = get_lattice("two-point")
        source = _program_template("    apply {{ hdr.pub = hdr.pub; }}\n").format(
            top="high", bot="low"
        )
        findings = run_lints(parse_program(source), lattice)
        assert not {f.code for f in findings} & {"P4B001", "P4B002"}

    def test_findings_are_ordered_by_position(self):
        lattice = get_lattice("two-point")
        source = _program_template(
            "    bit<8> scratch = hdr.secret;\n"
            "    apply {{\n"
            "        exit;\n"
            "        hdr.secret = hdr.secret;\n"
            "    }}\n"
        ).format(top="high", bot="low")
        findings = run_lints(parse_program(source), lattice)
        positions = [(f.span.start.line, f.span.start.column) for f in findings]
        assert positions == sorted(positions)
        assert [f.code for f in findings] == ["P4B004", "P4B005"]


class TestRuleRegistry:
    def test_rule_codes_are_unique_and_sorted(self):
        codes = [rule.code for rule in ALL_RULES]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))

    def test_every_violation_kind_has_a_rule(self):
        for kind in ViolationKind:
            rule = rule_for_violation(kind)
            assert rule.code.startswith("P4B1")
            assert rule is rule_by_code(rule.code)

    def test_rule_table_mentions_every_code(self):
        table = rule_table()
        for rule in ALL_RULES:
            assert rule.code in table


class TestDeclassifyProbes:
    def test_released_flows_found_for_effective_release(self):
        lattice = get_lattice("two-point")
        source = _program_template(
            "    apply {{ hdr.pub = declassify(hdr.secret); }}\n"
        ).format(top="high", bot="low")
        program = parse_program(source)
        sites, releases = probe_declassifications(program, lattice)
        assert len(sites) == 1
        assert releases[0], "the release must expose at least one flow"
        flows = explain_flows(program, lattice)
        assert flows and flows[0].witness.length >= 1

    def test_no_probe_work_without_declassify(self):
        lattice = get_lattice("two-point")
        source = _program_template("    apply {{ hdr.pub = hdr.pub; }}\n").format(
            top="high", bot="low"
        )
        sites, releases = probe_declassifications(parse_program(source), lattice)
        assert sites == [] and releases == {}


class TestLeakWitnesses:
    @pytest.mark.parametrize("case_name", CASE_NAMES)
    def test_every_failing_case_study_yields_a_witness(self, case_name):
        """Acceptance criterion: >=1 witness per conflict, hops with spans."""
        case = next(c for c in all_case_studies() if c.name == case_name)
        lattice = get_lattice(case.lattice_name)
        result = infer_labels(parse_program(case.insecure_source), lattice)
        assert not result.ok, "insecure variant must fail inference"
        witnesses = witnesses_for_solution(result.solution)
        assert len(witnesses) == len(result.solution.conflicts)
        for witness in witnesses:
            assert witness.hops, "every witness must have at least one hop"
            for hop in witness.hops:
                assert not hop.span.is_unknown(), (
                    f"hop without source provenance: {hop.describe(lattice)}"
                )

    @pytest.mark.parametrize("case_name", BODY_STRIPPED_CONFLICTS)
    def test_body_stripped_conflicts_carry_full_provenance(self, case_name):
        """When inference itself fails, the multi-hop chain is grounded."""
        result = _infer_body_stripped_insecure(case_name)
        assert not result.ok
        for witness in witnesses_for_solution(result.solution):
            assert witness.hops
            for hop in witness.hops:
                assert not hop.span.is_unknown()

    def test_body_stripped_topology_is_satisfiable(self):
        """Topology's secret is the label of an action parameter, a body
        annotation: stripped, it becomes a variable, and inference finds a
        satisfying assignment."""
        assert _infer_body_stripped_insecure("topology").ok

    def test_witnesses_rank_shortest_first(self):
        lattice = get_lattice("two-point")
        source = (
            "header h_t {\n"
            "    <bit<8>, high> secret;\n"
            "    <bit<8>, low> near;\n"
            "    <bit<8>, low> far;\n"
            "}\n\n"
            "control C(inout h_t hdr) {\n"
            "    bit<8> a = hdr.secret;\n"
            "    bit<8> b = a;\n"
            "    bit<8> c = b;\n"
            "    apply {\n"
            "        hdr.near = hdr.secret;\n"
            "        hdr.far = c;\n"
            "    }\n"
            "}\n"
        )
        result = infer_labels(parse_program(source), get_lattice("two-point"))
        assert not result.ok
        witnesses = witnesses_for_solution(result.solution)
        assert len(witnesses) == 2
        lengths = [w.length for w in witnesses]
        assert lengths == sorted(lengths)
        assert lengths[0] < lengths[-1], "the multi-hop chain must rank later"
        long_witness = witnesses[-1]
        described = long_witness.describe(lattice)
        assert "leak path" in described
        for hop in long_witness.hops:
            assert not hop.span.is_unknown()

    def test_fully_annotated_conflicts_still_get_witnesses(self):
        """Const-vs-const checks yield the one-hop witness (the check)."""
        lattice = get_lattice("two-point")
        source = _program_template(
            "    apply {{ hdr.pub = hdr.secret; }}\n"
        ).format(top="high", bot="low")
        result = infer_labels(parse_program(source), lattice)
        assert not result.ok
        witnesses = witnesses_for_solution(result.solution)
        assert witnesses and all(w.length >= 1 for w in witnesses)


class TestLintsAcrossCaseStudies:
    @pytest.mark.parametrize("case_name", CASE_NAMES)
    def test_lints_run_clean_on_every_case_study(self, case_name):
        """run_lints never crashes on real programs, secure or leaky."""
        case = next(c for c in all_case_studies() if c.name == case_name)
        lattice = get_lattice(case.lattice_name)
        for source in (case.secure_source, case.insecure_source):
            findings = run_lints(parse_program(source), lattice)
            for finding in findings:
                assert finding.rule in ALL_RULES
                assert finding.describe()
