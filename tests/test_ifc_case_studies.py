"""End-to-end IFC results on the paper's case studies (the accept/reject
matrix of Section 5)."""

import pytest

from repro.casestudies import get_case_study, strip_security_annotations, table1_case_studies
from repro.casestudies.d2r import d2r_source
from repro.ifc.errors import ViolationKind
from repro.tool.pipeline import check_source


class TestAcceptRejectMatrix:
    def test_secure_variant_accepted(self, case_study):
        report = check_source(
            case_study.secure_source, case_study.lattice_name, name=case_study.name
        )
        assert report.ok, [str(d) for d in report.diagnostics]

    def test_secure_variant_accepted_with_inference(self, case_study):
        report = check_source(
            case_study.secure_source, case_study.lattice_name, infer=True
        )
        assert report.ok, [str(d) for d in report.diagnostics]

    def test_insecure_variant_rejected(self, case_study):
        report = check_source(
            case_study.insecure_source, case_study.lattice_name, name=case_study.name
        )
        assert not report.ok
        assert report.ifc_diagnostics, "rejection must come from the IFC checker"

    def test_insecure_variant_core_typechecks(self, case_study):
        """The leak is a *security* error, not an ordinary type error."""
        report = check_source(
            case_study.insecure_source, case_study.lattice_name, include_ifc=False
        )
        assert report.ok, [str(d) for d in report.diagnostics]

    def test_expected_violation_kinds(self, case_study):
        report = check_source(case_study.insecure_source, case_study.lattice_name)
        seen = {diag.kind for diag in report.ifc_diagnostics}
        for expected in case_study.expected_violations:
            assert expected in seen, (
                f"{case_study.name}: expected a {expected.value} violation, saw "
                f"{[k.value for k in seen]}"
            )

    def test_unannotated_variant_accepted_by_baseline(self, case_study):
        report = check_source(
            case_study.unannotated_source, case_study.lattice_name, include_ifc=False
        )
        assert report.ok, [str(d) for d in report.diagnostics]

    def test_unannotated_variant_accepted_by_full_pipeline(self, case_study):
        """With no annotations every label defaults to ⊥, so nothing can leak."""
        report = check_source(case_study.unannotated_source, case_study.lattice_name)
        assert report.ok, [str(d) for d in report.diagnostics]


@pytest.mark.parametrize("steps", [1, 2, 4, 8, 16, 32])
def test_d2r_unrolled_secure_variant_accepted(steps):
    """The secure D2R program stays accepted however far its BFS unrolls."""
    assert check_source(d2r_source(secure=True, bfs_steps=steps)).ok


class TestSpecificFindings:
    def test_topology_flags_the_ttl_assignment(self):
        case = get_case_study("topology")
        report = check_source(case.insecure_source)
        (diag,) = report.ifc_diagnostics
        assert diag.kind is ViolationKind.EXPLICIT_FLOW
        assert "hdr.ipv4.ttl" in diag.message

    def test_d2r_flags_both_priority_writes(self):
        case = get_case_study("d2r")
        report = check_source(case.insecure_source)
        implicit = [
            d for d in report.ifc_diagnostics if d.kind is ViolationKind.IMPLICIT_FLOW
        ]
        assert len(implicit) == 2  # one per branch of the threshold conditional
        assert all("priority" in d.message for d in implicit)

    def test_cache_flags_the_table_key(self):
        case = get_case_study("cache")
        report = check_source(case.insecure_source)
        key_flows = [
            d for d in report.ifc_diagnostics if d.kind is ViolationKind.TABLE_KEY_FLOW
        ]
        assert key_flows
        assert any("query" in d.message for d in key_flows)

    def test_cache_key_leaks_into_both_actions(self):
        case = get_case_study("cache")
        report = check_source(case.insecure_source)
        key_flows = [
            d for d in report.ifc_diagnostics if d.kind is ViolationKind.TABLE_KEY_FLOW
        ]
        named = {d.message.split("action ")[1].split("'")[1] for d in key_flows}
        assert named == {"cache_hit", "cache_miss"}

    def test_app_flags_the_app_id_key(self):
        case = get_case_study("app")
        report = check_source(case.insecure_source)
        assert any(
            d.kind is ViolationKind.TABLE_KEY_FLOW and "appID" in d.message
            for d in report.ifc_diagnostics
        )

    def test_isolation_flags_both_leaks(self):
        case = get_case_study("lattice")
        report = check_source(case.insecure_source, "diamond")
        seen = {d.kind for d in report.ifc_diagnostics}
        assert ViolationKind.EXPLICIT_FLOW in seen or ViolationKind.ARGUMENT_FLOW in seen
        assert ViolationKind.TABLE_KEY_FLOW in seen
        assert len(report.ifc_diagnostics) >= 2

    def test_isolation_wrong_lattice_reports_label_errors(self):
        case = get_case_study("lattice")
        report = check_source(case.secure_source, "two-point")
        assert any(
            d.kind is ViolationKind.LABEL_ERROR for d in report.ifc_diagnostics
        )

    def test_netchain_flags_the_role_branch(self):
        case = get_case_study("netchain")
        report = check_source(case.insecure_source)
        assert any(
            d.kind is ViolationKind.CALL_CONTEXT for d in report.ifc_diagnostics
        )

    def test_diagnostics_carry_source_locations(self, case_study):
        report = check_source(case_study.insecure_source, case_study.lattice_name)
        for diag in report.ifc_diagnostics:
            assert diag.span.start.line > 0


class TestStripAnnotations:
    def test_strip_removes_labels(self):
        source = "header h_t { <bit<8>, high> x; <bool, low> y; }"
        assert strip_security_annotations(source) == "header h_t { bit<8> x; bool y; }"

    def test_strip_removes_pc_annotations(self):
        source = "@pc(A)\ncontrol C() { apply { } }"
        assert "@pc" not in strip_security_annotations(source)

    def test_strip_preserves_plain_types(self):
        source = "header h_t { bit<8> x; }"
        assert strip_security_annotations(source) == source

    def test_strip_output_reparses(self, case_study):
        from repro.frontend.parser import parse_program

        stripped = strip_security_annotations(case_study.secure_source)
        assert "<bit" not in stripped.replace("bit<", "")  # no annotations left
        parse_program(stripped)

    def test_unannotated_and_secure_have_same_shape(self):
        from repro.frontend.parser import parse_program
        from repro.syntax.visitor import walk

        for case in table1_case_studies():
            secure_nodes = sum(1 for _ in walk(parse_program(case.secure_source)))
            plain_nodes = sum(1 for _ in walk(parse_program(case.unannotated_source)))
            assert secure_nodes == plain_nodes


class TestTable1Registry:
    def test_table1_rows(self):
        names = [case.name for case in table1_case_studies()]
        assert names == ["d2r", "app", "lattice", "topology", "cache"]

    def test_registry_lookup_case_insensitive(self):
        assert get_case_study("Topology").name == "topology"

    def test_unknown_case_study(self):
        with pytest.raises(KeyError):
            get_case_study("quantum")

    def test_descriptions_present(self, case_study):
        assert case_study.description
        assert case_study.title
        assert case_study.section
