"""Shape tests for the SARIF 2.1.0 serialisation and the CLI surface.

No JSON-schema validator ships in the environment, so these tests pin the
required SARIF structure by hand: ``version``, ``runs[].tool.driver``
(name, version, rules with metadata), and ``results[]`` whose physical
locations carry 1-based regions with both start and end positions.  The
CLI tests exercise ``p4bid --lint --sarif FILE`` end to end, including
the parse-error and core-type-error mappings.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    ALL_RULES,
    finding_from_parse_error,
    findings_from_core,
    findings_from_diagnostics,
    run_lints,
    sarif_document,
    sarif_json,
)
from repro.frontend.parser import parse_program
from repro.ifc.errors import IfcDiagnostic, ViolationKind
from repro.lattice.registry import get_lattice
from repro.syntax.source import Position, SourceSpan
from repro.tool.cli import main as cli_main
from repro.typechecker.errors import TypeDiagnostic
from repro.version import __version__

LEAKY = """\
header h_t {
    <bit<8>, high> secret;
    <bit<8>, low> pub;
}

control C(inout h_t hdr) {
    bit<8> scratch = hdr.secret;
    apply {
        hdr.pub = hdr.secret;
    }
}
"""


def _lint_findings(source: str):
    lattice = get_lattice("two-point")
    return run_lints(parse_program(source), lattice)


class TestSarifShape:
    def test_document_skeleton(self):
        doc = sarif_document([("leaky.p4", _lint_findings(LEAKY))])
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        assert len(doc["runs"]) == 1
        driver = doc["runs"][0]["tool"]["driver"]
        assert driver["name"] == "p4bid"
        assert driver["version"] == __version__
        assert driver["informationUri"].startswith("https://")

    def test_rules_carry_full_metadata(self):
        doc = sarif_document([])
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [rule.code for rule in ALL_RULES]
        for rule in rules:
            assert rule["name"]
            assert rule["shortDescription"]["text"]
            assert rule["fullDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "note",
                "warning",
                "error",
            )

    def test_results_reference_rules_by_index(self):
        doc = sarif_document([("leaky.p4", _lint_findings(LEAKY))])
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        assert run["results"], "the leaky program must produce findings"
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            assert result["level"] in ("note", "warning", "error")
            assert result["message"]["text"]

    def test_regions_are_one_based_with_ends(self):
        doc = sarif_document([("leaky.p4", _lint_findings(LEAKY))])
        for result in doc["runs"][0]["results"]:
            for location in result["locations"]:
                physical = location["physicalLocation"]
                assert physical["artifactLocation"]["uri"] == "leaky.p4"
                region = physical["region"]
                assert region["startLine"] >= 1
                assert region["startColumn"] >= 1
                assert region["endLine"] >= region["startLine"]
                assert (
                    region["endLine"] > region["startLine"]
                    or region["endColumn"] >= region["startColumn"]
                )

    def test_unknown_spans_pin_to_first_character(self):
        diag = IfcDiagnostic(
            ViolationKind.EXPLICIT_FLOW, "synthesised", SourceSpan.unknown(), "rule"
        )
        doc = sarif_document([("x.p4", findings_from_diagnostics([diag]))])
        region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
            "region"
        ]
        assert region == {
            "startLine": 1,
            "startColumn": 1,
            "endLine": 1,
            "endColumn": 1,
        }

    def test_diagnostic_mappings(self):
        span = SourceSpan(Position(3, 1), Position(3, 9), "x.p4")
        ifc = findings_from_diagnostics(
            [IfcDiagnostic(ViolationKind.IMPLICIT_FLOW, "implicit", span, "if-t")]
        )
        assert [f.code for f in ifc] == ["P4B102"]
        core = findings_from_core([TypeDiagnostic("bad width", span, "t-assign")])
        assert [f.code for f in core] == ["P4B110"]
        parse = finding_from_parse_error("unexpected token", "x.p4")
        assert parse.code == "P4B100"
        assert parse.span.filename == "x.p4"

    def test_json_round_trips(self):
        text = sarif_json([("leaky.p4", _lint_findings(LEAKY))])
        assert json.loads(text)["version"] == "2.1.0"

    def test_artifacts_listed_per_file(self):
        doc = sarif_document([("a.p4", []), ("b.p4", [])])
        uris = [
            entry["location"]["uri"] for entry in doc["runs"][0]["artifacts"]
        ]
        assert uris == ["a.p4", "b.p4"]


class TestCliSarif:
    def _write(self, tmp_path, name, source):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return path

    def test_lint_sarif_end_to_end(self, tmp_path, capsys):
        program = self._write(tmp_path, "leaky.p4", LEAKY)
        out = tmp_path / "report.sarif"
        code = cli_main(
            [str(program), "--lint", "--infer", "--sarif", str(out)]
        )
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        codes = {r["ruleId"] for r in results}
        assert "P4B004" in codes, "the dead scratch slot must be reported"
        assert any(c.startswith("P4B10") for c in codes), (
            "the leak itself must be reported as an error result"
        )
        for result in results:
            uri = result["locations"][0]["physicalLocation"]["artifactLocation"][
                "uri"
            ]
            assert uri == str(program)
        text = capsys.readouterr().out
        assert "lint finding(s)" in text

    def test_parse_error_becomes_sarif_result(self, tmp_path, capsys):
        program = self._write(tmp_path, "broken.p4", "header h_t {")
        out = tmp_path / "report.sarif"
        code = cli_main([str(program), "--sarif", str(out)])
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["P4B100"]
        assert results[0]["level"] == "error"
        capsys.readouterr()

    def test_sarif_collects_multiple_files(self, tmp_path, capsys):
        clean = self._write(
            tmp_path,
            "clean.p4",
            LEAKY.replace("hdr.pub = hdr.secret;", "hdr.pub = hdr.pub;").replace(
                "bit<8> scratch = hdr.secret;", ""
            ),
        )
        leaky = self._write(tmp_path, "leaky.p4", LEAKY)
        out = tmp_path / "both.sarif"
        code = cli_main([str(clean), str(leaky), "--lint", "--sarif", str(out)])
        assert code == 1
        doc = json.loads(out.read_text(encoding="utf-8"))
        uris = [e["location"]["uri"] for e in doc["runs"][0]["artifacts"]]
        assert uris == [str(clean), str(leaky)]
        result_uris = {
            r["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
            for r in doc["runs"][0]["results"]
        }
        assert result_uris == {str(leaky)}
        capsys.readouterr()

    def test_explain_flows_implies_allow_declassify(self, tmp_path, capsys):
        source = LEAKY.replace(
            "hdr.pub = hdr.secret;", "hdr.pub = declassify(hdr.secret);"
        ).replace("bit<8> scratch = hdr.secret;", "")
        program = self._write(tmp_path, "release.p4", source)
        code = cli_main([str(program), "--explain-flows", "--lint"])
        assert code == 0
        text = capsys.readouterr().out
        assert "released flow(s)" in text
        assert "leak path" in text

    def test_lint_conflicts_with_core_only(self, tmp_path):
        program = self._write(tmp_path, "p.p4", LEAKY)
        with pytest.raises(SystemExit):
            cli_main([str(program), "--lint", "--core-only"])
