"""Tests for the P4BID pipeline, report rendering, and the CLI."""

import json

import pytest

from repro import check_source
from repro.casestudies import get_case_study
from repro.frontend.parser import parse_program
from repro.lattice import DiamondLattice
from repro.synth import deep_dataflow_program
from repro.tool.cli import build_arg_parser, main
from repro.tool.pipeline import check_program, check_source as pipeline_check_source
from repro.tool.report import format_report, report_to_dict, report_to_json


class TestPipeline:
    def test_package_level_reexport(self, minimal_source):
        assert check_source is pipeline_check_source or check_source(minimal_source).ok

    def test_ok_program(self, minimal_source):
        report = check_source(minimal_source, name="minimal")
        assert report.ok
        assert report.parsed
        assert report.core_ok
        assert report.name == "minimal"

    def test_parse_error_reported(self):
        report = check_source("control {", name="broken")
        assert not report.ok
        assert not report.parsed
        assert report.parse_error is not None
        assert report.diagnostics == []

    def test_include_ifc_false_skips_security_checks(self):
        case = get_case_study("cache")
        report = check_source(case.insecure_source, include_ifc=False)
        assert report.ok
        assert report.ifc_result is None
        assert report.timing.ifc_ms == 0.0

    def test_full_pipeline_times_all_phases(self):
        case = get_case_study("cache")
        report = check_source(case.secure_source)
        assert report.timing.parse_ms > 0
        assert report.timing.core_ms > 0
        assert report.timing.ifc_ms > 0
        assert report.timing.total_ms >= report.timing.ifc_ms

    def test_lattice_by_name(self):
        case = get_case_study("lattice")
        report = check_source(case.secure_source, "diamond")
        assert report.ok
        assert report.lattice_name == "diamond"

    def test_lattice_by_instance(self):
        case = get_case_study("lattice")
        report = check_source(case.secure_source, DiamondLattice())
        assert report.ok

    def test_check_program_entry_point(self, minimal_source):
        program = parse_program(minimal_source)
        report = check_program(program, name="from-ast")
        assert report.ok
        assert report.name == "from-ast"

    def test_diagnostics_merge_core_and_ifc(self):
        source = """
        header h_t { <bit<8>, high> sec; <bit<8>, low> pub; }
        struct headers { h_t h; }
        control C(inout headers hdr) {
            apply {
                hdr.h.pub = hdr.h.sec;
                ghost = 1;
            }
        }
        """
        report = check_source(source)
        assert report.core_diagnostics
        assert report.ifc_diagnostics
        assert len(report.diagnostics) == len(report.core_diagnostics) + len(
            report.ifc_diagnostics
        )


class TestReportRendering:
    def test_text_report_accepted(self, minimal_source):
        text = format_report(check_source(minimal_source))
        assert "OK" in text
        assert "timing" in text

    def test_text_report_rejected(self):
        case = get_case_study("topology")
        text = format_report(check_source(case.insecure_source))
        assert "REJECTED" in text
        assert "explicit-flow" in text

    def test_text_report_parse_error(self):
        text = format_report(check_source("control {"))
        assert "parse error" in text

    def test_verbose_report_shows_bounds(self):
        case = get_case_study("cache")
        text = format_report(check_source(case.secure_source), verbose=True)
        assert "pc_tbl" in text or "table bounds" in text

    def test_json_report(self):
        case = get_case_study("cache")
        payload = json.loads(report_to_json(check_source(case.insecure_source)))
        assert payload["ok"] is False
        assert payload["ifc_diagnostics"]
        assert payload["ifc_diagnostics"][0]["kind"] == "table-key-flow"
        assert "timing_ms" in payload

    def test_dict_report_round_trips_through_json(self, minimal_source):
        payload = report_to_dict(check_source(minimal_source))
        assert json.loads(json.dumps(payload)) == payload

    def test_solver_stats_threaded_through_report(self):
        report = check_source(deep_dataflow_program(8), infer=True)
        assert report.ok
        stats = report.inference_result.solution.stats
        assert stats is not None and stats.edge_count > 0
        # The solve portion of the infer phase is recorded separately.
        assert 0.0 < report.timing.solve_ms <= report.timing.infer_ms

        text = format_report(report, solver_stats=True)
        assert "solver statistics" in text
        assert "SCCs:" in text
        assert "solver statistics" not in format_report(report)

        payload = report_to_dict(report)
        assert payload["inference"]["solver"]["edges"] == stats.edge_count
        assert payload["inference"]["solver"]["sccs"] == stats.scc_count
        assert payload["timing_ms"]["solve"] == report.timing.solve_ms
        assert json.loads(json.dumps(payload)) == payload


class TestCli:
    def write(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    def test_accept_exit_code(self, tmp_path, capsys, minimal_source):
        path = self.write(tmp_path, "ok.p4", minimal_source)
        assert main([path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_reject_exit_code(self, tmp_path, capsys):
        case = get_case_study("topology")
        path = self.write(tmp_path, "bad.p4", case.insecure_source)
        assert main([path]) == 1
        assert "explicit-flow" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/program.p4"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_core_only_flag(self, tmp_path, capsys):
        case = get_case_study("cache")
        path = self.write(tmp_path, "cache.p4", case.insecure_source)
        assert main(["--core-only", path]) == 0

    def test_lattice_flag(self, tmp_path, capsys):
        case = get_case_study("lattice")
        path = self.write(tmp_path, "iso.p4", case.secure_source)
        assert main(["--lattice", "diamond", path]) == 0

    def test_json_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, "ok.p4", get_case_study("cache").secure_source)
        assert main(["--json", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_multiple_files_any_failure_fails(self, tmp_path, capsys, minimal_source):
        good = self.write(tmp_path, "good.p4", minimal_source)
        bad = self.write(tmp_path, "bad.p4", get_case_study("cache").insecure_source)
        assert main([good, bad]) == 1

    def test_verbose_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, "ok.p4", get_case_study("cache").secure_source)
        assert main(["--verbose", path]) == 0

    def test_arg_parser_defaults(self):
        args = build_arg_parser().parse_args(["x.p4"])
        assert args.lattice == "two-point"
        assert not args.core_only
        assert not args.json
        assert not args.solver_stats

    def test_solver_stats_flag(self, tmp_path, capsys):
        path = self.write(tmp_path, "deep.p4", deep_dataflow_program(6))
        assert main(["--infer", "--solver-stats", path]) == 0
        out = capsys.readouterr().out
        assert "solver statistics" in out
        assert "worklist pops" in out

    def test_solver_stats_requires_infer(self, tmp_path, capsys):
        path = self.write(tmp_path, "deep.p4", deep_dataflow_program(6))
        with pytest.raises(SystemExit):
            main(["--solver-stats", path])

    @pytest.mark.parametrize(
        "flags",
        [["--presolve"], ["--backend", "graph"], ["--solver-workers", "1"]],
        ids=["presolve", "backend", "solver-workers"],
    )
    def test_there_are_no_solver_options(self, tmp_path, capsys, flags):
        """One constraint solver: neither ``p4bid`` nor ``p4bid serve``
        takes an option that selects or tunes it."""
        path = self.write(tmp_path, "deep.p4", deep_dataflow_program(6))
        for argv in (["--infer", *flags, path], ["serve", *flags]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
