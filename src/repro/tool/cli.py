"""Command line interface: ``p4bid [options] program.p4``.

Exit status is 0 when every checked program is accepted, 1 when any program
is rejected (type error or information-flow violation), and 2 on usage or
I/O errors -- the conventions a build system expects from a checker.

Observability: ``--trace FILE`` writes a Chrome ``trace_event`` file
(open it in ``chrome://tracing`` or https://ui.perfetto.dev; a ``.jsonl``
suffix switches to the JSON-lines event log), ``--metrics FILE`` writes
aggregated counters/histograms/span totals, and ``--trace-summary``
prints the span tree as text.  Any of the three installs a
:class:`~repro.telemetry.TraceRecorder` around the whole run, so the
solver's fine-grained spans are captured alongside the pipeline phases.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lattice.registry import available_lattices, get_lattice
from repro.telemetry import (
    TraceRecorder,
    format_trace_summary,
    metrics_dict,
    to_chrome_trace,
    to_jsonl,
    use_recorder,
)
from repro.tool.pipeline import check_source
from repro.tool.report import format_report, report_to_json
from repro.tool.summary import format_summary, summarise_report
from repro.version import __version__


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4bid",
        description=(
            "P4BID: an information-flow control type checker for the Core P4 "
            "fragment (reproduction of PLDI 2022)."
        ),
    )
    parser.add_argument("files", nargs="+", help="annotated P4 source files to check")
    parser.add_argument(
        "--lattice",
        default="two-point",
        help=(
            "security lattice to check against "
            f"(available: {', '.join(available_lattices())}, or chain-N)"
        ),
    )
    parser.add_argument(
        "--core-only",
        action="store_true",
        help="run only the ordinary type checker (the unannotated p4c baseline)",
    )
    parser.add_argument(
        "--infer",
        action="store_true",
        help=(
            "solve for missing or <type, infer>-marked security annotations "
            "before the IFC check, and report the inferred labels"
        ),
    )
    parser.add_argument(
        "--allow-declassify",
        action="store_true",
        help=(
            "honour the audited declassify()/endorse() primitives instead of "
            "reporting them as violations"
        ),
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help=(
            "run the static-analysis lint rules (P4B0xx: redundant or slack "
            "annotations, ineffective declassify, dead slots, unreachable "
            "code) and report the findings"
        ),
    )
    parser.add_argument(
        "--explain-flows",
        action="store_true",
        help=(
            "audit mode: enumerate every declassify-crossing source→sink "
            "flow with its shortest leak-path witness (implies "
            "--allow-declassify)"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help=(
            "write every diagnostic and lint finding as a SARIF 2.1.0 log "
            "(rule metadata plus physical locations with start/end regions)"
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a JSON report instead of text"
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="also print the program's security interface (per-field labels, bounds)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also print inferred action and table write bounds",
    )
    parser.add_argument(
        "--solver-stats",
        action="store_true",
        help=(
            "with --infer, also print constraint-solver statistics (SCC "
            "condensation, worklist pops, passes per component, solve time)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "record a trace of the whole run and write it as a Chrome "
            "trace_event file (load in chrome://tracing or Perfetto); a "
            ".jsonl suffix writes the JSON-lines event log instead"
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help=(
            "write aggregated telemetry (counters, histograms, per-span "
            "totals) as a JSON document"
        ),
    )
    parser.add_argument(
        "--trace-summary",
        action="store_true",
        help="print a human-readable span tree and counter summary",
    )
    parser.add_argument(
        "--version", action="version", version=f"p4bid {__version__}"
    )
    return parser


def _collect_findings(report, path: Path) -> list:
    """Every diagnostic and lint finding of one report, as SARIF findings."""
    from repro.analysis.sarif import (
        finding_from_parse_error,
        findings_from_core,
        findings_from_diagnostics,
    )

    findings: list = []
    if report.parse_error is not None:
        findings.append(finding_from_parse_error(report.parse_error, str(path)))
        return findings
    findings.extend(findings_from_core(report.core_diagnostics))
    findings.extend(findings_from_diagnostics(report.inference_diagnostics))
    findings.extend(findings_from_diagnostics(report.ifc_diagnostics))
    if report.analysis is not None:
        findings.extend(report.analysis.findings)
    return findings


def _export_telemetry(
    recorder: TraceRecorder, args: argparse.Namespace, outputs: List[str]
) -> int:
    """Write/append the requested telemetry outputs; 2 on I/O failure."""
    try:
        if args.trace:
            if args.trace.endswith(".jsonl"):
                Path(args.trace).write_text(to_jsonl(recorder), encoding="utf-8")
            else:
                Path(args.trace).write_text(
                    json.dumps(to_chrome_trace(recorder), indent=2) + "\n",
                    encoding="utf-8",
                )
        if args.metrics:
            Path(args.metrics).write_text(
                json.dumps(metrics_dict(recorder), indent=2) + "\n",
                encoding="utf-8",
            )
    except OSError as exc:
        print(f"p4bid: cannot write telemetry output: {exc}", file=sys.stderr)
        return 2
    if args.trace_summary:
        outputs.append(format_trace_summary(recorder))
    return 0


def build_serve_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p4bid serve",
        description=(
            "Serve a warm P4BID workspace over newline-delimited JSON-RPC "
            "2.0 (stdin/stdout by default): open a program once, then "
            "re-check edits incrementally without restarting the pipeline."
        ),
    )
    parser.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        help=(
            "listen on a TCP socket instead of stdin/stdout (one workspace "
            "per connection)"
        ),
    )
    parser.add_argument(
        "--lattice",
        default="two-point",
        help=(
            "security lattice the workspace checks against "
            f"(available: {', '.join(available_lattices())}, or chain-N)"
        ),
    )
    parser.add_argument(
        "--allow-declassify",
        action="store_true",
        help="honour the audited declassify()/endorse() primitives",
    )
    return parser


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``p4bid serve``."""
    from repro.workspace.rpc import serve_stdio, serve_tcp

    parser = build_serve_arg_parser()
    args = parser.parse_args(argv)
    options = {
        "lattice": args.lattice,
        "allow_declassification": args.allow_declassify,
    }
    if args.tcp:
        host, _, port_text = args.tcp.rpartition(":")
        if not host or not port_text.isdigit():
            parser.error("--tcp expects HOST:PORT")
        return serve_tcp(host, int(port_text), **options)
    return serve_stdio(**options)


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "serve":
        return serve_main(arguments[1:])
    if arguments and arguments[0] == "policy":
        from repro.policy.cli import policy_main

        return policy_main(arguments[1:])
    parser = build_arg_parser()
    args = parser.parse_args(arguments)
    if args.infer and args.core_only:
        parser.error("--infer requires the security pass; drop --core-only")
    if args.solver_stats and not args.infer:
        parser.error("--solver-stats reports on the inference solver; add --infer")
    if (args.lint or args.explain_flows) and args.core_only:
        parser.error("static analysis needs the security pass; drop --core-only")
    if args.explain_flows:
        args.allow_declassify = True
    tracing = bool(args.trace or args.metrics or args.trace_summary)
    recorder = TraceRecorder() if tracing else None
    exit_code = 0
    outputs: List[str] = []
    sarif_artifacts: List[tuple] = []
    for file_name in args.files:
        path = Path(file_name)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"p4bid: cannot read {file_name}: {exc}", file=sys.stderr)
            return 2
        run_lint = args.lint or bool(args.sarif)
        with use_recorder(recorder) if recorder is not None else nullcontext():
            report = check_source(
                source,
                args.lattice,
                include_ifc=not args.core_only,
                infer=args.infer,
                allow_declassification=args.allow_declassify,
                lint=run_lint,
                explain_released_flows=args.explain_flows,
                filename=str(path),
                name=path.stem,
            )
        if args.sarif:
            sarif_artifacts.append((str(path), _collect_findings(report, path)))
        if args.json:
            payload = json.loads(report_to_json(report))
            if args.summary:
                summary = summarise_report(report, get_lattice(args.lattice))
                payload["summary"] = summary.as_dict() if summary else None
            outputs.append(json.dumps(payload, indent=2))
        else:
            text = format_report(
                report, verbose=args.verbose, solver_stats=args.solver_stats
            )
            if args.summary:
                summary = summarise_report(report, get_lattice(args.lattice))
                if summary is not None:
                    text += "\n" + format_summary(summary)
            outputs.append(text)
        if not report.ok:
            exit_code = 1
    if args.sarif:
        from repro.analysis.sarif import sarif_json

        try:
            Path(args.sarif).write_text(
                sarif_json(sarif_artifacts) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            print(f"p4bid: cannot write SARIF output: {exc}", file=sys.stderr)
            return 2
    if recorder is not None:
        telemetry_code = _export_telemetry(recorder, args, outputs)
        if telemetry_code:
            return telemetry_code
    print("\n\n".join(outputs))
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
