"""Human-readable and machine-readable rendering of check reports.

Inference conflicts are explained by *leak-path witnesses* by default --
the shortest propagation chain from a source annotation to the failing
obligation, ranked shortest-first (:mod:`repro.analysis.witness`); the
flat unsat-core dump is still available under ``verbose``.  Lint findings
and released-flow audits (``--lint`` / ``--explain-flows``) render as
their own report sections and appear under the ``"analysis"`` key of the
JSON report.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.analysis.witness import witnesses_for_solution
from repro.inference.engine import InferenceResult, InferredLabel
from repro.lattice.registry import get_lattice
from repro.tool.pipeline import CheckReport


def _conflict_lines(inference: InferenceResult, *, verbose: bool) -> List[str]:
    """Conflicts as ranked witness chains (cores only under ``verbose``)."""
    lattice = inference.lattice
    lines = [str(diag) for diag in inference.generation.errors]
    for witness in witnesses_for_solution(inference.solution):
        conflict = witness.conflict
        constraint = conflict.constraint
        lines.append(
            f"{constraint.span}: "
            f"{constraint.reason or 'label constraint violated'}: inferred "
            f"label {lattice.format_label(conflict.observed)} may not flow "
            f"below {lattice.format_label(conflict.required)}"
        )
        for index, hop in enumerate(witness.hops):
            lines.append(f"    {index + 1}. {hop.describe(lattice)}")
        if verbose and conflict.core:
            lines.append(
                "    core: "
                + "; ".join(str(c.span) for c in conflict.core)
            )
    return lines


def format_report(
    report: CheckReport, *, verbose: bool = False, solver_stats: bool = False
) -> str:
    """A plain-text summary of a :class:`CheckReport` for the terminal.

    ``solver_stats`` additionally prints what the constraint solver's
    SCC-condensed scheduler did (``p4bid --solver-stats``).
    """
    lines = [f"== P4BID report for {report.name} (lattice: {report.lattice_name}) =="]
    if report.parse_error is not None:
        lines.append(f"parse error: {report.parse_error}")
        return "\n".join(lines)
    if report.core_diagnostics:
        lines.append(f"-- {len(report.core_diagnostics)} type error(s) --")
        lines.extend(str(diag) for diag in report.core_diagnostics)
    if report.inference_diagnostics:
        lines.append(
            f"-- {len(report.inference_diagnostics)} label-inference conflict(s) --"
        )
        lines.extend(
            _conflict_lines(report.inference_result, verbose=verbose)
        )
    if report.ifc_diagnostics:
        lines.append(f"-- {len(report.ifc_diagnostics)} information-flow violation(s) --")
        lines.extend(str(diag) for diag in report.ifc_diagnostics)
    if report.ok:
        lines.append("OK: program is well-typed and satisfies non-interference")
    else:
        lines.append(f"REJECTED: {len(report.diagnostics)} problem(s) found")
    inference = report.inference_result
    if inference is not None:
        qualifier = (
            ""
            if inference.ok
            else " -- least labels only; no satisfying assignment exists"
        )
        lines.append(
            f"-- inferred security labels ({len(inference.inferred)} slot(s), "
            f"{inference.constraint_count} constraint(s)){qualifier} --"
        )
        for slot in inference.inferred:
            lines.append(f"  {slot.describe(inference.lattice)}")
        for control, var in inference.generation.control_pc_vars:
            label = inference.solution.value_of(var)
            lines.append(
                f"  pc of control {control.name}: "
                f"{inference.lattice.format_label(label)}"
            )
    if solver_stats and inference is not None:
        stats = inference.solution.stats
        lines.append("-- solver statistics --")
        if stats is None:
            lines.append("  (not recorded by this solver)")
        else:
            lines.append(
                f"  propagation edges: {stats.edge_count} "
                f"({stats.edges_visited} visited), checks: {stats.check_count}"
            )
            lines.append(
                f"  SCCs: {stats.scc_count} ({stats.cyclic_scc_count} cyclic, "
                f"largest {stats.largest_scc}), worklist pops: "
                f"{stats.worklist_pops}, max passes per component: "
                f"{stats.max_passes}"
            )
            lines.append(f"  solve time: {stats.solve_ms:.2f} ms")
    if report.ifc_result is not None and report.ifc_result.declassifications:
        lines.append(
            f"-- {len(report.ifc_result.declassifications)} audited release(s) --"
        )
        lines.extend(f"  {event}" for event in report.ifc_result.declassifications)
    if report.analysis is not None:
        findings = report.analysis.findings
        lines.append(f"-- {len(findings)} lint finding(s) --")
        lines.extend(f"  {finding.describe()}" for finding in findings)
        if report.analysis.released_flows:
            lattice = get_lattice(report.lattice_name)
            lines.append(
                f"-- {len(report.analysis.released_flows)} released flow(s) "
                "(declassify audit) --"
            )
            for flow in report.analysis.released_flows:
                lines.append(f"  released by {flow.site.describe()}:")
                lines.extend(
                    "    " + text
                    for text in flow.witness.describe(lattice).splitlines()
                )
    if verbose and report.ifc_result is not None:
        if report.ifc_result.function_bounds:
            lines.append("-- inferred action write bounds (pc_fn) --")
            for fn_name, bound in sorted(report.ifc_result.function_bounds.items()):
                lines.append(f"  {fn_name}: {report.ifc_result.lattice.format_label(bound)}")
        if report.ifc_result.table_bounds:
            lines.append("-- inferred table bounds (pc_tbl) --")
            for table_name, bound in sorted(report.ifc_result.table_bounds.items()):
                lines.append(
                    f"  {table_name}: {report.ifc_result.lattice.format_label(bound)}"
                )
    timing = "timing: parse {:.2f} ms, core {:.2f} ms".format(
        report.timing.parse_ms, report.timing.core_ms
    )
    if report.inference_result is not None:
        # solve is a sub-phase of infer (PhaseTiming.SUB_PHASES): shown
        # nested, never added to the total.
        timing += (
            f", infer {report.timing.infer_ms:.2f} ms"
            f" (solve {report.timing.solve_ms:.2f} ms)"
        )
    timing += f", ifc {report.timing.ifc_ms:.2f} ms"
    timing += f", total {report.timing.total_ms:.2f} ms"
    lines.append(timing)
    return "\n".join(lines)


def label_entry(slot: InferredLabel) -> Dict[str, str]:
    """One entry of a report's ``inference.labels`` list."""
    return {"slot": slot.hint, "label": slot.text, "location": slot.location}


def report_to_dict(report: CheckReport) -> Dict[str, Any]:
    """A JSON-serialisable view of a report (used by ``p4bid --json``)."""
    inference = report.inference_result
    labels = None if inference is None else [label_entry(slot) for slot in inference.inferred]
    return report_fields(report, labels)


def report_fields(report: CheckReport, labels: Any) -> Dict[str, Any]:
    """:func:`report_to_dict` with ``labels`` standing as the inference's
    ``labels`` list -- which a caller holding them already encoded
    (:meth:`repro.workspace.session.Workspace.labels_json`) splices in."""
    inference = report.inference_result
    return {
        "name": report.name,
        "lattice": report.lattice_name,
        "ok": report.ok,
        "parse_error": report.parse_error,
        "core_diagnostics": [str(diag) for diag in report.core_diagnostics],
        "inference": (
            None
            if inference is None
            else {
                "ok": inference.ok,
                "variables": inference.variable_count,
                "constraints": inference.constraint_count,
                "solver": (
                    inference.solution.stats.as_dict()
                    if inference.solution.stats is not None
                    else None
                ),
                "labels": labels,
                "control_pcs": [
                    {
                        "control": control.name,
                        "label": inference.lattice.format_label(
                            inference.solution.value_of(var)
                        ),
                    }
                    for control, var in inference.generation.control_pc_vars
                ],
                "conflicts": [
                    {
                        "kind": diag.kind.value,
                        "rule": diag.rule,
                        "message": diag.message,
                        "location": str(diag.span),
                    }
                    for diag in inference.diagnostics
                ],
                "witnesses": [
                    {
                        "length": witness.length,
                        "location": str(witness.conflict.constraint.span),
                        "hops": [
                            {
                                "location": str(hop.span),
                                "description": hop.describe(inference.lattice),
                            }
                            for hop in witness.hops
                        ],
                    }
                    for witness in witnesses_for_solution(inference.solution)
                ],
            }
        ),
        "analysis": (
            None
            if report.analysis is None
            else {
                "findings": [
                    finding.as_dict() for finding in report.analysis.findings
                ],
                "released_flows": [
                    {
                        "site": flow.site.describe(),
                        "location": str(flow.site.span),
                        "witness": {
                            "length": flow.witness.length,
                            "hops": [
                                str(hop.span) for hop in flow.witness.hops
                            ],
                        },
                    }
                    for flow in report.analysis.released_flows
                ],
            }
        ),
        "ifc_diagnostics": [
            {
                "kind": diag.kind.value,
                "rule": diag.rule,
                "message": diag.message,
                "location": str(diag.span),
            }
            for diag in report.ifc_diagnostics
        ],
        "declassifications": [
            {
                "primitive": event.primitive,
                "expression": event.expression,
                "from": str(event.from_label),
                "to": str(event.to_label),
                "location": str(event.span),
            }
            for event in (
                report.ifc_result.declassifications if report.ifc_result else []
            )
        ],
        # Flat keys kept for compatibility; "phases" is the explicit
        # nesting (sub-phases under their parents, projected from the
        # pipeline's span tree -- total never double-counts "solve").
        "timing_ms": {
            "parse": report.timing.parse_ms,
            "core": report.timing.core_ms,
            "infer": report.timing.infer_ms,
            "solve": report.timing.solve_ms,
            "ifc": report.timing.ifc_ms,
            "total": report.timing.total_ms,
            "phases": report.timing.as_dict(),
        },
    }


def report_to_json(report: CheckReport, *, indent: int = 2) -> str:
    """Render a report as a JSON document."""
    return json.dumps(report_to_dict(report), indent=indent)
