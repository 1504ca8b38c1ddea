"""Tracing a solve: spans, counters, and exporters over one ``--infer`` run.

Run with::

    python examples/tracing_a_solve.py

Install a :class:`~repro.telemetry.TraceRecorder` as the ambient recorder
and every layer of the pipeline records into one span tree: the pipeline
phases, the inference engine's stages, and the solver's internals down to
one span per strongly connected component.  The same recorder accumulates
counters (rule-site traffic, constraints emitted per rule, lattice
operations, worklist pops) and histograms (pops per component).

The script then shows the three export surfaces -- the human text tree,
the aggregate metrics dict, and the Chrome ``trace_event`` form you would
load into Perfetto -- plus how the persistent :class:`~repro.inference.Solver`
reports incremental-resolve savings through the same counters.
"""

from repro import check_source
from repro.frontend.parser import parse_program
from repro.inference import Solver, generate_constraints
from repro.lattice.two_point import TwoPointLattice
from repro.telemetry import (
    TraceRecorder,
    format_trace_summary,
    metrics_dict,
    to_chrome_trace,
    use_recorder,
)

SOURCE = """
header req_t {
    <bit<32>, high> query;
    <bit<3>, low>   priority;
    bit<32>         token;
    <bit<8>, ?>     hops;
}

struct headers {
    req_t req;
}

control Ingress(inout headers hdr) {
    bit<32> scratch;

    action bump(in bit<8> step) {
        hdr.req.hops = hdr.req.hops + step;
    }

    apply {
        scratch = hdr.req.query;
        bump(1);
    }
}
"""


def main() -> None:
    # -- one traced pipeline run ------------------------------------------
    recorder = TraceRecorder()
    with use_recorder(recorder):
        report = check_source(SOURCE, infer=True, name="traced")
    assert report.ok

    print(format_trace_summary(recorder))

    # -- querying the span tree directly ----------------------------------
    (root,) = recorder.roots()
    phases = [span.name for span in recorder.children_of(root)]
    print(f"\nphases under {root.name}: {', '.join(phases)}")
    (solve_span,) = recorder.spans_named("solver.solve")
    print(
        f"solver.solve: {solve_span.duration_ms:.2f} ms over "
        f"{solve_span.attrs['edges']} edge(s)"
    )
    print(
        "timing projection agrees: "
        f"PhaseTiming.solve_ms = {report.timing.solve_ms:.2f} ms"
    )

    # -- aggregate metrics and the Chrome trace ---------------------------
    metrics = recorder.counters
    site_total = sum(
        value for name, value in metrics.items() if name.startswith("flow.site.")
    )
    print(f"\nrule sites visited: {site_total}")
    print(f"constraints emitted: {metrics.get('infer.constraints_generated', 0)}")
    print(f"worklist pops: {metrics.get('solver.worklist_pops', 0)}")

    trace = to_chrome_trace(recorder)
    print(
        f"Chrome trace: {len(trace['traceEvents'])} event(s) "
        "(write with p4bid --trace run.json, open in ui.perfetto.dev)"
    )
    span_totals = metrics_dict(recorder)["spans"]
    print(f"distinct span names: {len(span_totals)}")

    # -- incremental re-solves share the same counters ---------------------
    lattice = TwoPointLattice()
    generation = generate_constraints(parse_program(SOURCE), lattice)
    incremental = TraceRecorder()
    with use_recorder(incremental):
        solver = Solver(lattice, generation.constraints)
        solver.solve()
        # Edit a slot that actually appears in the constraint system, so
        # the resolve has a non-empty cone of influence.
        slot = next(iter(next(iter(generation.constraints)).variables()))
        solver.resolve({slot: "high"})
    print(
        "\nincremental resolve: "
        f"{incremental.counters.get('solver.rebase.cone_vars', 0)} cone var(s), "
        f"{incremental.counters.get('solver.rebase.vars_reused', 0)} reused, "
        f"{incremental.counters.get('solver.rebase.checks_cached', 0)} "
        "check verdict(s) cached"
    )


if __name__ == "__main__":
    main()
