"""P4BID reproduction: information-flow control for Core P4.

This package reproduces the system described in "P4BID: Information Flow
Control in P4" (PLDI 2022).  It provides:

* ``repro.lattice`` -- security lattices (two-point, diamond, product, ...).
* ``repro.syntax`` -- the Core P4 abstract syntax (Figure 1 / Figure 3).
* ``repro.frontend`` -- a lexer and parser for an annotated P4 dialect.
* ``repro.typechecker`` -- the ordinary Core P4 type system: its
  diagnostics, which the ``repro.flow`` walk reports on the way, and
  ``check_core_types``, that walk without labels.
* ``repro.ifc`` -- the security (IFC) type system, the paper's contribution.
* ``repro.flow`` -- the one Figure 5–7 traversal both type systems share.
* ``repro.inference`` -- constraint-based security-label inference for
  partially annotated programs (missing / ``infer``-marked annotations are
  solved to their least labels, then re-verified by ``repro.ifc``).
* ``repro.semantics`` -- a big-step interpreter for the Core P4 fragment.
* ``repro.ni`` -- an empirical non-interference harness (Definition 4.2).
* ``repro.tool`` -- the P4BID command-line checker pipeline.
* ``repro.casestudies`` -- the five evaluation programs from Section 5.

Quickstart::

    from repro import check_source
    report = check_source(program_text)
    if report.ok:
        print("program is non-interfering (well-typed)")
    else:
        for diag in report.diagnostics:
            print(diag)

Partially annotated programs are checked the same way with ``infer=True``
(or ``p4bid --infer`` on the command line)::

    report = check_source(program_text, infer=True)
    for slot in report.inference_result.inferred:
        print(slot.describe(report.inference_result.lattice))
"""

from repro.version import __version__
from repro.inference.engine import InferenceResult, infer_labels
from repro.tool.pipeline import CheckReport, check_program, check_source

__all__ = [
    "__version__",
    "CheckReport",
    "InferenceResult",
    "check_program",
    "check_source",
    "infer_labels",
]
