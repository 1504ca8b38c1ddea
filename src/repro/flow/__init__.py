"""One Figure 5–7 traversal, parameterized by a label algebra.

The security typing rules of the paper admit two useful readings: *check*
them against concrete lattice labels (the P4BID checker) or *collect*
them as ⊑-constraints over label terms (the inference generator).  This
package factors the rules into a single traversal,
:class:`~repro.flow.analysis.FlowAnalysis`, written once against the
:class:`~repro.flow.algebra.LabelAlgebra` protocol, plus one algebra
instance per reading:

* :class:`~repro.flow.concrete.ConcreteAlgebra` -- carrier
  :data:`~repro.lattice.base.Label`; ``require_flow`` evaluates ``⊑``
  immediately and emits :class:`~repro.ifc.errors.IfcDiagnostic`\\ s;
* :class:`~repro.flow.symbolic.SymbolicAlgebra` -- carrier
  :class:`~repro.inference.terms.Term`; ``require_flow`` appends a
  constraint with provenance.

:class:`repro.ifc.checker.IfcChecker` and
:class:`repro.inference.generate.ConstraintGenerator` are façades over
these, so checker/generator drift is structurally impossible: there is
only one rule walk to drift from.  The walk reports Core P4's own
diagnostics too, under either algebra; the ordinary checker
(:func:`repro.typechecker.checker.check_core_types`) is the same walk
with a label-free algebra.
"""

from repro.flow.algebra import LabelAlgebra, RuleSite
from repro.flow.analysis import FlowAnalysis, binary_result_body
from repro.flow.concrete import ConcreteAlgebra

__all__ = [
    "ConcreteAlgebra",
    "FlowAnalysis",
    "LabelAlgebra",
    "RuleSite",
    "SymbolicAlgebra",
    "binary_result_body",
]


def __getattr__(name: str):
    # SymbolicAlgebra is resolved lazily (PEP 562): it pulls in the whole
    # repro.inference subsystem (terms, constraints, the labeler), which a
    # plain concrete check has no use for.
    if name == "SymbolicAlgebra":
        from repro.flow.symbolic import SymbolicAlgebra

        return SymbolicAlgebra
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
