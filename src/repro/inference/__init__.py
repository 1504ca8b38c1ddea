"""Constraint-based security-label inference for partially annotated programs.

P4BID's Figure 5–7 rules assume every variable, header field, and table
carries an explicit security label.  This subsystem removes that annotation
burden: it walks the same rules but *emits* every ``⊑`` side condition as a
constraint over label variables, solves the system to its least fixpoint
over any registered finite lattice, and writes the solution back into a
fully annotated program that the unmodified checker re-verifies.

* :mod:`repro.inference.terms` -- label variables and join/meet terms.
* :mod:`repro.inference.constraints` -- the ``⊑`` constraint IR with
  provenance (source spans, typing rule, violation kind).
* :mod:`repro.inference.generate` -- the constraint generator: a façade
  over the shared Figure 5–7 traversal (:mod:`repro.flow`) run with the
  symbolic label algebra, and the :class:`InferenceLabeler` that turns
  missing or ``infer``-marked annotations into variables.
* :mod:`repro.inference.solve` -- the :func:`solve` entry point, Kleene
  least-fixpoint semantics and unsatisfiable-core extraction for
  conflicts.
* :mod:`repro.inference.graph` -- the one solving engine: edges
  deduplicated and condensed into SCCs (Tarjan), the Kleene iteration
  scheduled in topological component order, cone-of-influence queries.
* :mod:`repro.inference.elaborate` -- substitution of solved labels back
  into the AST.
* :mod:`repro.inference.engine` -- the generate → solve → elaborate
  pipeline behind :func:`infer_labels`, and the persistent :class:`Solver`
  whose :meth:`Solver.resolve` re-solves only the cone of influence of
  edited slots (for IDE-style interactive use).

Quickstart::

    from repro.frontend.parser import parse_program
    from repro.inference import infer_labels
    from repro.ifc.checker import check_ifc

    result = infer_labels(parse_program(source))
    if result.ok:
        assert check_ifc(result.elaborated, result.lattice).ok
"""

from repro.inference.constraints import Constraint, ConstraintSet
from repro.inference.elaborate import elaborate_program
from repro.inference.engine import InferenceResult, InferredLabel, Solver, infer_labels
from repro.inference.generate import (
    ConstraintGenerator,
    GenerationResult,
    InferenceLabeler,
    generate_constraints,
)
from repro.inference.graph import PropagationEdge, PropagationGraph, SolverStats
from repro.inference.solve import (
    InferenceConflict,
    InferenceError,
    Solution,
    solve,
)
from repro.inference.terms import (
    ConstTerm,
    JoinTerm,
    LabelVar,
    MeetTerm,
    Term,
    VarSupply,
    VarTerm,
    evaluate,
    free_vars,
    join_terms,
    meet_terms,
)

__all__ = [
    "Constraint",
    "ConstraintSet",
    "ConstraintGenerator",
    "ConstTerm",
    "GenerationResult",
    "InferenceConflict",
    "InferenceError",
    "InferenceLabeler",
    "InferenceResult",
    "InferredLabel",
    "JoinTerm",
    "LabelVar",
    "MeetTerm",
    "PropagationEdge",
    "PropagationGraph",
    "Solution",
    "Solver",
    "SolverStats",
    "Term",
    "VarSupply",
    "VarTerm",
    "elaborate_program",
    "evaluate",
    "free_vars",
    "generate_constraints",
    "infer_labels",
    "join_terms",
    "meet_terms",
    "solve",
]
