"""Least-fixpoint constraint solving over a finite security lattice.

The solver normalises every constraint ``lhs ⊑ rhs``:

* a :class:`~repro.inference.terms.MeetTerm` on the right decomposes
  exactly (``a ⊑ b ⊓ c`` iff ``a ⊑ b`` and ``a ⊑ c``), which is how the
  inferred write bounds ``pc_fn`` / ``pc_tbl`` are handled;
* a variable on the right becomes a *propagation edge*: the variable must
  sit above the (monotone) value of the left term;
* a join on the right that contains a variable (``lhs ⊑ v ⊔ c``) has no
  canonical least solution; it is over-approximated soundly by propagating
  the whole left side into the variable;
* anything else -- a constant or a term with no variables to raise -- is a
  *check*, verified after the fixpoint.

Kleene iteration from ``⊥`` then pushes joins along the propagation edges
until nothing changes.  Because every left-hand term evaluates monotonically
in the assignment and the lattice is finite, the iteration terminates, and
the result is the *least* assignment satisfying all propagation
constraints -- the classic argument for inequality constraints over a
join-semilattice (cf. the template-domain lifting of Mukherjee et al.).
The checks are exactly the upper bounds; the constraint system is
satisfiable iff the least solution passes them, so every failed check is a
genuine conflict.  For each conflict an *unsatisfiable core* is extracted
by slicing backwards through the propagation edges that raised the
offending variables, giving the chain of source spans from the annotated
secret to the too-low sink.

There is one solving engine.  :func:`solve` builds a
:class:`~repro.inference.graph.PropagationGraph` (edges deduplicated,
condensed into SCCs via Tarjan) and runs the Kleene iteration in
topological component order, so acyclic regions are solved in one pass and
iteration is confined to genuine cycles; the persistent
:class:`~repro.inference.engine.Solver` runs the same schedule over an
edit's cone of influence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ifc.errors import IfcDiagnostic
from repro.inference.constraints import Constraint
from repro.inference.terms import (
    ConstTerm,
    JoinTerm,
    LabelVar,
    MeetTerm,
    Term,
    VarTerm,
)
from repro.lattice.base import Label, Lattice

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.inference.graph import SolverStats


class InferenceError(Exception):
    """The constraint system is malformed (not a user-facing conflict)."""


@dataclass(frozen=True)
class InferenceConflict:
    """A check constraint the least solution violates."""

    constraint: Constraint
    observed: Label
    required: Label
    #: Propagation constraints that forced ``observed`` above ``required``,
    #: ordered from the conflicting check back towards the original sources.
    core: Tuple[Constraint, ...] = ()

    def as_diagnostic(self, lattice: Lattice) -> IfcDiagnostic:
        message = (
            f"{self.constraint.reason or 'label constraint violated'}: inferred "
            f"label {lattice.format_label(self.observed)} may not flow below "
            f"{lattice.format_label(self.required)}"
        )
        origins = [
            str(c.span) for c in self.core if not c.span.is_unknown()
        ]
        if origins:
            unique = list(dict.fromkeys(origins))
            message += " (labels forced up at: " + ", ".join(unique) + ")"
        return IfcDiagnostic(
            self.constraint.kind, message, self.constraint.span, self.constraint.rule
        )

    def __str__(self) -> str:
        return (
            f"{self.constraint.span}: {self.constraint.describe()} fails "
            f"({self.observed} ⋢ {self.required})"
        )


@dataclass
class Solution:
    """Outcome of solving a constraint system."""

    lattice: Lattice
    assignment: Dict[LabelVar, Label] = field(default_factory=dict)
    conflicts: List[InferenceConflict] = field(default_factory=list)
    #: Number of worklist pops the Kleene iteration performed.
    iterations: int = 0
    propagation_count: int = 0
    check_count: int = 0
    #: Scheduler statistics (SCC counts, edges visited, passes, solve time);
    #: populated by the graph-based solver.
    stats: Optional["SolverStats"] = None
    #: The propagation graph the solution was computed over (set by the
    #: graph-based solvers).  Downstream analyses -- leak-path witnesses,
    #: lint graph queries (:mod:`repro.analysis`) -- walk it instead of
    #: re-normalising the constraints.
    graph: Optional[object] = None

    @property
    def ok(self) -> bool:
        return not self.conflicts

    def value_of(self, var: LabelVar) -> Label:
        return self.assignment.get(var, self.lattice.bottom)


#: One propagation edge: left term, target variable, originating constraint,
#: and -- for join-on-rhs constraints -- the constant part of the join, which
#: *covers* the flow (nothing propagates) whenever the left side fits under it.
Propagation = Tuple[Term, LabelVar, Constraint, Optional[Label]]


def _normalise(
    lattice: Lattice,
    constraint: Constraint,
    lhs: Term,
    rhs: Term,
    propagations: List[Propagation],
    checks: List[Tuple[Term, Term, Constraint]],
) -> None:
    if isinstance(rhs, MeetTerm):
        for part in rhs.parts:
            _normalise(lattice, constraint, lhs, part, propagations, checks)
        return
    if isinstance(rhs, VarTerm):
        propagations.append((lhs, rhs.var, constraint, None))
        return
    if isinstance(rhs, JoinTerm):
        # ``lhs ⊑ v ⊔ c`` arises when a use site joins an explicit label onto
        # a slot variable (``<t, A> x`` over an unannotated ``typedef t``).
        # Decompose a join on the left first (exact).  For the rest, a least
        # solution is not in general well defined (any of the variables
        # could absorb the flow); we propagate into the first variable, but
        # only when the flow exceeds the join's constant part ``c`` -- a
        # conditional edge whose transfer function (⊥ if lhs ⊑ c, else lhs)
        # stays monotone, so the fixpoint exists and never raises a shared
        # variable for a flow the explicit label already covers.
        if isinstance(lhs, JoinTerm):
            for part in lhs.parts:
                _normalise(lattice, constraint, part, rhs, propagations, checks)
            return
        cover = lattice.join_all(
            part.label for part in rhs.parts if isinstance(part, ConstTerm)
        )
        if isinstance(lhs, ConstTerm) and lattice.leq(lhs.label, cover):
            return  # statically covered by the constant side
        for part in rhs.parts:
            if isinstance(part, VarTerm):
                propagations.append((lhs, part.var, constraint, cover))
                return
        checks.append((lhs, rhs, constraint))
        return
    # Constant right-hand sides are upper bounds: checked after the fixpoint.
    checks.append((lhs, rhs, constraint))


def solve(
    lattice: Lattice,
    constraints: List[Constraint],
    *,
    buckets: Optional[List[List[Constraint]]] = None,
) -> Solution:
    """Solve ``constraints`` over ``lattice``; least solution plus conflicts.

    Builds the propagation graph, condenses it into SCCs and schedules the
    Kleene iteration in topological component order (see
    :mod:`repro.inference.graph`).  ``buckets``, when given, is the same
    system split per unit (concatenating to ``constraints``): the
    solution's graph is then built over them, so a
    :class:`repro.inference.engine.Solver` taking it over can patch it
    per unit.
    """
    from repro.inference.graph import PropagationGraph

    return PropagationGraph(lattice, constraints, buckets=buckets).solve()


def _height_bound(lattice: Lattice) -> int:
    """An upper bound on ascending-chain length, from lattice structure.

    Delegates to :meth:`repro.lattice.base.Lattice.height_bound`, which
    structured lattices (powersets, products, chains) answer without
    enumerating their carrier -- the seed implementation materialised
    ``list(lattice.labels())``, which is 2^n labels for a powerset over n
    principals.
    """
    try:
        return max(2, lattice.height_bound())
    except Exception:  # pragma: no cover - infinite/lazy lattices
        return 64
