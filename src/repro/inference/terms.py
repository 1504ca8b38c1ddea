"""Label variables and label terms.

The inference subsystem replaces the concrete :data:`~repro.lattice.base.Label`
occupying each annotation slot with a *term* over the lattice:

* :class:`ConstTerm` -- a known label (an explicit annotation, or ``⊥`` for
  literals);
* :class:`VarTerm` -- an unknown introduced for a missing or ``infer``-marked
  annotation;
* :class:`JoinTerm` / :class:`MeetTerm` -- least upper / greatest lower
  bounds of sub-terms, mirroring where the checker calls ``lattice.join``
  (T-BinOp, branch program counters) and ``lattice.meet`` (write bounds
  ``pc_fn`` / ``pc_tbl``).

Terms are immutable and hashable, so they can sit in the ``label`` slot of
:class:`~repro.ifc.security_types.SecurityType` (whose labels are opaque
hashables) and the whole Figure 4 security-type machinery can be reused
during constraint generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lattice.base import Label, Lattice
from repro.syntax.source import SourceSpan


@dataclass(frozen=True)
class LabelVar:
    """An unknown security label, tied to the annotation slot it stands for.

    ``uid`` makes the variable unique; ``note`` is a human readable
    description of the slot (``"field bfs_t.num_hops"``), or None for a
    slot described by its position, and ``span`` points at it in the
    source, so solved assignments and conflict diagnostics can be reported
    in terms the programmer wrote.
    """

    uid: int
    note: Optional[str] = ""
    span: SourceSpan = field(default_factory=SourceSpan.unknown)

    @property
    def hint(self) -> str:
        """The slot's description; a position is rendered when read."""
        note = self.note
        return f"annotation at {self.span}" if note is None else note

    def __hash__(self) -> int:
        # The generated dataclass hash recurses into ``note`` and ``span``,
        # which dominates dict construction when the solver keys 100k+
        # variables; ``uid`` alone is (at worst) an equally good hash and
        # is PYTHONHASHSEED-independent.  Equality stays field-based.
        return self.uid

    def describe(self) -> str:
        return self.hint or f"?{self.uid}"

    def __str__(self) -> str:
        return f"?{self.uid}" + (f" ({self.hint})" if self.hint else "")


class VarSupply:
    """Hands out fresh :class:`LabelVar`s with increasing ids."""

    def __init__(self) -> None:
        self._next = 0

    def fresh(self, hint: Optional[str] = "", span: SourceSpan | None = None) -> LabelVar:
        var = LabelVar(self._next, hint, span or SourceSpan.unknown())
        self._next += 1
        return var

    def __len__(self) -> int:
        return self._next


@dataclass(frozen=True)
class Term:
    """Base class for label terms."""

    def describe(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__


@dataclass(frozen=True)
class ConstTerm(Term):
    """A concrete lattice label."""

    label: Label

    def describe(self) -> str:
        return str(self.label)


@dataclass(frozen=True)
class VarTerm(Term):
    """A reference to a label variable."""

    var: LabelVar

    def describe(self) -> str:
        # The slot's name, not the uid: uids count every variable a
        # session ever allocated, so they differ between a warm session
        # and a cold check of the same source.
        return self.var.describe()


@dataclass(frozen=True)
class JoinTerm(Term):
    """The least upper bound of ``parts`` (at least two of them)."""

    parts: Tuple[Term, ...]

    def describe(self) -> str:
        return "(" + " ⊔ ".join(p.describe() for p in self.parts) + ")"


@dataclass(frozen=True)
class MeetTerm(Term):
    """The greatest lower bound of ``parts`` (at least two of them)."""

    parts: Tuple[Term, ...]

    def describe(self) -> str:
        return "(" + " ⊓ ".join(p.describe() for p in self.parts) + ")"


def as_term(label: object) -> Term:
    """Coerce ``label`` into a term (concrete labels become constants)."""
    if isinstance(label, Term):
        return label
    return ConstTerm(label)


def _flatten(parts: Iterable[Term], kind: type) -> List[Term]:
    flat: List[Term] = []
    for part in parts:
        if isinstance(part, kind):
            flat.extend(part.parts)  # type: ignore[attr-defined]
        else:
            flat.append(part)
    return flat


def join_terms(lattice: Lattice, parts: Iterable[object]) -> Term:
    """A simplified join: flatten, fold constants, drop ⊥, deduplicate."""
    flat = _flatten((as_term(p) for p in parts), JoinTerm)
    const = lattice.bottom
    rest: List[Term] = []
    seen: set = set()
    for part in flat:
        if isinstance(part, ConstTerm):
            const = lattice.join(const, part.label)
        elif part not in seen:
            seen.add(part)
            rest.append(part)
    if lattice.equal(const, lattice.top) or not rest:
        return ConstTerm(const)
    if not lattice.equal(const, lattice.bottom):
        rest.append(ConstTerm(const))
    if len(rest) == 1:
        return rest[0]
    return JoinTerm(tuple(rest))


def meet_terms(lattice: Lattice, parts: Iterable[object]) -> Term:
    """A simplified meet: flatten, fold constants, drop ⊤, deduplicate."""
    flat = _flatten((as_term(p) for p in parts), MeetTerm)
    const = lattice.top
    rest: List[Term] = []
    seen: set = set()
    for part in flat:
        if isinstance(part, ConstTerm):
            const = lattice.meet(const, part.label)
        elif part not in seen:
            seen.add(part)
            rest.append(part)
    if lattice.equal(const, lattice.bottom) or not rest:
        return ConstTerm(const)
    if not lattice.equal(const, lattice.top):
        rest.append(ConstTerm(const))
    if len(rest) == 1:
        return rest[0]
    return MeetTerm(tuple(rest))


def free_vars(term: Term) -> FrozenSet[LabelVar]:
    """Every label variable occurring in ``term``."""
    if isinstance(term, VarTerm):
        return frozenset((term.var,))
    if isinstance(term, (JoinTerm, MeetTerm)):
        result: FrozenSet[LabelVar] = frozenset()
        for part in term.parts:
            result |= free_vars(part)
        return result
    return frozenset()


def evaluate(term: Term, lattice: Lattice, assignment: Dict[LabelVar, Label]) -> Label:
    """The label denoted by ``term`` under ``assignment``.

    Unassigned variables evaluate to ``⊥`` (the Kleene iteration's starting
    point), which keeps evaluation total and monotone in the assignment.
    """
    if isinstance(term, ConstTerm):
        return term.label
    if isinstance(term, VarTerm):
        return assignment.get(term.var, lattice.bottom)
    if isinstance(term, JoinTerm):
        return lattice.join_all(
            evaluate(part, lattice, assignment) for part in term.parts
        )
    if isinstance(term, MeetTerm):
        return lattice.meet_all(
            evaluate(part, lattice, assignment) for part in term.parts
        )
    raise TypeError(f"cannot evaluate {type(term).__name__}")
