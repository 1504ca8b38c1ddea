"""The per-unit loop: walk a program one top-level unit at a time.

A program's *top-level units* are its named declarations and its control
blocks, walked in that order (declarations first, then controls).  The
Figure 5–7 traversal -- under any label algebra, the label-free one of
the Core P4 checker included -- threads one top-level environment
through that walk, and each unit touches the environment only through a
few top-level effects (Γ bindings, Δ definitions, inferred write
bounds).  :func:`drive_units` runs that walk once per unit and
captures, per unit, those effects plus the checker's own outputs, as a
:class:`UnitProducts`.

With a :class:`UnitCache`, a unit whose cached products are still valid
is not walked at all: its recorded effects are *replayed* into the
environment (so later units see exactly what a walk would have left
there) and its products are reused verbatim.  Without one every unit is
walked -- the one-shot path, which pays only for the effect logs.  The
caller concatenates the per-unit outputs in unit order.

Effects are intercepted by substitution, not patching: the environments
the loop installs (:class:`RecordingContext`, :class:`RecordingDefs`,
:class:`RecordingDict`) log their top-level ``bind`` / ``define`` / item
writes while a log is installed.  Their inherited
``child()`` returns *plain* instances, so the scopes inside a unit record
nothing -- only the effects that outlive the unit are replayed.

A *walker* adapts one checker to the loop.  It provides ``recorders``
(the environments whose ``effects`` attribute receives the unit's log),
``sinks`` (effect tag -> the call that replays it), and ``begin_unit()``
/ ``walk(unit)`` / ``end_unit()`` (route the checker's outputs to fresh
containers, walk one unit, hand the containers back).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.ifc.context import SecurityContext, SecurityTypeDefs
from repro.ifc.security_types import SMatchKind, SecurityType
from repro.syntax import declarations as d
from repro.syntax.program import Program
from repro.syntax.types import AnnotatedType, MatchKindType

#: The match kinds in scope without a ``match_kind`` declaration.  Real
#: P4 programs import these from core.p4; the dialect lets a program
#: declare more but does not require it.
DEFAULT_MATCH_KINDS = ("exact", "lpm", "ternary", "range", "optional")

#: One recorded top-level effect of a unit's walk, replayed verbatim when
#: the unit is reused: ``("gamma", name, type)`` for Γ bindings,
#: ``("delta", name, type)`` for Δ definitions, ``("fn", name, bound)`` /
#: ``("tbl", name, bound)`` for inferred write bounds.
Effect = Tuple[str, str, object]


class UnitProducts:
    """What one walk of one top-level unit produced.

    ``effects`` are the unit's top-level effects, in the order the walk
    made them; ``outputs`` the checker's own per-unit outputs
    (diagnostics, constraints, ...), as its walker's ``end_unit()``
    returned them.  This and the per-unit output records are plain slotted
    classes: one is made per unit per walk, and a dataclass would add to
    every ``p4bid`` start-up for nothing a unit record uses.
    """

    __slots__ = ("effects", "outputs")

    def __init__(self, effects: List[Effect], outputs: object) -> None:
        self.effects = effects
        self.outputs = outputs


class UnitCache(Protocol):
    """Per-unit products kept between walks of successive revisions."""

    def reuse(self) -> Optional[Sequence[Optional[UnitProducts]]]:
        """One entry per unit, in unit order: the products to reuse, or
        ``None`` for a unit that must be walked (``None`` for all: walk
        every unit)."""

    def store(self, products: List[UnitProducts]) -> None:
        """Keep the products of this walk (reused and fresh), in unit order."""


def program_units(program: Program) -> List[object]:
    """The top-level units of ``program`` in walk order: declarations
    first (in order), then control blocks (in order)."""
    return [*program.declarations, *program.controls]


def drive_units(
    walker, units: Sequence[object], cache: Optional[UnitCache] = None
) -> List[UnitProducts]:
    """Walk ``units`` in order through ``walker``; returns their products.

    Units the ``cache`` supplies products for replay their effects
    instead of being walked; the cache then receives every unit's
    products.
    """
    cached = cache.reuse() if cache is not None else None
    recorders = walker.recorders
    sinks: Dict[str, Callable[[str, object], None]] = walker.sinks
    products: List[UnitProducts] = []
    for index, unit in enumerate(units):
        reused = cached[index] if cached is not None else None
        if reused is not None:
            for tag, name, value in reused.effects:
                sinks[tag](name, value)
            products.append(reused)
            continue
        log: List[Effect] = []
        for recorder in recorders:
            recorder.effects = log
        walker.begin_unit()
        try:
            walker.walk(unit)
        finally:
            for recorder in recorders:
                recorder.effects = None
        products.append(UnitProducts(log, walker.end_unit()))
    if cache is not None:
        cache.store(products)
    return products


class RecordingDefs(SecurityTypeDefs):
    """Δ that logs ``define`` calls while a log is installed."""

    effects: Optional[list] = None

    def define(self, name: str, ty) -> None:
        if self.effects is not None:
            self.effects.append(("delta", name, ty))
        super().define(name, ty)


class RecordingContext(SecurityContext):
    """Γ that logs ``bind`` calls while a log is installed."""

    effects: Optional[list] = None

    def bind(self, name: str, sec_type) -> None:
        if self.effects is not None:
            self.effects.append(("gamma", name, sec_type))
        super().bind(name, sec_type)


class RecordingDict(dict):
    """A write-bounds dict (``function_bounds`` / ``table_bounds``) that
    logs item writes while a log is installed."""

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag
        self.effects: Optional[list] = None

    def __setitem__(self, key, value) -> None:
        if self.effects is not None:
            self.effects.append((self.tag, key, value))
        super().__setitem__(key, value)


class FlowUnits:
    """The walker of a :class:`~repro.flow.analysis.FlowAnalysis`: one
    top-level Γ/Δ and write-bound maps, recorded per unit, with the
    algebra's outputs captured per unit."""

    def __init__(self, analysis) -> None:
        algebra = analysis.algebra
        self.analysis = analysis
        self.gamma = RecordingContext()
        self.delta = RecordingDefs()
        analysis.function_bounds = RecordingDict("fn")
        analysis.table_bounds = RecordingDict("tbl")
        self.labeler = algebra.make_labeler(self.delta)
        # Δ's ``match_kind`` entry (a keyword, so no type name) accumulates
        # the declared kinds; Γ binds each kind to the kinds known with it.
        self.delta.define("match_kind", AnnotatedType(MatchKindType(DEFAULT_MATCH_KINDS)))
        kind = SecurityType(SMatchKind(DEFAULT_MATCH_KINDS), algebra.bottom)
        for member in DEFAULT_MATCH_KINDS:
            self.gamma.bind(member, kind)
        self.recorders = (
            self.gamma,
            self.delta,
            analysis.function_bounds,
            analysis.table_bounds,
        )
        self.sinks = {
            "gamma": self.gamma.bind,
            "delta": self.delta.define,
            "fn": analysis.function_bounds.__setitem__,
            "tbl": analysis.table_bounds.__setitem__,
        }

    def begin_unit(self) -> None:
        self.analysis.algebra.begin_unit()

    def end_unit(self) -> object:
        return self.analysis.algebra.end_unit()

    def walk(self, unit) -> None:
        analysis = self.analysis
        if isinstance(unit, d.ControlDecl):
            analysis.check_control(unit, self.gamma, self.labeler)
        else:
            analysis.check_declaration(
                unit, self.gamma, self.labeler, analysis.algebra.bottom
            )
