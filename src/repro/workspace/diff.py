"""Structural diffing of programs at top-level-unit granularity.

A :class:`~repro.workspace.session.Workspace` re-checks an edited program
without re-walking it wholesale.  The units of reuse are the *top-level
units* of a :class:`~repro.syntax.program.Program`: its named declarations
and its control blocks, in program order.  For each unit the workspace
keeps a :class:`UnitState` -- the AST node whose identities anchor the
cached label variables, plus everything the last symbolic walk of the
unit produced (constraints, diagnostics, context effects, touched
annotation sites).

Diffing a new revision against the cached states proceeds in three steps,
all span-insensitive:

1. **Match**, first by identity: a unit that *is* a cached state's node
   -- the incremental parser
   (:func:`repro.frontend.parser.parse_program` with an index) hands
   back the units an edit did not touch -- matches that state as it
   stands, with its cached fingerprint.  Every other unit (one the
   parser re-parsed) is matched by content fingerprint
   (:func:`repro.syntax.digest.unit_fingerprint`): it claims the first
   unclaimed old unit with the same fingerprint, in order (FIFO, so
   duplicated units pair up positionally).  Fingerprint matching is
   position-independent -- a unit that merely moved still matches.
2. **Classify** by environment signature: a matched unit is *clean* only
   if the names it references still resolve to byte-identical earlier
   declarations (:func:`environment_signatures`).  A unit whose own text
   is untouched but whose referenced ``header`` changed is re-walked, so
   cross-unit label variables are re-allocated consistently.
3. **Re-span**: only a unit matched by fingerprint -- that is, one that
   was re-parsed -- has its cached AST rewritten in place to the new
   revision's positions (:func:`repro.syntax.digest.respan`), so cached
   constraints and diagnostics render exactly as a cold parse of the new
   source would.  A unit matched by identity already carries the right
   spans.

Everything here is pure bookkeeping over the syntax layer; the walk that
consumes the plan lives in :mod:`repro.workspace.regen`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ifc.errors import IfcDiagnostic
from repro.inference.constraints import Constraint
from repro.inference.generate import InferenceSite
from repro.inference.terms import LabelVar
from repro.syntax import declarations as d
from repro.syntax.digest import (
    RespanMismatch,
    Unit,
    declared_names,
    referenced_names,
    respan,
    unit_fingerprint,
)
from repro.syntax.program import Program

#: One recorded top-level effect of a unit's walk, replayed verbatim when
#: the unit is reused: ``("gamma", name, SecurityType)`` for Γ bindings,
#: ``("delta", name, AnnotatedType)`` for Δ definitions, ``("fn", name,
#: Term)`` / ``("tbl", name, Term)`` for inferred write bounds.
Effect = Tuple[str, str, object]


@dataclass
class UnitState:
    """One top-level unit with everything its last walk produced."""

    node: Unit
    fingerprint: str
    declared: Tuple[str, ...]
    referenced: FrozenSet[str]
    #: referenced name -> fingerprint of the declaring unit (None when the
    #: name resolves to nothing); the unit must be re-walked when this map
    #: changes, even if its own text did not.
    signature: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Cached products of the unit's last symbolic walk.
    constraints: List[Constraint] = field(default_factory=list)
    errors: List[IfcDiagnostic] = field(default_factory=list)
    pc_vars: List[Tuple[d.ControlDecl, LabelVar]] = field(default_factory=list)
    touches: List[InferenceSite] = field(default_factory=list)
    effects: List[Effect] = field(default_factory=list)

    @property
    def is_control(self) -> bool:
        return isinstance(self.node, d.ControlDecl)


@dataclass
class UnitPlan:
    """The diff's verdict for one unit of the new revision, in order."""

    state: UnitState
    #: Whether the unit must be re-walked (new, content changed, or a
    #: referenced declaration changed).  Clean units replay their caches.
    dirty: bool
    #: Whether a matched unit's spans were rewritten to new positions.
    respanned: bool = False
    #: The changed-span map of the re-span (old span -> new span), for
    #: rebuilding cached values that embed spans.
    span_map: Dict[object, object] = field(default_factory=dict)


def program_units(program: Program) -> List[Unit]:
    """The top-level units of ``program`` in walk order: declarations
    first (in order), then control blocks (in order)."""
    return [*program.declarations, *program.controls]


def environment_signatures(
    units: List[Unit],
    fingerprints: List[str],
    referenced: List[FrozenSet[str]],
) -> List[Dict[str, Optional[str]]]:
    """The environment signature of every unit, in unit order.

    A unit's signature maps each name it references to the *deep*
    fingerprint of the declaring unit that binding would resolve to --
    the latest earlier declaration for named declarations (top-level
    scoping is sequential), the final declaration map for control blocks
    (controls are walked after every declaration).  Deep fingerprints
    combine a declarer's own content hash with its signature, so a change
    propagates transitively: editing a ``header`` dirties the ``struct``
    that embeds it *and* every control typed against that struct, even
    when their own text is untouched.  ``None`` records "resolves to
    nothing", so a deleted or newly introduced declaration changes the
    signature exactly like an edited one.
    """
    env: Dict[str, str] = {}
    signatures: List[Dict[str, Optional[str]]] = [dict() for _ in units]
    control_indices: List[int] = []
    for index, unit in enumerate(units):
        if isinstance(unit, d.ControlDecl):
            control_indices.append(index)
            continue
        signature = {name: env.get(name) for name in sorted(referenced[index])}
        signatures[index] = signature
        declared = declared_names(unit)
        if declared:
            deep = hashlib.sha256(
                (fingerprints[index] + "|" + repr(sorted(signature.items()))).encode(
                    "utf-8"
                )
            ).hexdigest()
            for name in declared:
                env[name] = deep
    for index in control_indices:
        signatures[index] = {
            name: env.get(name) for name in sorted(referenced[index])
        }
    return signatures


def diff_program(old_states: List[UnitState], program: Program) -> List[UnitPlan]:
    """Diff ``program`` against the cached ``old_states``.

    Returns one :class:`UnitPlan` per unit of the new revision, in walk
    order.  Matched units *reuse the old state object* (and with it the
    old AST nodes, whose identities anchor cached label variables); the
    spans of those matched by fingerprint are rewritten in place to the
    new positions.  Old states that no new unit claims are dropped --
    their annotation sites disappear from the registry once the walk's
    touch union is recomputed.
    """
    units = program_units(program)

    # A unit that *is* a cached node (the parser handed it back unchanged)
    # is a clean match as it stands: same content, spans already right.
    by_node = {id(state.node): state for state in old_states}
    matches: List[Optional[UnitState]] = [by_node.pop(id(unit), None) for unit in units]
    claimed = {id(state) for state in matches if state is not None}
    pool: Dict[str, List[UnitState]] = {}
    for state in old_states:
        if id(state) not in claimed:
            pool.setdefault(state.fingerprint, []).append(state)

    # Match (and re-span) the rest by fingerprint, so reference sets of
    # matched units can be taken from the cached state instead of
    # re-walking their trees: equal fingerprints mean equal content,
    # hence equal referenced names.
    fingerprints: List[str] = []
    span_maps: List[Dict[object, object]] = []
    for index, unit in enumerate(units):
        old = matches[index]
        span_map: Dict[object, object] = {}
        if old is not None:
            fingerprint = old.fingerprint
        else:
            fingerprint = unit_fingerprint(unit)
            bucket = pool.get(fingerprint)
            old = bucket.pop(0) if bucket else None
            if old is not None:
                try:
                    span_map = respan(old.node, unit)
                except RespanMismatch:
                    # Identical fingerprints should guarantee identical
                    # shapes; if they somehow do not, fall back to a full
                    # re-walk of the fresh node rather than corrupt caches.
                    old, span_map = None, {}
            matches[index] = old
        fingerprints.append(fingerprint)
        span_maps.append(span_map)

    referenced = [
        matches[index].referenced
        if matches[index] is not None
        else referenced_names(unit)
        for index, unit in enumerate(units)
    ]
    signatures = environment_signatures(units, fingerprints, referenced)

    plans: List[UnitPlan] = []
    for index, unit in enumerate(units):
        old = matches[index]
        if old is not None:
            dirty = old.signature != signatures[index]
            old.signature = signatures[index]
            plans.append(
                UnitPlan(
                    old,
                    dirty,
                    respanned=bool(span_maps[index]),
                    span_map=span_maps[index],
                )
            )
            continue
        plans.append(
            UnitPlan(
                UnitState(
                    node=unit,
                    fingerprint=fingerprints[index],
                    declared=declared_names(unit),
                    referenced=referenced[index],
                    signature=signatures[index],
                ),
                dirty=True,
            )
        )
    return plans
