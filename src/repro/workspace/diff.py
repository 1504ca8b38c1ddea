"""Structural diffing of programs at top-level-unit granularity.

A :class:`~repro.workspace.session.Workspace` re-checks an edited program
without re-walking it wholesale.  The units of reuse are the *top-level
units* of a :class:`~repro.syntax.program.Program`: its named declarations
and its control blocks, in program order.  For each unit the workspace
keeps a :class:`UnitState` -- the AST node whose identities anchor the
cached label variables, plus what each phase's last walk of the unit
produced (the symbolic walk's constraints and touched annotation sites,
the elaborated node, the IFC re-check's diagnostics; each with the
context effects it replays, and the walks with the unit's Core P4
diagnostics).

Diffing a new revision against the cached states proceeds in three steps,
all position-independent:

1. **Match**, first by identity: a unit that *is* a cached state's node
   -- the incremental parser
   (:func:`repro.frontend.parser.parse_program` with an index) hands
   back the units an edit did not touch -- matches that state as it
   stands, with its cached fingerprint.  Every other unit (one the
   parser re-parsed) is matched by content fingerprint
   (:func:`repro.syntax.digest.unit_fingerprint`): it claims the first
   unclaimed old unit with the same fingerprint and the same tokens, in
   order (FIFO, so duplicated units pair up positionally).  A unit that
   merely moved, or changed only the whitespace and comments between its
   tokens, still matches.
2. **Classify** by environment signature: a matched unit is *clean* only
   if the names it references still resolve to byte-identical earlier
   declarations (:func:`environment_signatures`) -- and to the very same
   declaring units as before, themselves clean.  A unit whose own text
   is untouched but whose referenced ``header`` changed is re-walked, so
   cross-unit label variables are re-allocated consistently; so is one
   whose declarer was swapped for a content-identical stand-in (the
   later of two equal declarations deleted), whose variables differ.
3. **Re-base**: a cached unit matched by fingerprint -- to one that was
   re-parsed -- takes the re-parsed unit's anchor position
   (:meth:`repro.syntax.source.Anchor.rebase`), so it and everything
   cached from it render exactly as a cold parse of the new source
   would.  A unit matched by identity was moved by the parser already.

A *first* plan -- a diff against no states, as every one-shot check
takes -- has nothing to match and nothing to classify: every unit is new
and dirty.  It computes no fingerprint, no reference set and no
signature; its states carry their node and declared names only, and
:func:`settle_states` fills in the rest from the very same nodes the
first time something reads it (the next plan, or an IFC re-check that
could reuse products; see :class:`~repro.workspace.session.RecheckSlots`).
None of them depends on positions, so the deferred values equal the ones
an eager first plan would have stored.

Everything here is pure bookkeeping over the syntax layer; the walk that
consumes the plan lives in :mod:`repro.workspace.regen`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.flow.units import UnitProducts, program_units
from repro.inference.elaborate import Elaboration
from repro.inference.generate import InferenceSite
from repro.syntax import declarations as d
from repro.syntax.digest import Unit, declared_names, referenced_names, unit_fingerprint
from repro.syntax.program import Program
from repro.syntax.source import anchor_of
from repro.syntax.types import AnnotatedType
from repro.telemetry import current_recorder

@dataclass
class UnitState:
    """One top-level unit with the products of its last walk by each phase.

    Each cache is ``None`` until its phase first runs over the unit, and
    is dropped again when the unit's diff verdict voids it (see
    :meth:`repro.workspace.regen.IncrementalGenerator.plan`).
    """

    node: Unit
    declared: Tuple[str, ...]
    #: The node came from a program the workspace adopted rather than
    #: parsed, so its anchor is shared with whoever parsed it and is never
    #: re-based: a re-parsed unit does not match it by fingerprint.
    adopted: bool = False
    #: The rest of the diff's view of the unit is ``None`` while the
    #: first plan that made the state deferred it (:func:`settle_states`).
    fingerprint: Optional[str] = None
    referenced: Optional[FrozenSet[str]] = None
    #: referenced name -> fingerprint of the declaring unit (None when the
    #: name resolves to nothing); the unit must be re-walked when this map
    #: changes, even if its own text did not.
    signature: Optional[Dict[str, Optional[str]]] = None
    #: Per referenced name (signature order), the index of its declaring
    #: unit in the plan that made this state's signature (``None``:
    #: resolves to nothing).
    declarers: Optional[Tuple[Optional[int], ...]] = None
    #: The deep fingerprint its declared names resolve to: its own
    #: fingerprint with its signature (None: it declares nothing).
    deep: Optional[str] = None
    #: Whether it reaches a name its signature does not pin
    #: (:func:`unpinned_reach`): it is re-walked on every revision.
    unpinned: bool = False
    #: Where the unit started when it was last planned (None: placed spans).
    start: Optional[int] = None
    #: The unit's index at the last refresh (None: not refreshed yet).
    order: Optional[int] = None
    #: The symbolic walk: constraints, errors, pc vars, touched sites.
    generated: Optional[UnitProducts] = None
    #: The slots the last walk suggested hints for; they keep their hints
    #: while the state is live.
    hinted: Sequence[AnnotatedType] = ()
    #: The sites the unit adds to the live site list (those of its walk's
    #: touches no earlier unit touched), in order.
    sites: Optional[List[InferenceSite]] = None
    #: The inferred labels of ``sites`` (a
    #: :class:`~repro.workspace.session.SlotLabels`).
    labels: Optional[object] = None
    #: The unit with its solved labels written in.
    elaborated: Optional[Elaboration] = None
    #: The concrete IFC re-check of ``ifc_node``: diagnostics and
    #: declassification events.
    ifc: Optional[UnitProducts] = None
    ifc_node: Optional[Unit] = None

    @property
    def is_control(self) -> bool:
        return isinstance(self.node, d.ControlDecl)


class StateSlots:
    """One products slot of the unit states, as a per-unit cache
    (:class:`repro.flow.units.UnitCache`): each unit is offered what its
    state holds in ``slot``, and keeps what the walk hands back."""

    def __init__(self, states: List[UnitState], slot: str) -> None:
        self.states = states
        self.slot = slot
        #: Per unit, whether the last :meth:`store` brought new products.
        self.fresh: List[bool] = []
        self.walked = 0

    def reuse(self) -> list:
        return [getattr(state, self.slot) for state in self.states]

    def store(self, products: list) -> None:
        slot = self.slot
        self.fresh = [
            unit is not getattr(state, slot)
            for state, unit in zip(self.states, products)
        ]
        self.walked = sum(self.fresh)
        for state, unit in zip(self.states, products):
            setattr(state, slot, unit)


@dataclass
class UnitPlan:
    """The diff's verdict for one unit of the new revision, in order."""

    state: UnitState
    #: Whether the unit must be re-walked (new, content changed, or a
    #: referenced declaration changed).  Clean units replay their caches.
    dirty: bool


def environment_signatures(
    units: List[Unit],
    fingerprints: List[str],
    referenced: List[FrozenSet[str]],
    declarers: Optional[List[Tuple[Optional[int], ...]]] = None,
    *,
    previous: Optional[List[Optional["UnitState"]]] = None,
    deeps: Optional[List[Optional[str]]] = None,
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

    A ``declarers`` list, when given, receives per unit the index of the
    declaring unit of each referenced name, in signature order (``None``:
    resolves to nothing), and a ``deeps`` list its deep fingerprint
    (``None``: it declares nothing, or is a control).  ``previous`` gives
    per unit the state it matched, of the same fingerprint: while its
    signature is the state's, so is its deep fingerprint, which is then
    not hashed again (counter ``workspace.signatures_hashed``: the ones
    that were).
    """
    env: Dict[str, str] = {}
    #: name -> index of the unit declaring it.
    owner: Dict[str, int] = {}
    signatures: List[Dict[str, Optional[str]]] = [dict() for _ in units]
    if declarers is not None:
        declarers[:] = [()] * len(units)
    if deeps is not None:
        deeps[:] = [None] * len(units)
    hashed = 0
    control_indices: List[int] = []
    for index, unit in enumerate(units):
        if isinstance(unit, d.ControlDecl):
            control_indices.append(index)
            continue
        names = sorted(referenced[index])
        signature = {name: env.get(name) for name in names}
        signatures[index] = signature
        if declarers is not None:
            declarers[index] = tuple(owner.get(name) for name in names)
        declared = declared_names(unit)
        if declared:
            known = previous[index] if previous is not None else None
            if known is not None and known.deep is not None and known.signature == signature:
                deep = known.deep
            else:
                deep = hashlib.sha256(
                    (fingerprints[index] + "|" + repr(sorted(signature.items()))).encode(
                        "utf-8"
                    )
                ).hexdigest()
                hashed += 1
            if deeps is not None:
                deeps[index] = deep
            for name in declared:
                env[name] = deep
                owner[name] = index
    for index in control_indices:
        names = sorted(referenced[index])
        signatures[index] = {name: env.get(name) for name in names}
        if declarers is not None:
            declarers[index] = tuple(owner.get(name) for name in names)
    recorder = current_recorder()
    if recorder.enabled:
        recorder.count("workspace.signatures_hashed", hashed)
    return signatures


def unpinned_reach(
    units: List[Unit],
    declared: List[Tuple[str, ...]],
    referenced: List[FrozenSet[str]],
    declarers: List[Tuple[Optional[int], ...]],
) -> List[bool]:
    """Per unit, whether it reaches a name whose binding no signature pins.

    A struct's or header's field types are converted where the type is
    used, against the declarations of that point (a control sees the
    final ones), while its signature resolves each name at the struct's
    own position.  The two agree unless the name is declared twice, or a
    declaration references it before its last declaration.  A unit that
    references such a name, or references a declarer that reaches one,
    may have products no signature change voids, so it counts as changed
    on every revision.
    """
    last: Dict[str, int] = {}
    unpinned = set()
    for index, names in enumerate(declared):
        for name in names:
            if name in last:
                unpinned.add(name)
            last[name] = index
    for index, unit in enumerate(units):
        if not isinstance(unit, d.ControlDecl):
            unpinned.update(name for name in referenced[index] if last.get(name, -1) > index)
    reach = [False] * len(units)
    if not unpinned:
        return reach
    # Units come in walk order, declarations before controls, and a unit's
    # declarers come before it: each declarer's verdict is known first.
    for index, names in enumerate(referenced):
        reach[index] = not unpinned.isdisjoint(names) or any(
            declarer is not None and reach[declarer] for declarer in declarers[index]
        )
    return reach


def settle_states(states: List[UnitState]) -> None:
    """Fill in what a first plan deferred, for ``states`` in unit order.

    Computes each state's fingerprint, reference set, signature and
    declarers from its node, exactly as an eager plan of the same units
    would have.  Does nothing when every state is settled already.
    """
    if all(state.signature is not None for state in states):
        return
    units = [state.node for state in states]
    for state in states:
        if state.fingerprint is None:
            state.fingerprint = unit_fingerprint(state.node)
        if state.referenced is None:
            state.referenced = referenced_names(state.node)
    declarers: List[Tuple[Optional[int], ...]] = []
    deeps: List[Optional[str]] = []
    signatures = environment_signatures(
        units,
        [state.fingerprint for state in states],
        [state.referenced for state in states],
        declarers,
        deeps=deeps,
    )
    reach = unpinned_reach(
        units,
        [state.declared for state in states],
        [state.referenced for state in states],
        declarers,
    )
    for state, signature, indices, deep, unpinned in zip(
        states, signatures, declarers, deeps, reach
    ):
        state.signature = signature
        state.declarers = indices
        state.deep = deep
        state.unpinned = unpinned


def diff_program(
    old_states: List[UnitState], program: Program, *, adopted: bool = False
) -> List[UnitPlan]:
    """Diff ``program`` against the cached ``old_states``.

    Returns one :class:`UnitPlan` per unit of the new revision, in walk
    order.  Matched units *reuse the old state object* (and with it the
    old AST nodes, whose identities anchor cached label variables); those
    matched by fingerprint are re-based onto the re-parsed unit's anchor.
    A state whose node was ``adopted`` -- parsed by someone else -- is
    matched only by identity, so no anchor outside the workspace's own
    parses is ever re-based.  Old states that no new unit claims are
    dropped -- their annotation sites disappear from the registry once
    the walk's touch union is recomputed.

    Against no states (a first plan) every unit is new and dirty, and
    the states' fingerprints, references and signatures are left for
    :func:`settle_states`.
    """
    units = program_units(program)
    if not old_states:
        return [
            UnitPlan(
                UnitState(node=unit, declared=declared_names(unit), adopted=adopted), dirty=True
            )
            for unit in units
        ]
    settle_states(old_states)

    # A unit that *is* a cached node (the parser handed it back unchanged)
    # is a clean match as it stands: same content, anchor already moved.
    by_node = {id(state.node): state for state in old_states}
    matches: List[Optional[UnitState]] = [by_node.pop(id(unit), None) for unit in units]
    claimed = {id(state) for state in matches if state is not None}
    pool: Dict[str, List[UnitState]] = {}
    for state in old_states:
        if id(state) not in claimed and not state.adopted:
            pool.setdefault(state.fingerprint, []).append(state)

    # Match (and re-base) the rest by fingerprint, so reference sets of
    # matched units can be taken from the cached state instead of
    # re-walking their trees: equal fingerprints mean equal content,
    # hence equal referenced names.
    fingerprints: List[str] = []
    for index, unit in enumerate(units):
        old = matches[index]
        if old is not None:
            fingerprint = old.fingerprint
        else:
            fingerprint = unit_fingerprint(unit)
            bucket = pool.get(fingerprint, [])
            old = next((state for state in bucket if _same_tokens(state.node, unit)), None)
            if old is not None:
                bucket.remove(old)
                old.node.span.anchor.rebase(unit.span.anchor)
            matches[index] = old
        fingerprints.append(fingerprint)

    referenced = [
        matches[index].referenced
        if matches[index] is not None
        else referenced_names(unit)
        for index, unit in enumerate(units)
    ]
    declarers: List[Tuple[Optional[int], ...]] = []
    deeps: List[Optional[str]] = []
    signatures = environment_signatures(
        units, fingerprints, referenced, declarers, previous=matches, deeps=deeps
    )

    states = [
        old
        if old is not None
        else UnitState(
            node=unit,
            fingerprint=fingerprints[index],
            declared=declared_names(unit),
            referenced=referenced[index],
            adopted=adopted,
        )
        for index, (unit, old) in enumerate(zip(units, matches))
    ]
    reach = unpinned_reach(units, [state.declared for state in states], referenced, declarers)
    plans: List[UnitPlan] = []
    for index, state in enumerate(states):
        # Clean only when every referenced name resolves to a declaration
        # with the same deep content *and* to the very same unit as
        # before, itself clean: a content-identical stand-in (deleting
        # the later of two equal declarations) carries other variables.
        # A unit reaching an unpinned name, now or at its last walk, is
        # never clean.
        old = matches[index]
        dirty = (
            old is None
            or old.unpinned
            or reach[index]
            or old.signature != signatures[index]
            or len(old.declarers) != len(declarers[index])
            or any(
                (was is None) != (now is None)
                or (
                    now is not None
                    and (plans[now].dirty or old_states[was] is not states[now])
                )
                for was, now in zip(old.declarers, declarers[index])
            )
        )
        state.signature = signatures[index]
        state.declarers = declarers[index]
        state.deep = deeps[index]
        state.unpinned = reach[index]
        plans.append(UnitPlan(state, dirty))
    return plans


def _same_tokens(kept: Unit, parsed: Unit) -> bool:
    """Whether ``parsed`` spells the very tokens of ``kept``, so that
    ``kept``'s spans index ``parsed``'s anchor alike.  Equal fingerprints
    do not imply it: redundant parentheses print alike."""
    old, new = anchor_of(kept.span), anchor_of(parsed.span)
    return old is not None and new is not None and old.tokens() == new.tokens()
