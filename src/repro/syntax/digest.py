"""Structural digests of top-level declarations, for incremental sessions.

A :class:`~repro.workspace.session.Workspace` re-checks an edited program
by diffing it against the previous revision *per top-level unit* (a named
declaration or a control block).  The diff needs two ingredients, both
provided here:

* :func:`unit_fingerprint` -- a content hash of one unit, computed over
  its pretty-printed text.  The printer emits no spans, no whitespace
  variation and no comments, so the fingerprint is stable under
  formatting-only edits and under the unit merely *moving* inside the
  file;
* :func:`declared_names` / :func:`referenced_names` -- the names a unit
  exports to later units and the names it (conservatively) depends on,
  from which the diff derives an *environment signature* so a unit is
  re-walked when a declaration it references changed, even if its own
  text did not.

Nothing here depends on positions: a unit that merely moved keeps its
spans, whose anchor the parser or the diff re-bases
(:class:`~repro.syntax.source.Anchor`).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, FrozenSet, Iterator, List, Tuple, Union

from repro.syntax import declarations as d
from repro.syntax import expressions as e
from repro.syntax.printer import pretty_print
from repro.syntax.types import TypeName

#: One top-level unit of a program: a named declaration or a control block.
Unit = Union[d.Declaration, d.ControlDecl]


def unit_fingerprint(unit: Unit) -> str:
    """A content hash of ``unit``: sha256 over its pretty-printed text.

    Positions, surrounding whitespace and comments do not participate, so
    two parses of differently formatted sources yield equal fingerprints
    exactly when the units are structurally identical.
    """
    return hashlib.sha256(pretty_print(unit).encode("utf-8")).hexdigest()


#: Per value type, whether its values are AST nodes.  The tree walks here
#: ask once per field of every node; a dict hit is far cheaper than
#: ``dataclasses.is_dataclass`` plus an ``isinstance`` check each time.
_NODE_TYPES: Dict[type, bool] = {}


def _is_node(value: object) -> bool:
    """Whether ``value`` is an AST node (vs. a scalar or a span)."""
    kind = type(value)
    known = _NODE_TYPES.get(kind)
    if known is None:
        known = dataclasses.is_dataclass(kind)
        _NODE_TYPES[kind] = known
    return known


#: Field names per node type.  ``dataclasses.fields`` allocates a fresh
#: tuple of Field objects on every call; the tree walks here visit
#: hundreds of thousands of nodes per revision, so the lookup is cached.
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _field_names(node: object) -> Tuple[str, ...]:
    names = _FIELD_NAMES.get(type(node))
    if names is None:
        names = tuple(f.name for f in dataclasses.fields(node))  # type: ignore[arg-type]
        _FIELD_NAMES[type(node)] = names
    return names


def iter_tree(node: object) -> Iterator[object]:
    """Pre-order walk of *every* AST node under ``node``.

    Unlike :func:`repro.syntax.visitor.walk` this descends into type
    annotations (:class:`~repro.syntax.types.AnnotatedType` trees, fields,
    parameters), which is what fingerprint-adjacent consumers need: the
    annotation slots live there.  The walk keeps its own stack, so a deep
    tree costs no recursion and each node is yielded once, not passed up
    through a generator per ancestor.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        children: List[object] = []
        for name in _field_names(node):
            _collect_nodes(getattr(node, name), children)
        children.reverse()
        stack.extend(children)


def _collect_nodes(value: object, out: List[object]) -> None:
    if _is_node(value):
        out.append(value)
    elif isinstance(value, tuple):
        for item in value:
            _collect_nodes(item, out)


def declared_names(unit: Unit) -> Tuple[str, ...]:
    """The names ``unit`` binds for *later* top-level units.

    Control blocks bind nothing outward (their parameters and locals live
    in a child scope), so they return ``()``.
    """
    if isinstance(unit, d.MatchKindDecl):
        # A match_kind declaration also defines ``match_kind``: the kinds
        # a table key may use, its own members and every earlier one's.
        return (*unit.members, "match_kind")
    if isinstance(
        unit,
        (d.VarDecl, d.TypedefDecl, d.HeaderDecl, d.StructDecl, d.FunctionDecl, d.TableDecl),
    ):
        return (unit.name,)
    return ()


def referenced_names(unit: Unit) -> FrozenSet[str]:
    """Every name ``unit`` may look up in the surrounding environment.

    Deliberately conservative (it includes the unit's own local names and
    match kinds): a false positive only widens the set of units re-walked
    after an edit, never narrows it.
    """
    names = set()
    for node in iter_tree(unit):
        if isinstance(node, e.Var):
            names.add(node.name)
        elif isinstance(node, e.Call) and isinstance(node.callee, e.Var):
            names.add(node.callee.name)
        elif isinstance(node, d.ActionRef):
            names.add(node.name)
        elif isinstance(node, d.TableKey):
            names.add(node.match_kind)
            names.add("match_kind")
        elif isinstance(node, d.MatchKindDecl):
            # Its members extend the earlier declaration's.
            names.add("match_kind")
        elif isinstance(node, TypeName):
            names.add(node.name)
    return frozenset(names)
