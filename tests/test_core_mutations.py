"""Core P4 diagnostics of type-error mutations, pinned byte for byte.

Every program of the ``cold_check`` corpus (see ``test_parser``'s
``mutation_corpus``) is mutated into a handful of ill-typed variants --
an unknown variable or field, a wrong operand type, a non-bool
condition, a read-only or ill-typed assignment, a bad call arity or
argument, a table key or match kind, ``return`` placement, and an
unknown label paired with an ill-typed use of the labelled field, and
operations built on a rejected one -- at its first and last assignment (which in most programs sit in an action
body and in an ``apply`` block).  Each variant is checked three ways:
``--core-only`` (``include_ifc=False``), a plain check, and ``--infer``.
Each core diagnostic is recorded as it renders (span, rule, message); the
inference and IFC diagnostics, which must neither appear nor disappear,
as their count and a digest of their rendering.  All must match
``core_mutations.json`` exactly.  Regenerate the fixture only for a
deliberate change of the checker's output:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_core_mutations; test_core_mutations.write_fixture()"
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import check_source
from test_parser import mutation_corpus

FIXTURE = Path(__file__).with_name("core_mutations.json")

#: The corpus programs' lattices (the ``cold_check`` corpus's, by name).
LATTICES = {
    "deep-2x40": "two-point",
    "deep-low-sink": "two-point",
    "scc-rings": "two-point",
    "wide-insecure": "two-point",
    "chain-16": "chain-16",
    "sharded-diamond": "diamond",
}

MODES = (
    ("core-only", {"include_ifc": False}),
    ("check", {}),
    ("infer", {"infer": True}),
)

_ASSIGN = re.compile(r"^(?P<indent>[ \t]*)(?P<lhs>hdr(?:\.\w+)+) = (?P<rhs>[^;]+);", re.M)
_IF = re.compile(r"if \((?P<cond>[^{]*)\) \{")
_CALL = re.compile(r"^(?P<indent>[ \t]*)(?P<callee>\w+(?:\.apply)?)\(\);", re.M)
_KEY = re.compile(r"(?P<expr>hdr(?:\.\w+)+): (?P<kind>\w+);")
_ACTIONS = re.compile(r"actions = \{ (?P<first>\w+)(?P<args>\([^)]*\))?;")
_ACTION = re.compile(r"action (?P<name>\w+)\((?P<params>[^)]*)\) \{")
_APPLY = re.compile(r"apply \{")


def _lattice(name: str) -> str:
    if name in LATTICES:
        return LATTICES[name]
    from repro.casestudies import get_case_study

    return get_case_study(name.rsplit("-", 1)[0]).lattice_name


def _replace(source: str, match: re.Match, group: str, text: str) -> str:
    return source[: match.start(group)] + text + source[match.end(group) :]


def _assignment_mutations(source: str, match: re.Match, where: str):
    lhs, rhs = match.group("lhs"), match.group("rhs")
    root, _, rest = lhs.partition(".")
    head, _, _last = lhs.rpartition(".")
    yield f"{where}:unknown-variable", _replace(source, match, "lhs", "ghost." + rest)
    yield f"{where}:unknown-field", _replace(source, match, "lhs", head + ".missing")
    yield f"{where}:bool-operand", _replace(source, match, "rhs", f"{rhs} + true")
    yield f"{where}:mixed-width", _replace(source, match, "rhs", f"{rhs} + 3w1")
    yield f"{where}:not-on-bits", _replace(source, match, "rhs", f"!{rhs}")
    yield f"{where}:bool-assigned", _replace(source, match, "rhs", "true")
    yield f"{where}:read-only", _replace(source, match, "lhs", "1")
    yield f"{where}:index-non-array", _replace(source, match, "rhs", f"{root}[0]")
    yield f"{where}:struct-assigned", _replace(source, match, "rhs", root)
    yield f"{where}:unknown-in-operand", _replace(source, match, "rhs", f"{rhs} + ghost")
    # A rejected operation is reported once: nothing built on it is checked.
    yield f"{where}:ill-typed-chain", _replace(source, match, "rhs", f"(({rhs}) + true) == 1")
    yield f"{where}:ill-typed-operand", _replace(source, match, "rhs", f"(({rhs}) + true) + true")
    yield f"{where}:ill-typed-field", _replace(
        source, match, "rhs", f"{{a = ({rhs}) + true, b = ghost}}.a"
    )
    yield f"{where}:return-value", _replace(
        source, match, "lhs", f"return 1; {lhs}"
    )
    # An unknown label on the assigned field, with an ill-typed write to it.
    field = lhs.rsplit(".", 1)[1]
    declared = re.search(rf"<(?P<ty>[^<>]*(?:<\d+>)?), (?P<label>\w+)>\s+{field};", source)
    if declared is not None:
        relabelled = _replace(source, declared, "label", "bogus")
        again = _ASSIGN.search(relabelled, match.start() + (len(relabelled) - len(source)))
        if again is not None and again.group("lhs") == lhs:
            yield f"{where}:unknown-label-ill-typed", _replace(relabelled, again, "rhs", "true")


def mutations(source: str):
    """``(tag, mutated source)`` for every applicable mutation, in order."""
    assigns = list(_ASSIGN.finditer(source))
    if assigns:
        yield from _assignment_mutations(source, assigns[0], "first")
        if assigns[-1].start() != assigns[0].start():
            yield from _assignment_mutations(source, assigns[-1], "last")
    cond = _IF.search(source)
    if cond is not None:
        yield "if:non-bool", _replace(source, cond, "cond", "8w1")
        yield "if:ill-typed", _replace(source, cond, "cond", f"({cond.group('cond')}) + 1")
        yield "if:unknown", _replace(source, cond, "cond", "ghost == 1")
    call = _CALL.search(source)
    if call is not None:
        callee = call.group("callee")
        yield "call:arity", _replace(source, call, "callee", f"{callee}(1, 2); //")
        yield "call:as-value", _replace(source, call, "callee", f"hdr = {callee}(); //")
    key = _KEY.search(source)
    if key is not None:
        yield "key:match-kind", _replace(source, key, "kind", "sorted")
        yield "key:unknown", _replace(source, key, "expr", "ghost")
        actions = _ACTIONS.search(source)
        if actions is not None:
            yield "key:action", _replace(source, key, "expr", actions.group("first"))
    actions = _ACTIONS.search(source)
    if actions is not None:
        yield "actions:undeclared", _replace(source, actions, "first", "ghost_action")
        if actions.group("args"):
            yield "actions:bad-argument", _replace(source, actions, "args", "(true)")
            yield "actions:arity", _replace(source, actions, "args", "(ghost, 2, 3)")
    declared = list(_ACTION.finditer(source))
    if declared:
        body = declared[0].end()
        yield "action:return-value", source[:body] + " return true;" + source[body:]
        # Prefer an action with parameters: its call can pass a wrong argument.
        action = next((a for a in declared if a.group("params").strip()), declared[0])
        name = action.group("name")
        params = re.sub(r"<[^<>]*(?:<\d+>)?[^<>]*>", "T", action.group("params"))
        arity = len(params.split(",")) if params.strip() else 0
        apply = _APPLY.search(source)
        if apply is not None:
            at = apply.end()
            # Too many arguments: only the count is reported, not the unknown names.
            calls = [("apply:call-arity", ", ".join(["ghost"] * (arity + 1)))]
            if arity:
                calls.append(("apply:call-bad-argument", ", ".join(["true"] * arity)))
                calls.append(("apply:call-ill-typed-argument", ", ".join(["(true + 1)"] * arity)))
            for tag, args in calls:
                yield tag, source[:at] + f" {name}({args});" + source[at:]
            yield "apply:return", source[:at] + " return;" + source[at:]
            # Reported twice, as before: core T-Call and an IFC type error.
            yield "apply:not-an-l-value", (
                source[: apply.start()]
                + "action p4_lv(inout bit<8> v) { v = 1; }\n    "
                + source[apply.start() : at]
                + " p4_lv(1);"
                + source[at:]
            )
            yield "apply:action-in-if", source[:at] + f" if ({name}) {{ }}" + source[at:]


def _rendered(report) -> dict:
    """The core diagnostics verbatim; the inference and IFC ones as their
    count and digest (the wide programs repeat dozens of table-key flows
    per variant)."""
    assert report.parse_error is None, report.parse_error
    others = "\n".join(
        str(diag) for diag in (*report.inference_diagnostics, *report.ifc_diagnostics)
    )
    return {
        "core": [str(diag) for diag in report.core_diagnostics],
        "other": [others.count("\n") + bool(others), hashlib.sha256(others.encode()).hexdigest()[:16]],
    }


def outcomes(name: str, source: str) -> list:
    """``[tag, {mode: {"core": [...], "other": [count, digest]}}]`` per
    mutation; a mode whose core diagnostics equal ``--core-only``'s
    records them as ``"="``."""
    lattice = _lattice(name)
    recorded = []
    for tag, mutated in mutations(source):
        by_mode = {}
        for mode, options in MODES:
            report = check_source(mutated, lattice, filename=f"{name}.p4", **options)
            by_mode[mode] = _rendered(report)
            if mode != "core-only" and by_mode[mode]["core"] == by_mode["core-only"]["core"]:
                by_mode[mode]["core"] = "="
        recorded.append([tag, by_mode])
    return recorded


def write_fixture() -> None:
    """Record the current checker's outcomes, one mutation a line."""
    programs = [
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(outcome) for outcome in outcomes(name, source))
        + "\n]"
        for name, source in mutation_corpus()
    ]
    FIXTURE.write_text("{\n" + ",\n".join(programs) + "\n}\n")


@pytest.mark.parametrize("name, source", mutation_corpus(), ids=lambda value: value[:24])
def test_mutated_programs_report_as_recorded(name, source):
    expected = json.loads(FIXTURE.read_text())[name]
    assert outcomes(name, source) == expected


def test_every_family_is_exercised():
    """The fixture holds core diagnostics of every rule the mutations aim at."""
    recorded = json.loads(FIXTURE.read_text())
    rules = set()
    for entries in recorded.values():
        for _tag, by_mode in entries:
            for line in by_mode["core-only"]["core"]:
                found = re.search(r"type error \[([\w-]+)\]", line)
                if found:
                    rules.add(found.group(1))
    assert {
        "T-Var", "T-MemRec", "T-BinOp", "T-UnOp", "T-Assign", "T-Cond", "T-Index",
        "T-Call", "T-TblDecl", "T-TblCall", "T-Return",
    } <= rules
