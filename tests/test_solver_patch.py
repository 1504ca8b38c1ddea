"""The patched propagation graph against a fresh build.

`Solver.rebase` patches its graph per unit bucket instead of rebuilding
it: dropped buckets' edges and checks leave the indexes, only added
buckets are normalised, and only the region whose components can have
changed is re-condensed.  These tests drive edit scripts (add, delete or
rewrite a unit; flip a seed; pin and unpin) and after every step compare
the patched solver with a `Solver` built from scratch over the
same buckets: edge keys with their origins in order, each variable's
in-edges in order, the checks in order, the SCC partition and the
whole-system stats, the least solution, and the conflicts with their
unsat cores in order.  They also pin the premise of the per-unit buckets
(their concatenation is what a deduplicating merge would build) and,
by counters, that a one-shard edit does no whole-program solver work.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import all_case_studies
from repro.casestudies.base import strip_body_annotations
from repro.inference import (
    Constraint,
    ConstTerm,
    JoinTerm,
    MeetTerm,
    PropagationGraph,
    Solver,
    VarSupply,
    VarTerm,
)
from repro.inference.constraints import ConstraintSet
from repro.inference.generate import generate_constraints
from repro.frontend.parser import parse_program
from repro.lattice.registry import get_lattice
from repro.synth import (
    chain_pipeline_program,
    deep_dataflow_program,
    scc_cycle_program,
    sharded_dataflow_program,
    wide_table_program,
)
from repro.telemetry import TraceRecorder, use_recorder
from repro.workspace import Workspace, WorkspaceError


# ---------------------------------------------------------------------------
# comparison with a fresh build


def _structure(graph: PropagationGraph) -> dict:
    """Everything about a graph that must not depend on how it was made."""
    edges = graph.edges
    assert [edge._index for edge in edges] == list(range(len(edges)))
    assert {key: edge.key for key, edge in graph._edge_index.items()} == {
        edge.key: edge.key for edge in edges
    }
    # Components are numbered in topological order.
    for edge in edges:
        target = graph.component_of[edge.target]
        for source in edge.sources:
            assert graph.component_of[source] <= target
    for comp_id, members in graph.components.items():
        for var in members:
            assert graph.component_of[var] == comp_id
    stats = graph._new_stats()
    return {
        "edges": {edge.key: edge.constraints for edge in edges},
        "in_edges": {
            var: [edges[index].key for index in indices]
            for var, indices in graph.edges_into.items()
        },
        "dependents": {
            var: sorted(str(edges[index].key) for index in indices)
            for var, indices in graph.dependents.items()
        },
        "checks": list(graph.checks),
        "variables": set(graph.variables),
        "components": {
            frozenset(members): graph._cyclic[comp_id]
            for comp_id, members in graph.components.items()
        },
        "stats": (
            stats.variable_count,
            stats.edge_count,
            stats.check_count,
            stats.scc_count,
            stats.cyclic_scc_count,
            stats.largest_scc,
        ),
    }


def _answers(solution) -> tuple:
    return (
        dict(solution.assignment),
        [
            (c.constraint, c.observed, c.required, c.core)
            for c in solution.conflicts
        ],
        solution.propagation_count,
        solution.check_count,
    )


def _assert_matches_fresh(solver: Solver, solution, buckets, pins) -> None:
    fresh = Solver(solver.lattice, buckets=buckets)
    assert _structure(solver.graph) == _structure(fresh.graph)
    assert _answers(solution) == _answers(fresh.resolve(pins))


def _moved(before, after) -> set:
    """The variables whose value differs between two solutions."""
    return {var for var in POOL if before.value_of(var) != after.value_of(var)}


# ---------------------------------------------------------------------------
# edit scripts over constraint buckets

LATTICE = get_lattice("diamond")
SUPPLY = VarSupply()
POOL = [SUPPLY.fresh(f"v{i}") for i in range(7)]
LABELS = ["bot", "A", "B", "top"]


def _var(index: int) -> VarTerm:
    return VarTerm(POOL[index])


#: Constraint shapes: (kind, a, b, c, label index).
_SHAPE = st.tuples(
    st.sampled_from(["flow", "source", "join", "cover", "check", "meet"]),
    st.integers(0, len(POOL) - 1),
    st.integers(0, len(POOL) - 1),
    st.integers(0, len(POOL) - 1),
    st.integers(1, len(LABELS) - 1),
)


class _Units:
    """Named buckets; every constraint carries its unit's name, so no two
    units emit the same constraint (as generated programs guarantee)."""

    def __init__(self) -> None:
        self.buckets = []
        self.made = 0

    def bucket(self, shapes) -> list:
        self.made += 1
        rule = f"unit-{self.made}"
        constraints = []
        for kind, a, b, c, label in shapes:
            constant = ConstTerm(LABELS[label])
            if kind == "flow":
                lhs, rhs = _var(a), _var(b)
            elif kind == "source":
                lhs, rhs = constant, _var(b)
            elif kind == "join":
                lhs, rhs = JoinTerm((_var(a), _var(c))), _var(b)
            elif kind == "cover":
                lhs, rhs = _var(a), JoinTerm((_var(b), constant))
            elif kind == "check":
                lhs, rhs = _var(a), constant
            else:
                lhs, rhs = _var(a), MeetTerm((_var(b), constant))
            constraint = Constraint(lhs, rhs, rule=rule, reason=f"{kind} {len(constraints)}")
            if lhs != rhs and constraint not in constraints:
                constraints.append(constraint)
        return constraints


_EDIT = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 8), st.lists(_SHAPE, max_size=5)),
    st.tuples(st.just("delete"), st.integers(0, 8)),
    st.tuples(st.just("rewrite"), st.integers(0, 8), st.lists(_SHAPE, max_size=5)),
    st.tuples(st.just("pin"), st.integers(0, len(POOL) - 1), st.integers(1, 3)),
    st.tuples(st.just("unpin"), st.integers(0, len(POOL) - 1)),
)


def _run_script(initial, edits) -> None:
    units = _Units()
    buckets = [units.bucket(shapes) for shapes in initial]
    solver = Solver(LATTICE, buckets=buckets)
    solution = solver.solve()
    # A full solve may have moved anything.
    assert solution.moved is None
    pins = {}
    _assert_matches_fresh(solver, solution, buckets, pins)
    for edit in edits:
        kind = edit[0]
        previous = solution
        if kind in ("pin", "unpin"):
            var = POOL[edit[1]]
            label = LABELS[edit[2]] if kind == "pin" else None
            if label is None:
                pins.pop(var, None)
            else:
                pins[var] = label
            solution = solver.resolve({var: label})
        else:
            buckets = list(buckets)
            if kind == "add":
                buckets.insert(min(edit[1], len(buckets)), units.bucket(edit[2]))
            elif buckets and kind == "delete":
                del buckets[edit[1] % len(buckets)]
            elif buckets:
                buckets[edit[1] % len(buckets)] = units.bucket(edit[2])
            solution = solver.rebase(buckets)
        _assert_matches_fresh(solver, solution, buckets, pins)
        # The moved set is exactly what changed value.
        assert solution.moved == _moved(previous, solution)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_SHAPE, max_size=6), max_size=5),
    st.lists(_EDIT, max_size=8),
)
def test_edit_scripts_match_a_fresh_build(initial, edits):
    _run_script(initial, edits)


class TestPatchedStructure:
    def test_split_and_merge_a_cyclic_component(self):
        a, b, c = (_var(i) for i in range(3))
        ring = [Constraint(ConstTerm("A"), a, rule="seed"), Constraint(a, b, rule="ab")]
        back = [Constraint(b, c, rule="bc"), Constraint(c, a, rule="ca")]
        solver = Solver(LATTICE, buckets=[ring, back])
        solver.solve()
        assert solver.graph.cyclic_component_count == 1
        assert solver.graph.largest_component == 3
        # Dropping the back edges splits the ring ...
        split = solver.rebase([ring])
        _assert_matches_fresh(solver, split, [ring], {})
        assert solver.graph.cyclic_component_count == 0
        # ... and a new bucket closing it again merges it.
        merged = solver.rebase([ring, list(back)])
        _assert_matches_fresh(solver, merged, [ring, back], {})
        assert solver.graph.cyclic_component_count == 1
        assert merged.value_of(POOL[2]) == "A"

    def test_an_edge_shared_by_two_units_outlives_one_of_them(self):
        a, b = _var(0), _var(1)
        sink = Constraint(b, ConstTerm("bot"), rule="sink")
        first = [Constraint(ConstTerm("A"), a, rule="seed"), Constraint(a, b, rule="one")]
        second = [Constraint(a, b, rule="two"), sink]
        solver = Solver(LATTICE, buckets=[first, second])
        solution = solver.solve()
        (conflict,) = solution.conflicts
        assert [c.rule for c in conflict.core] == ["one", "two", "seed"]
        # Drop the first unit's share: the edge stays, with one origin.
        rest = [Constraint(ConstTerm("A"), a, rule="seed")]
        solution = solver.rebase([rest, second])
        _assert_matches_fresh(solver, solution, [rest, second], {})
        (edge,) = [e for e in solver.graph.edges if e.target == POOL[1]]
        assert [c.rule for c in edge.constraints] == ["two"]
        assert [c.rule for c in solution.conflicts[0].core] == ["two", "seed"]
        # An earlier unit re-adding it puts its origin first again.
        again = [Constraint(a, b, rule="zero")]
        solution = solver.rebase([again, rest, second])
        _assert_matches_fresh(solver, solution, [again, rest, second], {})
        # Dropping the last share removes the edge and lowers the sink.
        solution = solver.rebase([rest, [sink]])
        _assert_matches_fresh(solver, solution, [rest, [sink]], {})
        assert solution.ok

    def test_reordered_units_fall_back_to_swapping_every_bucket(self):
        a, b = _var(0), _var(1)
        first = [Constraint(ConstTerm("A"), a, rule="x"), Constraint(a, b, rule="x")]
        second = [Constraint(ConstTerm("B"), b, rule="y"), Constraint(b, ConstTerm("A"), rule="y")]
        solver = Solver(LATTICE, buckets=[first, second])
        solver.solve()
        solution = solver.rebase([second, first])
        _assert_matches_fresh(solver, solution, [second, first], {})


# ---------------------------------------------------------------------------
# edit scripts over programs

SHARDS, FIELDS = 2, 4


def _field(index: int) -> str:
    return "sink" if index == FIELDS else f"s{index}"


def _program(seeds, controls) -> str:
    parts = []
    for shard, level in enumerate(seeds):
        fields = [f"    <bit<8>, {level}> seed;"]
        fields.extend(f"    bit<8> s{i};" for i in range(FIELDS))
        fields.append("    <bit<8>, low> sink;")
        parts.append(f"header shard{shard}_t {{\n" + "\n".join(fields) + "\n}\n")
        parts.append(f"struct shard{shard}_headers {{ shard{shard}_t data; }}\n")
    for name, shard, body in controls:
        lines = [
            f"        hdr.data.{_field(dst)} = hdr.data.{'seed' if src < 0 else _field(src)};"
            for dst, src in body
        ]
        parts.append(
            f"control {name}(inout shard{shard}_headers hdr) {{\n    apply {{\n"
            + "\n".join(lines or ["        hdr.data.s0 = 1;"])
            + "\n    }\n}\n"
        )
    return "\n".join(parts)


#: One assignment ``dst = src`` (src -1 is the seed; FIELDS is the sink).
_ASSIGN = st.tuples(st.integers(0, FIELDS), st.integers(-1, FIELDS - 1))
_BODY = st.lists(_ASSIGN, min_size=1, max_size=5)
_PROGRAM_EDIT = st.one_of(
    st.tuples(st.just("add"), st.integers(0, SHARDS - 1), _BODY),
    st.tuples(st.just("delete"), st.integers(0, 5)),
    st.tuples(st.just("rewrite"), st.integers(0, 5), _BODY),
    st.tuples(st.just("flip"), st.integers(0, SHARDS - 1)),
    st.tuples(st.just("pin"), st.integers(0, SHARDS - 1), st.integers(0, FIELDS - 1)),
    st.tuples(st.just("unpin"), st.integers(0, SHARDS - 1), st.integers(0, FIELDS - 1)),
)


def _assert_workspace_matches_fresh(workspace: Workspace) -> None:
    workspace.infer()
    generation = workspace._generation
    assert [c for bucket in generation.buckets for c in bucket] == generation.constraints
    pins = workspace._pins_for(generation)
    _assert_matches_fresh(
        workspace._solver, workspace._solved, generation.buckets, pins
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, SHARDS - 1), _BODY), min_size=1, max_size=3),
    st.lists(_PROGRAM_EDIT, min_size=1, max_size=6),
)
def test_workspace_edit_scripts_match_a_fresh_build(initial, edits):
    seeds = ["low"] * SHARDS
    controls = [(f"C{i}", shard, body) for i, (shard, body) in enumerate(initial)]
    made = len(controls)
    workspace = Workspace()
    assert workspace.open(_program(seeds, controls), filename="<input>")
    _assert_workspace_matches_fresh(workspace)
    for edit in edits:
        kind = edit[0]
        if kind in ("pin", "unpin"):
            hint = f"field shard{edit[1]}_t.s{edit[2]}"
            try:
                workspace.pin(hint, "high" if kind == "pin" else None)
            except WorkspaceError:
                continue  # no control reads or writes that field

        else:
            controls = list(controls)
            if kind == "add":
                controls.append((f"C{made}", edit[1], edit[2]))
                made += 1
            elif kind == "flip":
                seeds = list(seeds)
                seeds[edit[1]] = "high" if seeds[edit[1]] == "low" else "low"
            elif controls and kind == "delete":
                del controls[edit[1] % len(controls)]
            elif controls:
                index = edit[1] % len(controls)
                name, shard, _body = controls[index]
                controls[index] = (name, shard, edit[2])
            assert workspace.edit(_program(seeds, controls))
        _assert_workspace_matches_fresh(workspace)


def test_scc_rings_edited_warm_match_a_fresh_build():
    """A cyclic synthetic program: break a ring, then restore it."""
    source = scc_cycle_program(4, 3)
    broken = source.replace(
        "        hdr.data.c2_n0 = hdr.data.c2_n2;\n", "", 1
    )
    assert broken != source
    workspace = Workspace()
    assert workspace.open(source, filename="<input>")
    _assert_workspace_matches_fresh(workspace)
    workspace.pin("field data_t.c1_n1", "high")
    _assert_workspace_matches_fresh(workspace)
    for revision in (broken, source, broken):
        assert workspace.edit(revision)
        _assert_workspace_matches_fresh(workspace)


# ---------------------------------------------------------------------------
# the premise of per-unit buckets


def _corpus():
    for study in all_case_studies():
        yield study.secure_source
        if study.insecure_source:
            yield study.insecure_source
        yield strip_body_annotations(study.secure_source)
    yield deep_dataflow_program(40, chains=2)
    yield deep_dataflow_program(80, sink_level="low")
    yield scc_cycle_program(25, 3)
    yield wide_table_program(tables=8, actions_per_table=4, keys_per_table=2, secure=False)
    yield chain_pipeline_program([f"L{i}" for i in range(16)], rounds=6)
    yield sharded_dataflow_program(6, depth=15, source_level="A")


def test_bucket_concatenation_equals_a_deduplicating_merge():
    checked = 0
    for source in _corpus():
        program = parse_program(source, "<corpus>")
        for lattice in ("two-point", "diamond", "chain-16"):
            try:
                generation = generate_constraints(program, get_lattice(lattice))
            except Exception:  # pragma: no cover - labels foreign to the lattice
                continue
            merged = ConstraintSet()
            for bucket in generation.buckets:
                for constraint in bucket:
                    merged.add(constraint)
            concatenated = [c for bucket in generation.buckets for c in bucket]
            assert concatenated == merged.as_list() == generation.constraints
            checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# no whole-program work on a one-shard edit


def test_one_shard_edit_patches_only_that_shard():
    shards = 8
    source = sharded_dataflow_program(shards, depth=10, source_level="low")
    seed = "header shard3_t {\n    <bit<8>, low> seed;"
    edited = source.replace(seed, seed.replace("low", "high"))
    workspace = Workspace()
    assert workspace.open(source, filename="<input>")
    workspace.check(infer=True)
    assert workspace.edit(source.replace("s9 = hdr.data.s8", "s9 = hdr.data.s7", 1))
    workspace.check(infer=True)  # a warm rebase of the kept solver
    assert workspace.edit(source)
    workspace.check(infer=True)

    recorder = TraceRecorder()
    with use_recorder(recorder):
        assert workspace.edit(edited)
        workspace.check(infer=True)
    counters = recorder.counters
    assert counters["workspace.units_rewalked"] == 3
    assert counters.get("solver.graphs_built", 0) == 0
    assert (
        counters["solver.rebase.constraints_normalised"]
        == counters["workspace.constraints_regenerated"]
    )
    assert counters["solver.rebase.units_patched"] == 6
    assert counters["solver.rebase.vars_recondensed"] <= counters["solver.rebase.cone_vars"]
    (patch,) = recorder.spans_named("solver.patch")
    assert [span.name for span in recorder.children_of(patch)] == [
        "solver.normalise",
        "solver.condense",
    ]
    assert not recorder.spans_named("solver.build")
