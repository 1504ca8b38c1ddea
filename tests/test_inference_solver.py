"""Unit and property tests for the inference constraint solver.

The headline property: the solver computes the *least* solution.  For any
constraint system and any other satisfying assignment, the solved
assignment is point-wise ``⊑`` it, across every lattice the registry knows
(plus taller chains).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ifc.errors import ViolationKind
from repro.frontend.parser import parse_program
from repro.inference import (
    Constraint,
    ConstTerm,
    JoinTerm,
    MeetTerm,
    VarSupply,
    VarTerm,
    evaluate,
    generate_constraints,
    join_terms,
    meet_terms,
    solve,
)
from repro.lattice.chain import ChainLattice
from repro.lattice.powerset import PowersetLattice
from repro.lattice.product import ProductLattice
from repro.lattice.registry import available_lattices, get_lattice
from repro.synth import mega_constraint_system, random_straightline_program
from solver_oracle import solve_worklist

#: Every registered lattice, plus chains tall enough to exercise joins that
#: are neither ⊥ nor ⊤.
LATTICE_NAMES = sorted(set(available_lattices()) | {"chain-3", "chain-5"})


def _lattices():
    return [get_lattice(name) for name in LATTICE_NAMES]


# ---------------------------------------------------------------------------
# term simplification


class TestTerms:
    @pytest.mark.parametrize("lattice", _lattices(), ids=LATTICE_NAMES)
    def test_join_of_constants_folds(self, lattice):
        labels = list(lattice.labels())
        for a in labels:
            for b in labels:
                term = join_terms(lattice, [ConstTerm(a), ConstTerm(b)])
                assert term == ConstTerm(lattice.join(a, b))

    @pytest.mark.parametrize("lattice", _lattices(), ids=LATTICE_NAMES)
    def test_meet_of_constants_folds(self, lattice):
        labels = list(lattice.labels())
        for a in labels:
            for b in labels:
                term = meet_terms(lattice, [ConstTerm(a), ConstTerm(b)])
                assert term == ConstTerm(lattice.meet(a, b))

    def test_join_drops_bottom_and_flattens(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        x, y = VarTerm(supply.fresh("x")), VarTerm(supply.fresh("y"))
        inner = join_terms(lattice, [x, ConstTerm(lattice.bottom)])
        assert inner == x
        nested = join_terms(lattice, [JoinTerm((x, y)), x])
        assert nested == JoinTerm((x, y))

    def test_join_saturates_at_top(self):
        lattice = get_lattice("two-point")
        x = VarTerm(VarSupply().fresh("x"))
        assert join_terms(lattice, [x, ConstTerm(lattice.top)]) == ConstTerm(lattice.top)

    def test_meet_collapses_at_bottom(self):
        lattice = get_lattice("two-point")
        x = VarTerm(VarSupply().fresh("x"))
        assert meet_terms(lattice, [x, ConstTerm(lattice.bottom)]) == ConstTerm(
            lattice.bottom
        )

    def test_empty_join_and_meet_are_the_bounds(self):
        lattice = get_lattice("diamond")
        assert join_terms(lattice, []) == ConstTerm(lattice.bottom)
        assert meet_terms(lattice, []) == ConstTerm(lattice.top)


# ---------------------------------------------------------------------------
# direct solver behaviour


class TestSolve:
    def test_propagates_along_chain(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b, c = (supply.fresh(h) for h in "abc")
        constraints = [
            Constraint(ConstTerm("high"), VarTerm(a)),
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(VarTerm(b), VarTerm(c)),
        ]
        solution = solve(lattice, constraints)
        assert solution.ok
        assert solution.value_of(a) == "high"
        assert solution.value_of(c) == "high"

    def test_unconstrained_variables_stay_bottom(self):
        lattice = get_lattice("diamond")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [Constraint(VarTerm(a), VarTerm(b))]
        solution = solve(lattice, constraints)
        assert solution.value_of(a) == lattice.bottom
        assert solution.value_of(b) == lattice.bottom

    def test_meet_rhs_decomposes(self):
        # a ⊑ b ⊓ c forces both b and c above a.
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b, c = (supply.fresh(h) for h in "abc")
        constraints = [
            Constraint(ConstTerm("high"), VarTerm(a)),
            Constraint(VarTerm(a), MeetTerm((VarTerm(b), VarTerm(c)))),
        ]
        solution = solve(lattice, constraints)
        assert solution.ok
        assert solution.value_of(b) == "high"
        assert solution.value_of(c) == "high"

    def test_conflict_reports_core(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        source = Constraint(
            ConstTerm("high"), VarTerm(a), rule="T-VarInit"
        )
        middle = Constraint(VarTerm(a), VarTerm(b), rule="T-Assign")
        sink = Constraint(
            VarTerm(b),
            ConstTerm("low"),
            rule="T-Assign",
            kind=ViolationKind.EXPLICIT_FLOW,
        )
        solution = solve(lattice, [source, middle, sink])
        assert not solution.ok
        (conflict,) = solution.conflicts
        assert conflict.constraint is sink
        assert conflict.observed == "high"
        assert conflict.required == "low"
        assert source in conflict.core
        assert middle in conflict.core

    def test_conflict_diagnostic_carries_kind_and_rule(self):
        lattice = get_lattice("two-point")
        bad = Constraint(
            ConstTerm("high"),
            ConstTerm("low"),
            rule="T-Assign",
            kind=ViolationKind.IMPLICIT_FLOW,
            reason="guard leaks",
        )
        solution = solve(lattice, [bad])
        (conflict,) = solution.conflicts
        diag = conflict.as_diagnostic(lattice)
        assert diag.kind is ViolationKind.IMPLICIT_FLOW
        assert diag.rule == "T-Assign"
        assert "guard leaks" in diag.message

    def test_join_lhs_counts_all_parts(self):
        lattice = get_lattice("diamond")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [
            Constraint(ConstTerm("A"), VarTerm(a)),
            Constraint(JoinTerm((VarTerm(a), ConstTerm("B"))), VarTerm(b)),
        ]
        solution = solve(lattice, constraints)
        assert solution.value_of(b) == "top"


# ---------------------------------------------------------------------------
# unsat cores (regression: deque-based backward slice, deduplicated edges)


class TestUnsatCore:
    def test_core_is_minimal_and_source_ordered_on_diamond(self):
        """The core lists exactly the guilty chain, check-to-source, and
        skips edges that kept their variable within the violated bound."""
        lattice = get_lattice("diamond")
        supply = VarSupply()
        a, b, c = supply.fresh("a"), supply.fresh("b"), supply.fresh("c")
        d = supply.fresh("d")
        source = Constraint(ConstTerm("top"), VarTerm(a), rule="T-VarInit")
        mid_ab = Constraint(VarTerm(a), VarTerm(b), rule="T-Assign")
        mid_bc = Constraint(VarTerm(b), VarTerm(c), rule="T-Assign")
        covered = Constraint(ConstTerm("bot"), VarTerm(c), rule="T-Lit")
        unrelated = Constraint(ConstTerm("B"), VarTerm(d), rule="T-VarInit")
        sink = Constraint(
            VarTerm(c),
            ConstTerm("bot"),
            rule="T-Assign",
            kind=ViolationKind.EXPLICIT_FLOW,
        )
        solution = solve(
            lattice, [source, mid_ab, mid_bc, covered, unrelated, sink]
        )
        (conflict,) = solution.conflicts
        # Minimal: neither the ⊥-valued edge into c nor the unrelated d
        # edge appears; source-ordered: conflicting check's edge first,
        # original source last.
        assert conflict.core == (mid_bc, mid_ab, source)

    def test_core_keeps_provenance_of_deduplicated_edges(self):
        """Repeated use sites collapse to one edge but every originating
        constraint stays available to the conflict explanation."""
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        source = Constraint(ConstTerm("high"), VarTerm(a), rule="T-VarInit")
        first_use = Constraint(VarTerm(a), VarTerm(b), rule="T-Assign")
        second_use = Constraint(VarTerm(a), VarTerm(b), rule="T-TblDecl")
        sink = Constraint(VarTerm(b), ConstTerm("low"), rule="T-Assign")
        solution = solve(lattice, [source, first_use, second_use, sink])
        assert solution.propagation_count == 2  # deduped: high→a, a→b
        (conflict,) = solution.conflicts
        assert first_use in conflict.core
        assert second_use in conflict.core
        assert source in conflict.core

    def test_core_terminates_on_cycles(self):
        lattice = get_lattice("two-point")
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [
            Constraint(ConstTerm("high"), VarTerm(a)),
            Constraint(VarTerm(a), VarTerm(b)),
            Constraint(VarTerm(b), VarTerm(a)),
            Constraint(VarTerm(b), ConstTerm("low")),
        ]
        solution = solve(lattice, constraints)
        (conflict,) = solution.conflicts
        assert len(conflict.core) == len(set(conflict.core))


# ---------------------------------------------------------------------------
# height bounds (regression: no carrier enumeration for powersets/products)


class TestHeightBound:
    def test_powerset_bound_is_principal_count_plus_one(self):
        lattice = PowersetLattice([f"p{i}" for i in range(40)])
        # The seed computed max(2, len(list(labels()))): 2^40 labels.
        assert lattice.height_bound() == 41

    def test_product_bound_adds_component_heights(self):
        lattice = ProductLattice(
            PowersetLattice([f"a{i}" for i in range(20)]),
            PowersetLattice([f"b{i}" for i in range(20)]),
        )
        assert lattice.height_bound() == 41

    def test_chain_bound_is_exact(self):
        assert ChainLattice.of_height(7).height_bound() == 7

    def test_small_lattices_fall_back_to_enumeration(self):
        assert get_lattice("two-point").height_bound() == 2
        assert get_lattice("diamond").height_bound() == 4

    def test_solve_over_large_powerset_is_fast(self):
        """Solving over powerset-48 must not materialise 2^48 labels."""
        lattice = PowersetLattice([f"p{i}" for i in range(48)])
        supply = VarSupply()
        a, b = supply.fresh("a"), supply.fresh("b")
        constraints = [
            Constraint(ConstTerm(frozenset({"p0", "p1"})), VarTerm(a)),
            Constraint(VarTerm(a), VarTerm(b)),
        ]
        solution = solve(lattice, constraints)
        assert solution.value_of(b) == frozenset({"p0", "p1"})


# ---------------------------------------------------------------------------
# the least-solution property


def _constraint_systems(draw, lattice, n_vars):
    """A random system of propagation constraints over ``n_vars`` variables."""
    supply = VarSupply()
    variables = [supply.fresh(f"v{i}") for i in range(n_vars)]
    labels = list(lattice.labels())

    def atom():
        if draw(st.booleans()):
            return VarTerm(draw(st.sampled_from(variables)))
        return ConstTerm(draw(st.sampled_from(labels)))

    constraints = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        lhs_atoms = [atom() for _ in range(draw(st.integers(min_value=1, max_value=3)))]
        lhs = join_terms(lattice, lhs_atoms)
        target = draw(st.sampled_from(variables))
        constraints.append(Constraint(lhs, VarTerm(target)))
    return variables, constraints


def _satisfies(lattice, assignment, constraints):
    return all(
        lattice.leq(
            evaluate(c.lhs, lattice, assignment), evaluate(c.rhs, lattice, assignment)
        )
        for c in constraints
    )


def _close(lattice, assignment, constraints):
    """Grow ``assignment`` until it satisfies ``constraints`` (always possible
    by pushing joins upward; terminates because the lattice is finite)."""
    closed = dict(assignment)
    changed = True
    while changed:
        changed = False
        for constraint in constraints:
            value = evaluate(constraint.lhs, lattice, closed)
            target = constraint.rhs.var  # type: ignore[union-attr]
            if not lattice.leq(value, closed[target]):
                closed[target] = lattice.join(closed[target], value)
                changed = True
    return closed


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_solver_computes_a_solution(data, name):
    """The solved assignment satisfies every propagation constraint."""
    lattice = get_lattice(name)
    _, constraints = _constraint_systems(data.draw, lattice, n_vars=4)
    solution = solve(lattice, constraints)
    assert solution.ok
    assert _satisfies(lattice, dict(solution.assignment), constraints)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_solver_computes_the_least_solution(data, name):
    """solution ⊑ any other satisfying assignment, point-wise.

    Other satisfying assignments are produced by seeding every variable with
    an arbitrary label and closing upward; the closure of *any* seed is
    satisfying, so the least solution must sit below all of them.
    """
    lattice = get_lattice(name)
    variables, constraints = _constraint_systems(data.draw, lattice, n_vars=4)
    solution = solve(lattice, constraints)

    labels = list(lattice.labels())
    seed = {
        var: data.draw(st.sampled_from(labels), label=f"seed[{var.uid}]")
        for var in variables
    }
    other = _close(lattice, seed, constraints)
    assert _satisfies(lattice, other, constraints)
    for var in variables:
        assert lattice.leq(solution.value_of(var), other[var]), (
            f"solved {solution.value_of(var)!r} for {var} is not below the "
            f"alternative satisfying assignment's {other[var]!r}"
        )


# ---------------------------------------------------------------------------
# SCC-scheduled solver vs the reference worklist solver


#: A maximal chain of level names inside each lattice, usable both as field
#: identifiers and as annotation spellings in synthesised programs.
_PROGRAM_LEVELS = {
    "two-point": ["low", "high"],
    "diamond": ["bot", "A", "top"],
    # A maximal chain through the policy lattice: add one purpose, one
    # recipient, one retention rank at a time (canonical spellings are
    # identifier-safe by construction).
    "policy-mini": [
        "P__R__t0",
        "Pads__R__t0",
        "Pads_analytics__R__t0",
        "Pads_analytics__Rpartner__t0",
        "Pads_analytics__Rpartner_store__t0",
        "Pads_analytics__Rpartner_store__t1",
        "Pads_analytics__Rpartner_store__t2",
    ],
}


def _program_levels(lattice):
    if lattice.name in _PROGRAM_LEVELS:
        return _PROGRAM_LEVELS[lattice.name]
    if isinstance(lattice, ChainLattice):
        return list(lattice.levels)
    raise AssertionError(f"no program levels defined for {lattice.name!r}")


def _unannotate_fields(source: str, levels, keep) -> str:
    """Strip the header annotation of every level not in ``keep``, turning
    those fields into inference variables."""
    for level in levels:
        if level not in keep:
            source = source.replace(
                f"<bit<8>, {level}> f_{level};", f"bit<8> f_{level};"
            )
    return source


def _conflict_key(lattice, conflict):
    return (
        conflict.constraint,
        lattice.format_label(conflict.observed),
        lattice.format_label(conflict.required),
        conflict.core,
    )


def _assert_solvers_agree(lattice, constraints):
    scheduled = solve(lattice, constraints)
    reference = solve_worklist(lattice, constraints)
    all_vars = set(scheduled.assignment) | set(reference.assignment)
    for var in all_vars:
        assert lattice.equal(
            scheduled.value_of(var), reference.value_of(var)
        ), f"solvers disagree on {var}"
    scheduled_conflicts = sorted(
        (_conflict_key(lattice, c) for c in scheduled.conflicts), key=repr
    )
    reference_conflicts = sorted(
        (_conflict_key(lattice, c) for c in reference.conflicts), key=repr
    )
    assert scheduled_conflicts == reference_conflicts
    return scheduled


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_scc_solver_matches_worklist_on_random_systems(data, name):
    """Identical least solutions on random propagation-constraint systems."""
    lattice = get_lattice(name)
    _, constraints = _constraint_systems(data.draw, lattice, n_vars=4)
    _assert_solvers_agree(lattice, constraints)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    name=st.sampled_from(LATTICE_NAMES),
    data=st.data(),
)
def test_scc_solver_matches_worklist_on_synth_programs(seed, name, data):
    """Identical least solutions *and* conflict sets on partially annotated
    random straightline programs, across every registered lattice.

    A random subset of the header fields loses its annotation (becoming
    label variables); the remaining annotated fields act as fixed sources
    and sinks, so both satisfiable and conflicting systems are generated.
    """
    lattice = get_lattice(name)
    levels = _program_levels(lattice)
    source = random_straightline_program(seed, statements=6, levels=levels)
    keep = {
        level for level in levels if data.draw(st.booleans(), label=level)
    }
    program = parse_program(_unannotate_fields(source, levels, keep))
    generation = generate_constraints(program, lattice)
    assert not generation.errors
    _assert_solvers_agree(lattice, generation.constraints)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_checks_do_not_disturb_the_assignment(data, name):
    """Upper-bound (check) constraints never raise the solved labels."""
    lattice = get_lattice(name)
    variables, constraints = _constraint_systems(data.draw, lattice, n_vars=3)
    baseline = solve(lattice, constraints)
    labels = list(lattice.labels())
    with_checks = constraints + [
        Constraint(VarTerm(var), ConstTerm(data.draw(st.sampled_from(labels))))
        for var in variables
    ]
    solution = solve(lattice, with_checks)
    for var in variables:
        assert solution.value_of(var) == baseline.value_of(var)


# ---------------------------------------------------------------------------
# more oracle inputs: checks and meets, edge cases, mega-scale systems


def _checked_systems(draw, lattice, n_vars):
    """:func:`_constraint_systems` plus checks (conflicts, cores) and a meet
    on a left side."""
    variables, constraints = _constraint_systems(draw, lattice, n_vars)
    labels = list(lattice.labels())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        constraints.append(
            Constraint(
                VarTerm(draw(st.sampled_from(variables))),
                ConstTerm(draw(st.sampled_from(labels))),
            )
        )
    if draw(st.booleans()):
        constraints.append(
            Constraint(
                MeetTerm((VarTerm(variables[0]), VarTerm(variables[1]))),
                VarTerm(draw(st.sampled_from(variables))),
            )
        )
    return variables, constraints


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(LATTICE_NAMES))
def test_scc_solver_matches_worklist_with_checks_and_meets(data, name):
    lattice = get_lattice(name)
    _, constraints = _checked_systems(data.draw, lattice, n_vars=4)
    _assert_solvers_agree(lattice, constraints)


def test_empty_system():
    solution = _assert_solvers_agree(get_lattice("two-point"), [])
    assert solution.ok
    assert solution.assignment == {}


def test_cyclic_system_converges_identically():
    lattice = get_lattice("diamond")
    supply = VarSupply()
    a, b, c = (supply.fresh(h) for h in "abc")
    constraints = [
        Constraint(ConstTerm("A"), VarTerm(a)),
        Constraint(VarTerm(a), VarTerm(b)),
        Constraint(VarTerm(b), VarTerm(c)),
        Constraint(VarTerm(c), VarTerm(a)),  # genuine SCC
        Constraint(ConstTerm("B"), VarTerm(b)),
    ]
    solution = _assert_solvers_agree(lattice, constraints)
    assert solution.value_of(a) == "top"


def test_join_lhs_with_cover_matches():
    """A join on the left side, and a check that fails with a core."""
    lattice = get_lattice("diamond")
    supply = VarSupply()
    a, b = supply.fresh("a"), supply.fresh("b")
    constraints = [
        Constraint(ConstTerm("A"), VarTerm(a)),
        Constraint(JoinTerm((VarTerm(a), ConstTerm("B"))), VarTerm(b)),
        Constraint(VarTerm(b), ConstTerm("A")),  # fails: top ⋢ A
    ]
    solution = _assert_solvers_agree(lattice, constraints)
    assert not solution.ok
    assert len(solution.conflicts) == 1


@pytest.mark.parametrize("name", ["two-point", "diamond", "chain-5"])
def test_scc_solver_matches_worklist_on_mega_systems(name):
    lattice = get_lattice(name)
    constraints, tails = mega_constraint_system(
        3_000, lattice, seed=7, chains=16, cycle_every=41
    )
    solution = _assert_solvers_agree(lattice, constraints)
    assert any(
        not lattice.equal(solution.value_of(tail), lattice.bottom) for tail in tails
    )
