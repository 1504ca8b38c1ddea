"""Tests for the synthetic program generators."""

import pytest

from repro.frontend.parser import parse_program
from repro.ifc import check_ifc
from repro.inference import generate_constraints, infer_labels, solve
from repro.lattice import ChainLattice
from repro.lattice.two_point import TwoPointLattice
from repro.synth import (
    chain_pipeline_program,
    deep_dataflow_program,
    random_straightline_program,
    scc_cycle_program,
    wide_table_program,
)
from repro.syntax.visitor import walk
from repro.tool.pipeline import check_source
from repro.typechecker import check_core_types


class TestStraightline:
    def test_deterministic_for_a_seed(self):
        assert random_straightline_program(5) == random_straightline_program(5)

    def test_distinct_across_seeds(self):
        assert random_straightline_program(1) != random_straightline_program(2)

    def test_always_parses_and_core_typechecks(self):
        for seed in range(40):
            program = parse_program(random_straightline_program(seed))
            assert check_core_types(program).ok

    def test_statement_count_scales_size(self):
        small = random_straightline_program(0, statements=2)
        large = random_straightline_program(0, statements=30)
        assert len(large) > len(small)
        small_nodes = sum(1 for _ in walk(parse_program(small)))
        large_nodes = sum(1 for _ in walk(parse_program(large)))
        assert large_nodes > small_nodes

    def test_custom_levels(self):
        source = random_straightline_program(3, levels=("low", "mid", "high"))
        assert "f_mid" in source
        lattice = ChainLattice(["low", "mid", "high"])
        check_ifc(parse_program(source), lattice)


class TestChainPipeline:
    def test_accepted_for_matching_chain(self):
        lattice = ChainLattice.of_height(4)
        program = parse_program(chain_pipeline_program(lattice.levels))
        assert check_ifc(program, lattice).ok

    def test_rejected_when_levels_reversed(self):
        lattice = ChainLattice.of_height(4)
        program = parse_program(chain_pipeline_program(tuple(reversed(lattice.levels))))
        assert not check_ifc(program, lattice).ok

    @pytest.mark.parametrize("height", [2, 4, 8, 16, 32])
    def test_chain_has_one_label_per_level(self, height):
        assert len(list(ChainLattice.of_height(height).labels())) == height

    @pytest.mark.parametrize("height", [2, 4, 8, 16, 32])
    def test_accepted_under_taller_chains(self, height):
        lattice = ChainLattice.of_height(height)
        program = parse_program(chain_pipeline_program(lattice.levels, rounds=4))
        assert check_ifc(program, lattice).ok

    def test_rounds_scale_size(self):
        levels = ChainLattice.of_height(3).levels
        assert len(chain_pipeline_program(levels, rounds=5)) > len(
            chain_pipeline_program(levels, rounds=1)
        )


class TestDeepDataflow:
    def test_parses_and_core_typechecks(self):
        program = parse_program(deep_dataflow_program(12, chains=2))
        assert check_core_types(program).ok

    def test_constraint_count_scales_with_depth(self):
        lattice = TwoPointLattice()

        def count(depth):
            generation = generate_constraints(
                parse_program(deep_dataflow_program(depth)), lattice
            )
            return len(generation.constraints)

        assert count(40) == 40  # one edge per assignment
        assert count(80) == 80

    def test_inference_propagates_source_to_tail(self):
        result = infer_labels(parse_program(deep_dataflow_program(10)))
        assert result.ok
        labels = result.assignment_by_hint()
        tail = next(label for hint, label in labels.items() if "c0_s9" in hint)
        assert tail == "high"

    def test_graph_is_one_acyclic_path_per_chain(self):
        lattice = TwoPointLattice()
        generation = generate_constraints(
            parse_program(deep_dataflow_program(15, chains=3)), lattice
        )
        solution = solve(lattice, generation.constraints)
        assert solution.stats.cyclic_scc_count == 0
        assert solution.stats.max_passes == 1

    def test_sink_level_produces_a_conflict(self):
        result = infer_labels(
            parse_program(deep_dataflow_program(6, sink_level="low"))
        )
        assert not result.ok

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            deep_dataflow_program(0)
        with pytest.raises(ValueError):
            deep_dataflow_program(3, chains=0)


class TestSccCycles:
    def test_parses_and_core_typechecks(self):
        program = parse_program(scc_cycle_program(4, 3))
        assert check_core_types(program).ok

    def test_every_ring_is_one_cyclic_component(self):
        lattice = TwoPointLattice()
        generation = generate_constraints(
            parse_program(scc_cycle_program(5, 4)), lattice
        )
        solution = solve(lattice, generation.constraints)
        assert solution.ok
        assert solution.stats.cyclic_scc_count == 5
        assert solution.stats.largest_scc == 4

    def test_source_reaches_every_ring(self):
        result = infer_labels(parse_program(scc_cycle_program(3, 3)))
        assert result.ok
        labels = result.assignment_by_hint()
        ring_labels = [v for k, v in labels.items() if "c2_n" in k]
        assert ring_labels and all(label == "high" for label in ring_labels)

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            scc_cycle_program(0)
        with pytest.raises(ValueError):
            scc_cycle_program(2, 1)


class TestWideTables:
    def test_table_and_action_counts(self):
        source = wide_table_program(tables=5, actions_per_table=3)
        assert source.count("table tbl_") == 5
        assert source.count("action act_") == 15

    def test_secure_accepted_insecure_rejected(self):
        assert check_ifc(parse_program(wide_table_program(secure=True))).ok
        insecure = check_ifc(parse_program(wide_table_program(secure=False)))
        assert not insecure.ok

    @pytest.mark.parametrize("tables", [1, 2, 4, 8, 16])
    def test_accepted_by_the_pipeline_at_every_width(self, tables):
        source = wide_table_program(tables=tables, actions_per_table=4, keys_per_table=2)
        assert check_source(source).ok

    def test_violation_count_matches_key_action_pairs(self):
        result = check_ifc(
            parse_program(
                wide_table_program(tables=2, actions_per_table=3, keys_per_table=2, secure=False)
            )
        )
        # every (key, action) pair of every table is reported once
        assert len(result.diagnostics) == 2 * 3 * 2

    def test_seed_changes_constants_only(self):
        a = wide_table_program(seed=1)
        b = wide_table_program(seed=2)
        assert a != b
        assert a.count("table") == b.count("table")
