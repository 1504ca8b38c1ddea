"""Unit tests for the security lattices."""

import pytest

from repro.lattice import (
    ChainLattice,
    DiamondLattice,
    FiniteLattice,
    LatticeError,
    PowersetLattice,
    ProductLattice,
    TwoPointLattice,
    available_lattices,
    get_lattice,
    register_lattice,
)
from repro.lattice.two_point import HIGH, LOW
from repro.lattice.diamond import ALICE, BOB, BOT, TOP


class TestTwoPoint:
    def test_order(self, two_point):
        assert two_point.leq(LOW, HIGH)
        assert not two_point.leq(HIGH, LOW)
        assert two_point.leq(LOW, LOW)
        assert two_point.leq(HIGH, HIGH)

    def test_bounds(self, two_point):
        assert two_point.bottom == LOW
        assert two_point.top == HIGH

    def test_join_meet(self, two_point):
        assert two_point.join(LOW, HIGH) == HIGH
        assert two_point.join(LOW, LOW) == LOW
        assert two_point.meet(LOW, HIGH) == LOW
        assert two_point.meet(HIGH, HIGH) == HIGH

    def test_validate(self, two_point):
        two_point.validate()

    def test_membership(self, two_point):
        assert LOW in two_point
        assert HIGH in two_point
        assert "medium" not in two_point

    def test_parse_label_aliases(self, two_point):
        assert two_point.parse_label("public") == LOW
        assert two_point.parse_label("secret") == HIGH
        assert two_point.parse_label("HIGH") == HIGH
        assert two_point.parse_label("trusted") == LOW
        assert two_point.parse_label("untrusted") == HIGH

    def test_parse_label_unknown(self, two_point):
        with pytest.raises(LatticeError):
            two_point.parse_label("medium")

    def test_require_rejects_foreign_label(self, two_point):
        with pytest.raises(LatticeError):
            two_point.require("A")

    def test_join_all_empty_is_bottom(self, two_point):
        assert two_point.join_all([]) == LOW

    def test_meet_all_empty_is_top(self, two_point):
        assert two_point.meet_all([]) == HIGH


class TestDiamond:
    def test_validate(self, diamond):
        diamond.validate()

    def test_tables_match_a_closed_finite_lattice(self):
        """The class-constant tables against a ``FiniteLattice`` closed
        from the diamond's covering edges."""
        oracle = FiniteLattice(
            [BOT, ALICE, BOB, TOP],
            [(BOT, ALICE), (BOT, BOB), (ALICE, TOP), (BOB, TOP)],
            name="oracle",
        )
        diamond = DiamondLattice()
        assert diamond.name == "diamond"
        assert tuple(diamond.labels()) == tuple(oracle.labels())
        assert (diamond.bottom, diamond.top) == (oracle.bottom, oracle.top)
        assert dict(diamond._leq) == oracle._leq
        assert dict(diamond._join_table) == oracle._join_table
        assert dict(diamond._meet_table) == oracle._meet_table
        # Built once: every diamond shares the same immutable tables.
        assert DiamondLattice()._join_table is diamond._join_table
        with pytest.raises(TypeError):
            diamond._join_table[(BOT, BOT)] = TOP

    def test_incomparable_tenants(self, diamond):
        assert not diamond.leq(ALICE, BOB)
        assert not diamond.leq(BOB, ALICE)
        assert not diamond.comparable(ALICE, BOB)

    def test_bounds(self, diamond):
        assert diamond.bottom == BOT
        assert diamond.top == TOP

    def test_join_of_tenants_is_top(self, diamond):
        assert diamond.join(ALICE, BOB) == TOP

    def test_meet_of_tenants_is_bottom(self, diamond):
        assert diamond.meet(ALICE, BOB) == BOT

    def test_everyone_below_top(self, diamond):
        for label in diamond.labels():
            assert diamond.leq(label, TOP)

    def test_parse_aliases(self, diamond):
        assert diamond.parse_label("alice") == ALICE
        assert diamond.parse_label("Bob") == BOB
        assert diamond.parse_label("bot") == BOT
        assert diamond.parse_label("top") == TOP


class TestChain:
    def test_of_height(self):
        chain = ChainLattice.of_height(5)
        chain.validate()
        assert len(list(chain.labels())) == 5
        assert chain.bottom == "L0"
        assert chain.top == "L4"

    def test_rank_and_order(self):
        chain = ChainLattice(["u", "c", "s", "ts"])
        assert chain.rank("u") == 0
        assert chain.rank("ts") == 3
        assert chain.leq("u", "ts")
        assert not chain.leq("s", "c")

    def test_join_is_max(self):
        chain = ChainLattice.of_height(4)
        assert chain.join("L1", "L3") == "L3"
        assert chain.meet("L1", "L3") == "L1"

    def test_needs_two_levels(self):
        with pytest.raises(LatticeError):
            ChainLattice(["only"])

    def test_duplicate_levels_rejected(self):
        with pytest.raises(LatticeError):
            ChainLattice(["a", "a"])

    @pytest.mark.parametrize("height", range(2, 9))
    def test_rank_order_matches_the_closed_covering_edges(self, height):
        """The structural chain against a ``FiniteLattice`` closed from
        the same covering edges, over every pair of labels."""
        _assert_matches_closed_chain(ChainLattice.of_height(height))

    def test_two_point_is_the_two_level_chain(self):
        two_point = TwoPointLattice()
        assert isinstance(two_point, ChainLattice)
        assert two_point.name == "two-point"
        _assert_matches_closed_chain(two_point)
        assert two_point.parse_label("secret") == "high"
        assert two_point.parse_label("Public") == "low"
        assert two_point.parse_label("top") == "high"


def _assert_matches_closed_chain(chain) -> None:
    levels = list(chain.levels)
    oracle = FiniteLattice(levels, list(zip(levels, levels[1:])), name="oracle")
    assert tuple(chain.labels()) == tuple(oracle.labels())
    assert (chain.bottom, chain.top) == (oracle.bottom, oracle.top)
    for a in levels:
        for b in levels:
            assert chain.leq(a, b) == oracle.leq(a, b)
            assert chain.join(a, b) == oracle.join(a, b)
            assert chain.meet(a, b) == oracle.meet(a, b)
    for operation in (chain.leq, chain.join, chain.meet):
        with pytest.raises(LatticeError):
            operation(levels[0], "absent")
        with pytest.raises(LatticeError):
            operation("absent", levels[0])


class TestProduct:
    def test_pointwise_order(self, two_point):
        product = ProductLattice(two_point, two_point)
        product.validate()
        assert product.leq((LOW, LOW), (HIGH, HIGH))
        assert not product.leq((HIGH, LOW), (LOW, HIGH))
        assert product.join((HIGH, LOW), (LOW, HIGH)) == (HIGH, HIGH)
        assert product.meet((HIGH, LOW), (LOW, HIGH)) == (LOW, LOW)

    def test_bounds(self, two_point, diamond):
        product = ProductLattice(two_point, diamond)
        assert product.bottom == (LOW, BOT)
        assert product.top == (HIGH, TOP)

    def test_parse_and_format(self, two_point):
        product = ProductLattice(two_point, two_point)
        assert product.parse_label("(low, high)") == (LOW, HIGH)
        assert product.format_label((LOW, HIGH)) == "(low, high)"


class TestPowerset:
    def test_inclusion_order(self):
        lattice = PowersetLattice(["a", "b", "c"])
        lattice.validate()
        assert lattice.leq(frozenset(), frozenset({"a"}))
        assert lattice.leq(frozenset({"a"}), frozenset({"a", "b"}))
        assert not lattice.leq(frozenset({"a"}), frozenset({"b"}))

    def test_join_is_union(self):
        lattice = PowersetLattice(["a", "b"])
        assert lattice.join(frozenset({"a"}), frozenset({"b"})) == frozenset({"a", "b"})
        assert lattice.meet(frozenset({"a"}), frozenset({"a", "b"})) == frozenset({"a"})

    def test_bounds(self):
        lattice = PowersetLattice(["a", "b"])
        assert lattice.bottom == frozenset()
        assert lattice.top == frozenset({"a", "b"})

    def test_parse_label(self):
        lattice = PowersetLattice(["carol", "dave"])
        assert lattice.parse_label("{carol}") == frozenset({"carol"})
        assert lattice.parse_label("{carol, dave}") == frozenset({"carol", "dave"})
        assert lattice.parse_label("bot") == frozenset()
        assert lattice.parse_label("top") == frozenset({"carol", "dave"})

    def test_parse_unknown_principal(self):
        lattice = PowersetLattice(["carol", "dave"])
        with pytest.raises(LatticeError):
            lattice.parse_label("{mallory}")

    def test_label_count(self):
        lattice = PowersetLattice(["a", "b", "c"])
        assert len(list(lattice.labels())) == 8

    def test_duplicate_principals_rejected(self):
        with pytest.raises(LatticeError):
            PowersetLattice(["a", "a"])


class TestFiniteLattice:
    def test_rejects_missing_bottom(self):
        with pytest.raises(LatticeError):
            FiniteLattice(["a", "b"], [], name="two-incomparable")

    def test_rejects_label_outside_carrier(self):
        with pytest.raises(LatticeError):
            FiniteLattice(["a"], [("a", "z")])

    def test_from_upsets(self):
        lattice = FiniteLattice.from_upsets({"lo": ["hi"], "hi": []}, name="mini")
        assert lattice.leq("lo", "hi")
        assert lattice.bottom == "lo"
        assert lattice.top == "hi"

    def test_transitive_closure(self):
        lattice = FiniteLattice(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert lattice.leq("a", "c")
        lattice.validate()


class TestRegistry:
    def test_builtin_lattices(self):
        assert "two-point" in available_lattices()
        assert "diamond" in available_lattices()
        assert isinstance(get_lattice("two-point"), TwoPointLattice)
        assert isinstance(get_lattice("diamond"), DiamondLattice)

    def test_chain_by_name(self):
        chain = get_lattice("chain-7")
        assert isinstance(chain, ChainLattice)
        assert len(list(chain.labels())) == 7

    def test_unknown_name(self):
        with pytest.raises(LatticeError):
            get_lattice("moebius")

    def test_register_custom(self):
        register_lattice("custom-for-test", lambda: ChainLattice.of_height(3))
        assert "custom-for-test" in available_lattices()
        assert isinstance(get_lattice("custom-for-test"), ChainLattice)

    @pytest.mark.parametrize(
        "name", sorted({*available_lattices(), "chain-5", "policy-2-2-2"})
    )
    def test_labels_round_trip_through_their_spelling(self, name):
        # A workspace snapshot stores its pins as ``format_label`` text.
        lattice = get_lattice(name)
        for label in lattice.labels():
            assert lattice.parse_label(lattice.format_label(label)) == label
