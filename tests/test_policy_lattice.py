"""The policy lattice: structure, spellings, registry, and int codec."""

import pytest

from repro.lattice import get_lattice
from repro.lattice.base import LatticeError
from repro.lattice.policy import (
    PolicyCodec,
    PolicyLabel,
    PolicyLattice,
    mini_policy_lattice,
    policy_lattice,
)

MINI = mini_policy_lattice()


# ---------------------------------------------------------------------------
# structure


def test_mini_carrier_and_bounds():
    labels = list(MINI.labels())
    assert len(labels) == 2**4 * 3 == 48
    assert MINI.bottom == PolicyLabel(frozenset(), frozenset(), "t0")
    assert MINI.top == PolicyLabel(
        frozenset({"analytics", "ads"}), frozenset({"store", "partner"}), "t2"
    )
    assert MINI.principal_count == 4
    assert all(label in MINI for label in labels)


def test_leq_is_pointwise():
    low = MINI.label(["analytics"], ["store"], "t0")
    high = MINI.label(["analytics", "ads"], ["store"], "t1")
    assert MINI.leq(low, high)
    assert not MINI.leq(high, low)
    # Incomparable: more purposes vs longer retention.
    other = MINI.label(["ads"], ["store"], "t2")
    assert not MINI.leq(high, other) and not MINI.leq(other, high)


def test_height_bound_is_structural():
    assert MINI.height_bound() == 2 + 2 + 3
    big = policy_lattice(120, 96, 8)
    assert big.height_bound() == 120 + 96 + 8


def test_big_lattice_refuses_enumeration():
    big = policy_lattice(120, 96, 8)
    with pytest.raises(LatticeError, match="refusing to enumerate"):
        big.labels()
    # ...but every structural operation still works.
    label = big.label(["p0", "p7"], ["r3"], "t5")
    assert big.leq(label, big.top)
    assert big.join(label, big.bottom) == label


def test_name_validation():
    with pytest.raises(LatticeError, match="no underscores"):
        PolicyLattice(["a_b"], ["r"], ["t0"])
    with pytest.raises(LatticeError, match="distinct"):
        PolicyLattice(["a", "a"], ["r"], ["t0"])
    with pytest.raises(LatticeError, match="must not overlap"):
        PolicyLattice(["a"], ["a"], ["t0"])
    with pytest.raises(LatticeError, match="not a member"):
        MINI.label(["nonexistent"])


# ---------------------------------------------------------------------------
# spellings


def test_canonical_spelling_is_identifier_safe():
    for label in MINI.labels():
        text = str(label)
        assert text.isidentifier(), text
        assert MINI.parse_label(text) == label


def test_pretty_spelling_roundtrips():
    for label in MINI.labels():
        assert MINI.parse_label(MINI.format_label(label)) == label


def test_parse_aliases_and_whitespace():
    assert MINI.parse_label("bot") == MINI.bottom
    assert MINI.parse_label("low") == MINI.bottom
    assert MINI.parse_label("top") == MINI.top
    assert MINI.parse_label("high") == MINI.top
    spaced = MINI.parse_label("{analytics, ads} |{partner} | t1")
    assert spaced == MINI.label(["analytics", "ads"], ["partner"], "t1")


def test_parse_rejects_garbage():
    with pytest.raises(LatticeError):
        MINI.parse_label("nonsense")
    with pytest.raises(LatticeError):
        MINI.parse_label("{a}|{b}")  # two components, not three
    with pytest.raises(LatticeError):
        MINI.parse_label("{unknown}|{store}|t0")


# ---------------------------------------------------------------------------
# registry


def test_registered_and_parametric_names():
    assert get_lattice("policy-mini").name == "policy-mini"
    big = get_lattice("policy-120-96-8")
    assert isinstance(big, PolicyLattice)
    assert big.principal_count == 216
    with pytest.raises(LatticeError):
        get_lattice("policy-0-1-1")
    with pytest.raises(LatticeError):
        get_lattice("policy-1-2")


# ---------------------------------------------------------------------------
# int codec


def test_codec_contract_exhaustive_on_mini():
    codec = PolicyCodec(MINI)
    labels = list(MINI.labels())
    assert codec.encode(MINI.bottom) == 0
    # Injective: distinct labels, distinct ints.
    assert len({codec.encode(label) for label in labels}) == len(labels)
    for a in labels:
        ea = codec.encode(a)
        for b in labels:
            eb = codec.encode(b)
            assert MINI.leq(a, b) == (ea | eb == eb)
            assert codec.encode(MINI.join(a, b)) == ea | eb
            assert codec.encode(MINI.meet(a, b)) == ea & eb


def test_codec_scales_without_enumeration():
    big = policy_lattice(120, 96, 8)
    codec = PolicyCodec(big)
    assert codec.width == 120 + 96 + 7
    label = big.label(["p3", "p119"], ["r0"], "t7")
    assert codec.encode(label) == (1 << 3) | (1 << 119) | (1 << 120) | (
        ((1 << 7) - 1) << 216
    )
    assert codec.encode(big.bottom) == 0
    assert codec.encode(big.top) == (1 << codec.width) - 1


def test_codec_rejects_foreign_labels():
    codec = PolicyCodec(MINI)
    for foreign in (
        PolicyLabel(frozenset({"zzz"}), frozenset(), "t0"),
        PolicyLabel(frozenset(), frozenset({"zzz"}), "t0"),
        PolicyLabel(frozenset(), frozenset(), "t9"),
        frozenset({"analytics"}),
    ):
        with pytest.raises(LatticeError):
            codec.encode(foreign)
