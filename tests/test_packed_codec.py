"""Round-trip and algebra tests for the packed label codecs.

Packed policy decisions are only as correct as the embedding of labels
into machine integers, so this suite pins the codec contract directly:
for every lattice with a codec, ``decode(encode(x)) == x`` and the object
lattice's ``leq`` / ``join`` / ``meet`` agree with subset-test / ``|`` /
``&`` on the encoded bits.  Powersets are exercised up to 64 principals
(sampled -- the carrier is 2^64), products and chains exhaustively, and
a non-distributive lattice (M3) is pinned to *reject* encoding so callers
fall back to the object lattice instead of computing wrong joins.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.inference import CodecError, codec_for
from repro.lattice.chain import ChainLattice
from repro.lattice.finite import FiniteLattice
from repro.lattice.powerset import PowersetLattice
from repro.lattice.product import ProductLattice
from repro.lattice.registry import available_lattices, get_lattice

LATTICE_NAMES = sorted(set(available_lattices()) | {"chain-3", "chain-5"})


def _m3():
    """The smallest non-distributive lattice: three incomparable atoms."""
    return FiniteLattice(
        ["bot", "a", "b", "c", "top"],
        [
            ("bot", "a"),
            ("bot", "b"),
            ("bot", "c"),
            ("a", "top"),
            ("b", "top"),
            ("c", "top"),
        ],
        name="m3",
    )


def _assert_codec_contract(lattice, codec, labels):
    """The full LabelCodec contract over the given label sample."""
    assert codec.encode(lattice.bottom) == 0
    for a in labels:
        bits = codec.encode(a)
        assert lattice.equal(codec.decode(bits), a), f"round-trip broke on {a!r}"
    for a in labels:
        for b in labels:
            ea, eb = codec.encode(a), codec.encode(b)
            assert lattice.leq(a, b) == (ea | eb == eb)
            assert lattice.equal(codec.decode(ea | eb), lattice.join(a, b))
            assert lattice.equal(codec.decode(ea & eb), lattice.meet(a, b))


# ---------------------------------------------------------------------------
# exhaustive checks on every registered (small) lattice


@pytest.mark.parametrize("name", LATTICE_NAMES)
def test_registered_lattices_satisfy_codec_contract(name):
    lattice = get_lattice(name)
    codec = codec_for(lattice)
    assert codec is not None, f"{name} should be encodable"
    _assert_codec_contract(lattice, codec, list(lattice.labels()))


# ---------------------------------------------------------------------------
# powersets up to 64 principals (sampled: the carrier is astronomically big)


@settings(max_examples=40, deadline=None)
@given(
    n_principals=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_powerset_codec_up_to_64_principals(n_principals, seed):
    lattice = PowersetLattice([f"p{i}" for i in range(n_principals)])
    codec = codec_for(lattice)
    assert codec is not None
    assert codec.width == n_principals
    rng = random.Random(seed)
    principals = [f"p{i}" for i in range(n_principals)]
    sample = [lattice.bottom, lattice.top] + [
        frozenset(rng.sample(principals, rng.randrange(0, n_principals + 1)))
        for _ in range(6)
    ]
    _assert_codec_contract(lattice, codec, sample)


def test_powerset_bits_follow_declaration_order():
    """Bit ``i`` is exactly the ``i``-th declared principal -- the property
    that makes the encoding PYTHONHASHSEED-independent."""
    lattice = PowersetLattice(["alice", "bob", "carol"])
    codec = codec_for(lattice)
    assert codec.encode(frozenset({"alice"})) == 0b001
    assert codec.encode(frozenset({"bob"})) == 0b010
    assert codec.encode(frozenset({"carol"})) == 0b100
    assert codec.encode(frozenset({"alice", "carol"})) == 0b101


# ---------------------------------------------------------------------------
# chains and products


@pytest.mark.parametrize("height", [2, 3, 5, 9])
def test_chain_codec_is_rank_unary(height):
    lattice = ChainLattice.of_height(height)
    codec = codec_for(lattice)
    assert codec is not None
    _assert_codec_contract(lattice, codec, list(lattice.labels()))
    for rank, label in enumerate(lattice.labels()):
        assert codec.encode(label) == (1 << rank) - 1


def test_product_codec_concatenates_components():
    lattice = ProductLattice(get_lattice("two-point"), ChainLattice.of_height(3))
    codec = codec_for(lattice)
    assert codec is not None
    _assert_codec_contract(lattice, codec, list(lattice.labels()))


def test_nested_product_codec():
    inner = ProductLattice(get_lattice("two-point"), get_lattice("diamond"))
    lattice = ProductLattice(inner, PowersetLattice(["x", "y"]))
    codec = codec_for(lattice)
    assert codec is not None
    _assert_codec_contract(lattice, codec, list(lattice.labels()))


def test_codec_rejects_foreign_bits():
    """Decoding bits outside the image raises instead of inventing labels."""
    codec = codec_for(ChainLattice.of_height(3))
    with pytest.raises(CodecError):
        codec.decode(0b101)  # not of the form 2^i - 1


# ---------------------------------------------------------------------------
# unencodable lattices have no codec


def test_non_distributive_lattice_has_no_codec():
    assert codec_for(_m3()) is None
