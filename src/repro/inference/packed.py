"""Bit-packed label codecs: lattice labels as machine ints.

Labels of structured lattices embed into machine integers so the lattice
operations become single int instructions: ``join = |``, ``meet = &``,
``leq(a, b) = (a | b == b)``.  Powersets get one bit per principal, chains
the rank-unary encoding ``L_i ↦ 2^i - 1``, products the concatenation of
their component codecs, policy labels one bit per purpose and recipient
plus a rank-unary retention field, and any other finite lattice the
generic Birkhoff embedding over its join-irreducible elements --
*verified exhaustively* against the object lattice at build time, so a
lattice the encoding cannot represent faithfully (any non-distributive
order) gets no codec instead of one that computes wrong joins.

:class:`repro.policy.engine.PolicyEngine` decides requests through these
codecs (one OR and one compare per ``⊑`` check) and falls back to the
object lattice when :func:`codec_for` returns ``None``.
``tests/test_packed_codec.py`` pins the round-trip and algebra contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.lattice.base import Label, Lattice, LatticeError
from repro.lattice.chain import ChainLattice
from repro.lattice.finite import FiniteLattice
from repro.lattice.policy import PolicyLattice
from repro.lattice.powerset import PowersetLattice
from repro.lattice.product import ProductLattice


class CodecError(LatticeError):
    """The lattice has no faithful bitset encoding (or the label is foreign)."""


# ---------------------------------------------------------------------------
# label codecs


class LabelCodec:
    """An order-embedding of a lattice into int bitsets.

    The contract every codec guarantees (and :class:`TableCodec` verifies
    exhaustively): for all labels ``a``, ``b`` of the lattice,

    * ``decode(encode(a)) == a`` (the embedding is injective and ``decode``
      is its inverse on the image),
    * ``leq(a, b)  ⇔  encode(a) | encode(b) == encode(b)``,
    * ``encode(join(a, b)) == encode(a) | encode(b)``,
    * ``encode(meet(a, b)) == encode(a) & encode(b)``,
    * ``encode(bottom) == 0``.
    """

    #: Number of bits the encoding uses.
    width: int = 0

    def __init__(self, lattice: Lattice) -> None:
        self.lattice = lattice

    def encode(self, label: Label) -> int:
        raise NotImplementedError

    def decode(self, bits: int) -> Label:
        raise NotImplementedError

    def describe(self) -> str:
        return f"{type(self).__name__}({self.lattice.name}, {self.width} bit(s))"


class PowersetCodec(LabelCodec):
    """One bit per principal; join/meet are exactly ``|`` / ``&``."""

    def __init__(self, lattice: PowersetLattice) -> None:
        super().__init__(lattice)
        self._principals: Tuple[str, ...] = tuple(lattice.principals)
        self._bit_of: Dict[str, int] = {
            principal: 1 << index for index, principal in enumerate(self._principals)
        }
        self.width = len(self._principals)

    def encode(self, label: Label) -> int:
        bits = 0
        try:
            for principal in label:  # type: ignore[union-attr]
                bits |= self._bit_of[principal]
        except (TypeError, KeyError) as exc:
            raise CodecError(
                f"label {label!r} is not a subset of {self.lattice.name!r}"
            ) from exc
        return bits

    def decode(self, bits: int) -> Label:
        if bits >> self.width:
            raise CodecError(f"bit pattern {bits:#x} exceeds {self.width} principals")
        return frozenset(
            principal
            for index, principal in enumerate(self._principals)
            if bits >> index & 1
        )


class ChainCodec(LabelCodec):
    """Rank-unary encoding: level ``i`` becomes the ``i`` lowest bits set.

    The images are nested (``2^i - 1 ⊆ 2^j - 1`` iff ``i <= j``), so the
    total order, max-join and min-meet all coincide with the bitset
    operations.
    """

    def __init__(self, lattice: ChainLattice) -> None:
        super().__init__(lattice)
        self._levels: Tuple[str, ...] = tuple(lattice.levels)
        self._rank_of: Dict[Label, int] = {
            level: index for index, level in enumerate(self._levels)
        }
        self.width = len(self._levels) - 1

    def encode(self, label: Label) -> int:
        rank = self._rank_of.get(label)
        if rank is None:
            raise CodecError(f"label {label!r} is not a level of {self.lattice.name!r}")
        return (1 << rank) - 1

    def decode(self, bits: int) -> Label:
        rank = bits.bit_length()
        if bits != (1 << rank) - 1 or rank >= len(self._levels):
            raise CodecError(f"bit pattern {bits:#x} is not a rank of {self.lattice.name!r}")
        return self._levels[rank]


class ProductCodec(LabelCodec):
    """Component codecs concatenated: the left component in the high bits."""

    def __init__(self, lattice: ProductLattice, left: LabelCodec, right: LabelCodec) -> None:
        super().__init__(lattice)
        self._left = left
        self._right = right
        self.width = left.width + right.width

    def encode(self, label: Label) -> int:
        if not isinstance(label, tuple) or len(label) != 2:
            raise CodecError(f"label {label!r} is not a pair of {self.lattice.name!r}")
        return self._left.encode(label[0]) << self._right.width | self._right.encode(
            label[1]
        )

    def decode(self, bits: int) -> Label:
        mask = (1 << self._right.width) - 1
        return (self._left.decode(bits >> self._right.width), self._right.decode(bits & mask))


class PolicyCodec(LabelCodec):
    """Policy labels packed as purpose bits | recipient bits | retention rank.

    Purposes take the lowest bits (declaration order), recipients the next
    block, and the retention chain the highest block in the rank-unary
    spelling (class ``i`` becomes the ``i`` lowest bits of the block).  All
    three components are distributive, so the concatenation satisfies the
    full codec contract by construction — no carrier enumeration, which is
    the point: a 216-principal policy lattice encodes into one 223-bit int.
    """

    def __init__(self, lattice: "PolicyLattice") -> None:
        super().__init__(lattice)
        self._purpose_bit: Dict[str, int] = {
            name: 1 << index for index, name in enumerate(lattice.purposes)
        }
        offset = len(lattice.purposes)
        self._recipient_bit: Dict[str, int] = {
            name: 1 << (offset + index)
            for index, name in enumerate(lattice.recipients)
        }
        self._retention_shift = offset + len(lattice.recipients)
        self._levels: Tuple[str, ...] = tuple(lattice.retention_classes)
        self.width = self._retention_shift + len(self._levels) - 1

    def encode(self, label: Label) -> int:
        try:
            bits = 0
            for purpose in label.purposes:  # type: ignore[union-attr]
                bits |= self._purpose_bit[purpose]
            for recipient in label.recipients:  # type: ignore[union-attr]
                bits |= self._recipient_bit[recipient]
            rank = self._levels.index(label.retention)  # type: ignore[union-attr]
        except (AttributeError, TypeError, KeyError, ValueError) as exc:
            raise CodecError(
                f"label {label!r} is not a member of {self.lattice.name!r}"
            ) from exc
        return bits | ((1 << rank) - 1) << self._retention_shift

    def decode(self, bits: int) -> Label:
        if bits >> self.width:
            raise CodecError(
                f"bit pattern {bits:#x} exceeds {self.width} bits of "
                f"{self.lattice.name!r}"
            )
        retention_bits = bits >> self._retention_shift
        rank = retention_bits.bit_length()
        if retention_bits != (1 << rank) - 1:
            raise CodecError(
                f"bit pattern {bits:#x} has a non-rank retention block for "
                f"{self.lattice.name!r}"
            )
        from repro.lattice.policy import PolicyLabel

        return PolicyLabel(
            frozenset(
                name for name, bit in self._purpose_bit.items() if bits & bit
            ),
            frozenset(
                name for name, bit in self._recipient_bit.items() if bits & bit
            ),
            self._levels[rank],
        )


class TableCodec(LabelCodec):
    """The Birkhoff embedding for any (small) finite lattice.

    Every label maps to the set of join-irreducible elements below it.
    The map is an order embedding for *any* finite lattice and turns
    meets into intersections; joins become unions exactly when the
    lattice is distributive -- which is why construction verifies the
    full contract over the carrier and raises :class:`CodecError` for
    anything it cannot represent faithfully (e.g. the M3 diamond), so
    the caller falls back to the object backend instead of mis-solving.
    """

    #: Refuse to enumerate carriers larger than this (a structured codec
    #: should exist for them instead).
    MAX_CARRIER = 1024

    def __init__(self, lattice: Lattice) -> None:
        super().__init__(lattice)
        members: List[Label] = []
        for label in lattice.labels():
            members.append(label)
            if len(members) > self.MAX_CARRIER:
                raise CodecError(
                    f"lattice {lattice.name!r} has more than {self.MAX_CARRIER} "
                    f"labels; no generic bitset encoding is attempted"
                )
        # A label is join-irreducible when it is not the join of the labels
        # strictly below it (bottom, the empty join, never is).
        irreducibles = [
            label
            for label in members
            if not lattice.equal(
                label,
                lattice.join_all(m for m in members if lattice.lt(m, label)),
            )
        ]
        self.width = len(irreducibles)
        self._encode_table: Dict[Label, int] = {}
        self._decode_table: Dict[int, Label] = {}
        for label in members:
            bits = 0
            for index, irreducible in enumerate(irreducibles):
                if lattice.leq(irreducible, label):
                    bits |= 1 << index
            if bits in self._decode_table:
                raise CodecError(
                    f"lattice {lattice.name!r}: labels {self._decode_table[bits]!r} "
                    f"and {label!r} encode identically; not embeddable"
                )
            self._encode_table[label] = bits
            self._decode_table[bits] = label
        self._verify(members)

    def _verify(self, members: Sequence[Label]) -> None:
        lattice = self.lattice
        encode = self._encode_table
        if encode[lattice.bottom] != 0:
            raise CodecError(f"lattice {lattice.name!r}: bottom does not encode to 0")
        for a in members:
            ea = encode[a]
            for b in members:
                eb = encode[b]
                if lattice.leq(a, b) != (ea | eb == eb):
                    raise CodecError(
                        f"lattice {lattice.name!r}: order of {a!r} ⊑ {b!r} "
                        f"disagrees with the subset test; not embeddable"
                    )
                if encode[lattice.join(a, b)] != ea | eb:
                    raise CodecError(
                        f"lattice {lattice.name!r}: join({a!r}, {b!r}) is not "
                        f"bitwise-or (the lattice is not distributive)"
                    )
                if encode[lattice.meet(a, b)] != ea & eb:
                    raise CodecError(
                        f"lattice {lattice.name!r}: meet({a!r}, {b!r}) is not "
                        f"bitwise-and (the lattice is not distributive)"
                    )

    def encode(self, label: Label) -> int:
        bits = self._encode_table.get(label)
        if bits is None:
            raise CodecError(f"label {label!r} is not a member of {self.lattice.name!r}")
        return bits

    def decode(self, bits: int) -> Label:
        label = self._decode_table.get(bits)
        if label is None:
            raise CodecError(
                f"bit pattern {bits:#x} encodes no label of {self.lattice.name!r}"
            )
        return label


def _build_codec(lattice: Lattice) -> LabelCodec:
    if isinstance(lattice, PolicyLattice):
        return PolicyCodec(lattice)
    if isinstance(lattice, PowersetLattice):
        return PowersetCodec(lattice)
    if isinstance(lattice, ChainLattice):
        return ChainCodec(lattice)
    if isinstance(lattice, ProductLattice):
        return ProductCodec(lattice, _build_codec(lattice.left), _build_codec(lattice.right))
    if isinstance(lattice, FiniteLattice):
        return TableCodec(lattice)
    raise CodecError(
        f"lattice {lattice.name!r} ({type(lattice).__name__}) has no int encoding"
    )


def codec_for(lattice: Lattice) -> Optional[LabelCodec]:
    """A verified int codec for ``lattice``, or ``None`` when unencodable.

    ``None`` is the fallback signal: callers such as
    :class:`~repro.policy.engine.PolicyEngine` then use the object lattice
    (and record why).
    """
    try:
        return _build_codec(lattice)
    except CodecError:
        return None
