"""Policy-scale lattices for data-governance compliance workloads.

"Real Time Reasoning in OWL2 for GDPR Compliance" (PAPERS.md) frames
real-time compliance as per-request *subsumption* checks over structured
policies.  A :class:`PolicyLattice` makes that exactly our lattice-``⊑``
workload: a policy label is a triple

* **purposes** -- the set of processing purposes consented to (powerset
  component; ``⊑`` is inclusion),
* **recipients** -- the set of processors/recipients the data may reach
  (powerset component), and
* **retention** -- how long the data may be kept (a totally ordered chain
  of retention classes; ``⊑`` is "no longer than").

A data subject's *consent grant* is a label bounding what is allowed; a
processing request *demands* a label (one purpose, one recipient, a
retention class), and the request is compliant exactly when
``demand ⊑ grant`` -- a single lattice comparison, which
:class:`PolicyCodec` turns into two int instructions.

Unlike the generic :class:`~repro.lattice.product.ProductLattice`, labels
are :class:`PolicyLabel` values with a *surface syntax* designed to
survive every consumer in the repository:

* ``str(label)`` is the **canonical spelling** -- a valid identifier
  (``Panalytics_ads__Rstore__t1``), so the synthetic program generators
  can use labels as annotation text *and* as field-name suffixes, which
  is what lets policy lattices ride through the registered-lattice drift
  and differential suites unchanged;
* :meth:`PolicyLattice.format_label` is the **pretty spelling**
  (``{ads,analytics}|{store}|t1``), used by diagnostics and reports;
* :meth:`PolicyLattice.parse_label` accepts both, plus the usual
  ``bot``/``low`` and ``top``/``high``/``all`` aliases, so existing
  two-point test programs check under a policy lattice unmodified.

The carrier has ``2^(|purposes|+|recipients|) * |retention|`` labels, so
:meth:`labels` refuses to enumerate policy-scale instances (hundreds of
principals); every other operation -- order, bounds, join, meet, parsing,
``height_bound`` -- is structural and stays cheap at any width.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations
from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.lattice.base import Label, Lattice, LatticeError

#: Principal and retention-class names must be identifier-shaped *without*
#: underscores: the canonical label spelling joins set members with ``_``
#: and components with ``__``, so a name containing ``_`` would be
#: ambiguous to re-parse.
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")

#: :meth:`PolicyLattice.labels` refuses to enumerate carriers wider than
#: this many powerset bits (2^20 subsets is already a test-only size).
_MAX_ENUMERABLE_BITS = 20


@dataclass(frozen=True)
class PolicyLabel:
    """One policy label: (purposes, recipients, retention class).

    Immutable and hashable; comparisons beyond equality live on the
    :class:`PolicyLattice` (only the lattice knows the retention order).
    ``str()`` is the canonical identifier-safe spelling.
    """

    purposes: FrozenSet[str]
    recipients: FrozenSet[str]
    retention: str

    def __str__(self) -> str:
        return (
            "P" + "_".join(sorted(self.purposes))
            + "__R" + "_".join(sorted(self.recipients))
            + "__" + self.retention
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PolicyLabel({self})"


class PolicyLattice(Lattice):
    """Purpose/consent/retention policies as one product/powerset lattice."""

    def __init__(
        self,
        purposes: Sequence[str],
        recipients: Sequence[str],
        retention: Sequence[str],
        *,
        name: str | None = None,
    ) -> None:
        for group, names in (
            ("purpose", purposes),
            ("recipient", recipients),
            ("retention class", retention),
        ):
            if len(set(names)) != len(names):
                raise LatticeError(f"{group} names must be distinct")
            for item in names:
                if not _NAME_RE.match(item):
                    raise LatticeError(
                        f"{group} name {item!r} must be letters/digits only "
                        f"(no underscores; they separate spelling components)"
                    )
        if not retention:
            raise LatticeError("a policy lattice needs at least one retention class")
        overlap = set(purposes) & set(recipients)
        if overlap:
            raise LatticeError(
                f"purpose and recipient names must not overlap: {sorted(overlap)!r}"
            )
        self._purposes: Tuple[str, ...] = tuple(purposes)
        self._recipients: Tuple[str, ...] = tuple(recipients)
        self._retention: Tuple[str, ...] = tuple(retention)
        self._purpose_set = frozenset(purposes)
        self._recipient_set = frozenset(recipients)
        self._rank = {level: index for index, level in enumerate(retention)}
        self.name = name or (
            f"policy-{len(purposes)}-{len(recipients)}-{len(retention)}"
        )

    # -- structure ----------------------------------------------------------

    @property
    def purposes(self) -> Tuple[str, ...]:
        """Purposes in declaration order (:class:`PolicyCodec`'s bit order)."""
        return self._purposes

    @property
    def recipients(self) -> Tuple[str, ...]:
        """Recipients in declaration order (:class:`PolicyCodec`'s bit order)."""
        return self._recipients

    @property
    def retention_classes(self) -> Tuple[str, ...]:
        """Retention classes in increasing order (shortest-lived first)."""
        return self._retention

    @property
    def principal_count(self) -> int:
        """Powerset principals overall -- the "policy scale" headline."""
        return len(self._purposes) + len(self._recipients)

    def retention_rank(self, level: str) -> int:
        """Position of ``level`` in the retention chain (0 = shortest)."""
        rank = self._rank.get(level)
        if rank is None:
            raise LatticeError(
                f"unknown retention class {level!r} for lattice {self.name!r}"
            )
        return rank

    def label(
        self,
        purposes: Iterable[str] = (),
        recipients: Iterable[str] = (),
        retention: str | None = None,
    ) -> PolicyLabel:
        """Construct (and validate) a label of this lattice."""
        return self.require(
            PolicyLabel(
                frozenset(purposes),
                frozenset(recipients),
                self._retention[0] if retention is None else retention,
            )
        )

    # -- membership ---------------------------------------------------------

    def __contains__(self, label: Label) -> bool:
        return (
            isinstance(label, PolicyLabel)
            and label.purposes <= self._purpose_set
            and label.recipients <= self._recipient_set
            and label.retention in self._rank
        )

    def labels(self) -> Iterable[PolicyLabel]:
        bits = len(self._purposes) + len(self._recipients)
        if bits > _MAX_ENUMERABLE_BITS:
            raise LatticeError(
                f"lattice {self.name!r} has 2^{bits} * {len(self._retention)} "
                f"labels; refusing to enumerate a policy-scale carrier"
            )
        def subsets(items: Tuple[str, ...]):
            return [
                frozenset(c)
                for c in chain.from_iterable(
                    combinations(items, r) for r in range(len(items) + 1)
                )
            ]
        return tuple(
            PolicyLabel(p, r, t)
            for p in subsets(self._purposes)
            for r in subsets(self._recipients)
            for t in self._retention
        )

    def height_bound(self) -> int:
        # Every strict step adds a purpose, adds a recipient, or raises the
        # retention class: |P| + |R| + (|T| - 1) steps, + 1 for the start.
        return max(2, len(self._purposes) + len(self._recipients) + len(self._retention))

    # -- order and bounds ---------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        self.require(a)
        self.require(b)
        return (
            a.purposes <= b.purposes
            and a.recipients <= b.recipients
            and self._rank[a.retention] <= self._rank[b.retention]
        )

    @property
    def bottom(self) -> PolicyLabel:
        return PolicyLabel(frozenset(), frozenset(), self._retention[0])

    @property
    def top(self) -> PolicyLabel:
        return PolicyLabel(self._purpose_set, self._recipient_set, self._retention[-1])

    def join(self, a: Label, b: Label) -> PolicyLabel:
        self.require(a)
        self.require(b)
        return PolicyLabel(
            a.purposes | b.purposes,
            a.recipients | b.recipients,
            self._retention[max(self._rank[a.retention], self._rank[b.retention])],
        )

    def meet(self, a: Label, b: Label) -> PolicyLabel:
        self.require(a)
        self.require(b)
        return PolicyLabel(
            a.purposes & b.purposes,
            a.recipients & b.recipients,
            self._retention[min(self._rank[a.retention], self._rank[b.retention])],
        )

    def require(self, label: Label) -> PolicyLabel:
        if label not in self:
            raise LatticeError(
                f"label {label!r} is not a member of lattice {self.name!r}"
            )
        return label  # type: ignore[return-value]

    # -- parsing / display --------------------------------------------------

    def parse_label(self, text: str) -> PolicyLabel:
        cleaned = text.strip()
        lowered = cleaned.lower()
        if lowered in {"bot", "bottom", "low", "_|_"}:
            return self.bottom
        if lowered in {"top", "high", "all"}:
            return self.top
        if "|" in cleaned:
            return self._parse_pretty(cleaned)
        if cleaned.startswith("P") and "__" in cleaned:
            return self._parse_canonical(cleaned)
        raise LatticeError(
            f"unknown policy label {text!r} for lattice {self.name!r}; expected "
            f"'{{purposes}}|{{recipients}}|retention' or the canonical "
            f"'P..__R..__retention' spelling"
        )

    def _parse_pretty(self, text: str) -> PolicyLabel:
        parts = [part.strip() for part in text.split("|")]
        if len(parts) != 3:
            raise LatticeError(
                f"policy label {text!r} must have three '|'-separated components"
            )
        def parse_set(part: str) -> FrozenSet[str]:
            if part.startswith("{") and part.endswith("}"):
                part = part[1:-1]
            return frozenset(
                item.strip() for item in part.split(",") if item.strip()
            )
        return self.require(
            PolicyLabel(parse_set(parts[0]), parse_set(parts[1]), parts[2].strip())
        )

    def _parse_canonical(self, text: str) -> PolicyLabel:
        parts = text.split("__")
        if len(parts) != 3 or not parts[0].startswith("P") or not parts[1].startswith("R"):
            raise LatticeError(
                f"canonical policy label {text!r} must spell P..__R..__retention"
            )
        def parse_group(body: str) -> FrozenSet[str]:
            return frozenset(item for item in body.split("_") if item)
        return self.require(
            PolicyLabel(parse_group(parts[0][1:]), parse_group(parts[1][1:]), parts[2])
        )

    def format_label(self, label: Label) -> str:
        member = self.require(label)
        return (
            "{" + ",".join(sorted(member.purposes)) + "}|"
            "{" + ",".join(sorted(member.recipients)) + "}|"
            + member.retention
        )


class PolicyCodec:
    """Policy labels packed into ints: purpose bits | recipient bits | retention rank.

    Purposes take the lowest bits (declaration order), recipients the next
    block, and the retention chain the highest block in the rank-unary
    spelling (class ``i`` becomes the ``i`` lowest bits of the block).
    All three components are distributive, so the concatenation is an
    order embedding by construction -- no carrier enumeration, which is
    the point: a 216-principal policy lattice encodes into one 223-bit
    int.  For all labels ``a``, ``b`` of the lattice:

    * ``leq(a, b)  ⇔  encode(a) | encode(b) == encode(b)``,
    * ``encode(join(a, b)) == encode(a) | encode(b)``,
    * ``encode(meet(a, b)) == encode(a) & encode(b)``,
    * ``encode(bottom) == 0``.
    """

    def __init__(self, lattice: PolicyLattice) -> None:
        self.lattice = lattice
        self._purpose_bit = {
            name: 1 << index for index, name in enumerate(lattice.purposes)
        }
        offset = len(lattice.purposes)
        self._recipient_bit = {
            name: 1 << (offset + index)
            for index, name in enumerate(lattice.recipients)
        }
        self._retention_shift = offset + len(lattice.recipients)
        #: Number of bits the encoding uses.
        self.width = self._retention_shift + len(lattice.retention_classes) - 1

    def encode(self, label: Label) -> int:
        try:
            bits = 0
            for purpose in label.purposes:  # type: ignore[union-attr]
                bits |= self._purpose_bit[purpose]
            for recipient in label.recipients:  # type: ignore[union-attr]
                bits |= self._recipient_bit[recipient]
            rank = self.lattice.retention_rank(label.retention)  # type: ignore[union-attr]
        except (AttributeError, TypeError, KeyError, LatticeError) as exc:
            raise LatticeError(
                f"label {label!r} is not a member of {self.lattice.name!r}"
            ) from exc
        return bits | ((1 << rank) - 1) << self._retention_shift


def policy_lattice(
    n_purposes: int, n_recipients: int, n_retention: int
) -> PolicyLattice:
    """A generated policy lattice: purposes ``p0..``, recipients ``r0..``,
    retention classes ``t0..`` -- the shape ``get_lattice("policy-P-R-T")``
    constructs for policy-scale benchmarks (e.g. ``policy-120-96-8`` is a
    216-principal lattice)."""
    if n_purposes < 1 or n_recipients < 1 or n_retention < 1:
        raise LatticeError("policy lattice dimensions must all be at least 1")
    return PolicyLattice(
        [f"p{i}" for i in range(n_purposes)],
        [f"r{i}" for i in range(n_recipients)],
        [f"t{i}" for i in range(n_retention)],
    )


def mini_policy_lattice() -> PolicyLattice:
    """The small registered instance (``--lattice policy-mini``): 2 purposes
    x 2 recipients x 3 retention classes = 48 labels, small enough for the
    exhaustive drift-guard, codec-contract and property suites."""
    return PolicyLattice(
        ["analytics", "ads"],
        ["store", "partner"],
        ["t0", "t1", "t2"],
        name="policy-mini",
    )
