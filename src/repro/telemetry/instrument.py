"""Hot-path instrumentation helpers.

:class:`CountingLattice` is a delegating lattice proxy that counts the
``leq`` / ``join`` / ``meet`` calls the solver performs.  It is installed
*only when a recorder is enabled* -- the disabled path keeps the raw
lattice, so counting costs the default configuration nothing.  Counts
accumulate in plain integer attributes (one add per call, no recorder
traffic in the loop) and :meth:`CountingLattice.flush` reports them as
``lattice.<op>[<name>]`` counters when the instrumented region finishes.

How many lattice operations a solve performs, per lattice, is exactly
the quantity a bitset encoding (join = ``|``) would amortise.
"""

from __future__ import annotations

from typing import Iterable

from repro.lattice.base import Label, Lattice
from repro.telemetry.recorder import Recorder


class CountingLattice(Lattice):
    """A lattice proxy counting the order/bound operations performed."""

    def __init__(self, inner: Lattice, recorder: Recorder, scope: str = "solver") -> None:
        self.inner = inner
        self.recorder = recorder
        self.scope = scope
        self.name = inner.name
        self.leq_calls = 0
        self.join_calls = 0
        self.meet_calls = 0
        # Bottom/top are pure per lattice; cache them so the proxy does not
        # add a property indirection on the solver's seeding path.
        self._bottom = inner.bottom
        self._top = inner.top

    # -- counted operations --------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        self.leq_calls += 1
        return self.inner.leq(a, b)

    def join(self, a: Label, b: Label) -> Label:
        self.join_calls += 1
        return self.inner.join(a, b)

    def meet(self, a: Label, b: Label) -> Label:
        self.meet_calls += 1
        return self.inner.meet(a, b)

    # -- pure delegation -----------------------------------------------------

    def labels(self) -> Iterable[Label]:
        return self.inner.labels()

    @property
    def bottom(self) -> Label:
        return self._bottom

    @property
    def top(self) -> Label:
        return self._top

    def height_bound(self) -> int:
        return self.inner.height_bound()

    def parse_label(self, text: str) -> Label:
        return self.inner.parse_label(text)

    def format_label(self, label: Label) -> str:
        return self.inner.format_label(label)

    # -- reporting -----------------------------------------------------------

    def flush(self) -> None:
        """Report the accumulated counts as recorder counters and reset."""
        recorder = self.recorder
        if self.leq_calls:
            recorder.count(f"lattice.leq[{self.name}].{self.scope}", self.leq_calls)
        if self.join_calls:
            recorder.count(f"lattice.join[{self.name}].{self.scope}", self.join_calls)
        if self.meet_calls:
            recorder.count(f"lattice.meet[{self.name}].{self.scope}", self.meet_calls)
        self.leq_calls = self.join_calls = self.meet_calls = 0
