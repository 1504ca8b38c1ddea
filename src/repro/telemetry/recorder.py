"""Tracing spans, counters and histograms for the P4BID pipeline.

The instrumentation layer has exactly two implementations of one tiny
interface:

* :class:`Recorder` -- the **no-op** recorder, also the base class.  Every
  method is a constant-return stub and :attr:`Recorder.enabled` is
  ``False``, so instrumented hot paths can skip *all* bookkeeping with a
  single attribute test.  This is the ambient default: a process that
  never asks for telemetry pays one branch per coarse phase and nothing
  per edge, per component, or per rule site (the no-op guard in
  ``tests/test_telemetry.py`` enforces this).
* :class:`TraceRecorder` -- records a **span tree** (monotonic clocks,
  parent ids, strict nesting), **counters**, and **histograms**, all in
  plain Python structures that the exporters in
  :mod:`repro.telemetry.export` turn into JSON-lines event logs, Chrome
  ``trace_event`` files (loadable in ``chrome://tracing`` / Perfetto) and
  human text summaries.

The ambient recorder is held in a :class:`contextvars.ContextVar`:
:func:`use_recorder` installs one for a ``with`` block and
:func:`current_recorder` reads it.  Instrumented code fetches the
recorder once per operation (never per loop iteration) and branches on
``enabled``::

    rec = current_recorder()
    with rec.span("solver.solve", edges=len(edges)):
        ...
        if rec.enabled:
            rec.count("solver.worklist_pops", pops)

Span timestamps are :func:`time.perf_counter` microseconds relative to
the recorder's construction, so they are monotonic, immune to wall-clock
steps, and directly usable as Chrome-trace ``ts`` values.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


class TelemetryError(Exception):
    """The span discipline was violated (exit without enter, overlap)."""


@dataclass
class Span:
    """One node of the span tree.

    ``start_us`` / ``end_us`` are microseconds on the recorder's monotonic
    clock (``perf_counter`` relative to the recorder's epoch); ``parent``
    is the ``sid`` of the enclosing span or ``None`` for a root.  ``attrs``
    carries whatever the instrumentation point attached (component sizes,
    edge counts, program names).
    """

    sid: int
    parent: Optional[int]
    name: str
    start_us: float
    end_us: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            raise TelemetryError(f"span {self.name!r} (sid {self.sid}) is still open")
        return self.end_us - self.start_us

    @property
    def duration_ms(self) -> float:
        return self.duration_us / 1000.0


@dataclass
class Histogram:
    """A streaming histogram: count/sum/min/max plus power-of-two buckets.

    Buckets are keyed by their inclusive upper bound ``2**k`` (the smallest
    power of two at or above the observed value), which is all the solver
    metrics need -- "how skewed are pops per component" -- without storing
    every observation of a 10k-component solve.
    """

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    buckets: Dict[int, int] = field(default_factory=dict)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        bound = 1
        while bound < value:
            bound <<= 1
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile estimated from the power-of-two buckets.

        Observations inside a bucket ``(2**(k-1), 2**k]`` are assumed
        uniformly distributed, so the estimate interpolates linearly within
        the bucket the target rank falls in, then clamps to the exactly
        tracked ``[min, max]`` envelope.  ``None`` on an empty histogram.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if self.count == 0:
            return None
        assert self.minimum is not None and self.maximum is not None
        target = q / 100.0 * self.count
        cumulative = 0
        for bound, occupancy in sorted(self.buckets.items()):
            below = cumulative
            cumulative += occupancy
            if cumulative >= target:
                lower = bound / 2.0 if bound > 1 else 0.0
                estimate = lower + (bound - lower) * (target - below) / occupancy
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    def percentiles(self) -> Dict[str, Optional[float]]:
        """The standard latency trio (p50/p95/p99) as one dict."""
        return {
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            **self.percentiles(),
            "buckets": {str(bound): n for bound, n in sorted(self.buckets.items())},
        }


class _NullSpan:
    """The shared context manager the no-op recorder hands out."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """The no-op recorder: every operation is a stub.

    Also the base class of :class:`TraceRecorder`, so instrumentation is
    written once against this interface.  ``enabled`` is the single test
    hot paths use to skip per-iteration work entirely.
    """

    __slots__ = ()

    #: Whether this recorder actually records.  Hot loops branch on this
    #: once, outside the loop.
    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing one span (a shared no-op here)."""
        return _NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""


class _ActiveSpan:
    """Context manager pushing/popping one :class:`Span` on a recorder."""

    __slots__ = ("_recorder", "_name", "_attrs", "_span")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._recorder._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        assert self._span is not None
        self._recorder._close(self._span)
        return False


class TraceRecorder(Recorder):
    """Records spans, counters and histograms for one run."""

    __slots__ = ("spans", "counters", "histograms", "_epoch", "wall_epoch", "_stack", "_next_sid")

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._epoch = time.perf_counter()
        #: Wall-clock time at construction (for humans; spans use the
        #: monotonic clock).
        self.wall_epoch = time.time()
        self._stack: List[Span] = []
        self._next_sid = 0

    # -- recording ----------------------------------------------------------

    def _now_us(self) -> float:
        return (time.perf_counter() - self._epoch) * 1_000_000.0

    def _open(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(
            sid=self._next_sid,
            parent=self._stack[-1].sid if self._stack else None,
            name=name,
            start_us=self._now_us(),
            attrs=attrs,
        )
        self._next_sid += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise TelemetryError(
                f"span {span.name!r} closed out of order (strict nesting required)"
            )
        self._stack.pop()
        span.end_us = self._now_us()

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.record(value)

    def add_span(
        self,
        name: str,
        duration_ms: float,
        *,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> Span:
        """Append an already-measured span (a *projection* helper).

        Used when a sub-phase duration is known from another bookkeeping
        source but the fine-grained recorder was not installed -- e.g. the
        pipeline's private phase recorder projecting the solver's
        ``solve_ms`` statistic as a child of the infer phase.  The span is
        anchored at its parent's start so the tree remains well-nested.
        """
        start = parent.start_us if parent is not None else self._now_us()
        span = Span(
            sid=self._next_sid,
            parent=parent.sid if parent is not None else None,
            name=name,
            start_us=start,
            end_us=start + duration_ms * 1000.0,
            attrs=attrs,
        )
        self._next_sid += 1
        self.spans.append(span)
        return span

    # -- queries ------------------------------------------------------------

    @property
    def open_spans(self) -> List[Span]:
        return list(self._stack)

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent is None]

    def total_ms(self, name: str) -> float:
        """Summed duration of every (closed) span called ``name``."""
        return sum(span.duration_ms for span in self.spans_named(name))


#: The ambient recorder: the no-op singleton unless :func:`use_recorder`
#: installed something else in this context.
NULL_RECORDER = Recorder()
_CURRENT: ContextVar[Recorder] = ContextVar("p4bid_telemetry", default=NULL_RECORDER)


def current_recorder() -> Recorder:
    """The recorder instrumentation points should report to."""
    return _CURRENT.get()


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the ambient recorder for the ``with`` body."""
    token = _CURRENT.set(recorder)
    try:
        yield recorder
    finally:
        _CURRENT.reset(token)
