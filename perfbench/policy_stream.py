"""``policy_stream``: the compliance serving path.

Seeded ``policy_traffic`` streams over one fixed scenario universe on
``policy-120-96-8`` (216 principals; 96 subjects, 48 datasets; 20,000
events per stream, a regrant every 100 events).

* Op: ``PolicyEngine.decide``.  Update: ``set_grant``.
* A run cycles through ``STREAMS`` streams whose seeds derive from the
  workload seed.  The universe is fixed like ``cold_check``'s corpus,
  and several streams are pooled, because a regrant's cost follows how
  many datasets it recompiles: most recompile none, a tenth four or
  more, and one stream's 199 regrants alone make ``update_ms_p90`` a
  property of the seed rather than of the engine.
* The streams and their known answers are made in a child process and
  held packed (one int per event, one byte per answer); each batch's
  events are rebuilt just before it runs, outside the timed region.  So
  ``peak_rss_mb`` follows the engine, not the benchmark's fixtures: the
  stream objects alone would take about 6 MB each, and freed heap is
  not returned to the system.
* Each pass over a stream starts from a fresh universe and engine,
  built outside the timed region: revocations only tighten, so without
  the reset the permit share would decay toward all-deny.  Every run
  replays whole rounds of the streams.
* A closed loop: pacing 5-µs arrivals from Python would measure the
  pacer, not the engine.

Every call is timed alone; the calibration runs around each batch of
``BATCH`` events, and op percentiles are taken per pass, then the median
over passes is reported.  Update percentiles cover the regrants that
recompile at least one dataset (about 40% of them).  The others name a
subject in no dataset's lineage and cost only the grant's validation;
every regrant is still timed into the traced run and checked, but mixing
the two kinds puts ``update_ms_p50`` on the cliff between them, where
it moved by up to a fifth from seed to seed.

Set-up is ``PolicyEngine(universe)``.

Known answers come from an independent set-inclusion oracle: a request
is permitted exactly when its purpose and recipient are in every
contributing subject's grant and its retention rank is at most theirs;
contributing subjects follow ``Dataset.subjects`` / ``Dataset.parents``
and grants follow the stream's own updates.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from calibrate import calibrate, factor
from harness import Measurement, quantile
from spans import Layers, Tracer

LATTICE = "policy-120-96-8"
SUBJECTS, DATASETS, UNIVERSE_SEED = 96, 48, 7
EVENTS, REVOKE_EVERY, STREAMS = 20_000, 100, 4
BATCH = 1_000
#: Request kinds by packed code; code ``REGRANT`` marks a consent update.
KINDS, REGRANT = ("access", "reuse", "expiry"), 3

_BUILD_CODE = """
import pickle, sys
sys.path.insert(0, sys.argv[1])
from policy_stream import build_streams
sys.stdout.buffer.write(pickle.dumps(build_streams(int(sys.argv[2]))))
"""


def oracle(universe, events) -> List[object]:
    """Expected outcome per event: a permit bool, or the recompiled count."""
    lattice = universe.lattice
    rank = {name: index for index, name in enumerate(lattice.retention_classes)}
    closures: Dict[str, frozenset] = {}

    def closure(name: str) -> frozenset:
        if name not in closures:
            dataset = universe.dataset(name)
            subjects = set(dataset.subjects)
            for parent in dataset.parents:
                subjects |= closure(parent)
            closures[name] = frozenset(subjects)
        return closures[name]

    grants = {subject: universe.grant(subject) for subject in universe.subjects}
    expected: List[object] = []
    for event in events:
        if event.request is None:
            subject, bound = event.regrant
            grants[subject] = bound
            expected.append(sum(subject in closure(d) for d in universe.datasets))
            continue
        request = event.request
        expected.append(all(
            request.purpose in grants[s].purposes
            and request.recipient in grants[s].recipients
            and rank[request.retention] <= rank[grants[s].retention]
            for s in closure(request.dataset)
        ))
    return expected


class Stream:
    """One event stream, packed: per event ``kind << 32`` plus either the
    dataset, purpose, recipient and retention indices (8 bits each) or,
    for a regrant, its index in ``regrants``."""

    def __init__(self, universe, events) -> None:
        lattice = universe.lattice
        self.tables = (
            tuple(universe.datasets), tuple(lattice.purposes),
            tuple(lattice.recipients), tuple(lattice.retention_classes),
        )
        if max(map(len, self.tables)) > 256:
            raise ValueError("a field does not fit in 8 bits")
        from repro.policy.model import Request

        self._request = Request
        index = [{name: i for i, name in enumerate(table)} for table in self.tables]
        self.regrants: List[Tuple[str, object]] = []
        self.codes = array("Q")
        for event in events:
            if event.request is None:
                self.codes.append(REGRANT << 32 | len(self.regrants))
                self.regrants.append(event.regrant)
                continue
            request = event.request
            code = KINDS.index(request.kind)
            fields = (request.dataset, request.purpose, request.recipient, request.retention)
            for value, positions in zip(fields, index):
                code = code << 8 | positions[value]
            self.codes.append(code)
            if self.event(len(self.codes) - 1)[0] != request:
                raise RuntimeError(f"request {request.uid} does not survive packing")

    def __len__(self) -> int:
        return len(self.codes)

    def event(self, position: int) -> tuple:
        """``(request, None)`` or ``(None, (subject, bound))``."""
        code = self.codes[position]
        kind = code >> 32
        if kind == REGRANT:
            return None, self.regrants[code & 0xFFFFFFFF]
        datasets, purposes, recipients, retention = self.tables
        request = self._request(
            position, datasets[code >> 24 & 255], purposes[code >> 16 & 255],
            recipients[code >> 8 & 255], retention[code & 255], kind=KINDS[kind],
        )
        return request, None


def _universe():
    from repro.lattice.registry import get_lattice
    from repro.synth.policy_traffic import scenario_universe

    return scenario_universe(
        get_lattice(LATTICE), subjects=SUBJECTS, datasets=DATASETS, seed=UNIVERSE_SEED
    )


def build_streams(seed: int) -> List[Tuple[Stream, bytes]]:
    """The workload's streams, packed, each with its known answers."""
    from repro.synth.policy_traffic import policy_traffic

    streams = []
    for index in range(STREAMS):
        events = policy_traffic(
            _universe(), events=EVENTS, revoke_every=REVOKE_EVERY, seed=seed * STREAMS + index
        )
        expected = bytes(int(answer) for answer in oracle(_universe(), events))
        streams.append((Stream(_universe(), events), expected))
    return streams


class Workload:
    SETUP_REPS = 15

    def __init__(self, seed: int) -> None:
        self._universe = _universe
        done = subprocess.run(
            [sys.executable, "-c", _BUILD_CODE, str(Path(__file__).resolve().parent), str(seed)],
            capture_output=True, timeout=120, check=True,
            env=dict(os.environ, PYTHONPATH="src"),
        )
        self.streams = pickle.loads(done.stdout)

    def _engine(self, universe):
        from repro.policy.engine import PolicyEngine

        return PolicyEngine(universe)

    def setup_once(self) -> float:
        universe = self._universe()
        before = calibrate()
        start = time.perf_counter_ns()
        self._engine(universe)
        wall_ns = time.perf_counter_ns() - start
        after = calibrate()
        return wall_ns / 1e9 * factor(before, after)

    def run(self, seconds: float, tracer: Optional[Tracer]) -> Measurement:
        layers = Layers() if tracer is not None else None
        m = Measurement()
        compile_ms: List[float] = []
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            # Whole rounds alternate, so traced and untraced passes
            # replay the same streams.
            traced = tracer is not None and (index // STREAMS) % 2 == 1
            universe = self._universe()
            if traced:
                before = calibrate()
                start = time.perf_counter_ns()
                engine = self._engine(universe)
                wall_ms = (time.perf_counter_ns() - start) / 1e6
                compile_ms.append(wall_ms * factor(before, calibrate()))
                layers.install(tracer)
            else:
                engine = self._engine(universe)
            try:
                self._pass(engine, *self.streams[index % STREAMS], m, tracer if traced else None)
            finally:
                if traced:
                    layers.uninstall()
            index += 1
            if index % STREAMS == 0 and time.perf_counter() >= deadline:
                break
        if compile_ms:
            m.compile_ms = sum(compile_ms) / len(compile_ms)
        return m

    def _pass(self, engine, stream, expected, m: Measurement, tracer: Optional[Tracer]) -> None:
        decide, set_grant = engine.decide, engine.set_grant
        clock = time.perf_counter_ns
        decisions: List[float] = []
        walls: List[float] = []
        previous = calibrate()
        m.cal_ms.append(previous)
        for first in range(0, len(stream), BATCH):
            decide_ns: List[int] = []
            update_ns: List[int] = []
            batch = [stream.event(position) for position in range(first, min(first + BATCH, len(stream)))]
            for position, (request, regrant) in enumerate(batch, first):
                if tracer is not None:
                    tracer.begin_op()
                try:
                    if request is not None:
                        start = clock()
                        ok = decide(request).permit == expected[position]
                        decide_ns.append(clock() - start)
                    else:
                        start = clock()
                        ok = len(set_grant(*regrant)) == expected[position]
                        if expected[position]:
                            update_ns.append(clock() - start)
                except Exception:  # counted as a failed op
                    m.raised("decide" if request is not None else "set_grant")
                    ok = False
                if tracer is not None:
                    tracer.end_op()
                m.outcome(ok)
            cal = calibrate()
            scale = factor(previous, cal) / 1e6
            previous = cal
            m.cal_ms.append(cal)
            batch = [ns * scale for ns in decide_ns]
            updates = [ns * scale for ns in update_ns]
            decisions.extend(batch)
            walls.extend(ns / 1e6 for ns in decide_ns)
            if tracer is not None:
                tracer.flush(scale * 1e6)
                m.traced_ops += len(batch)
            else:
                m.update_ms.extend(updates)
        if tracer is not None:
            m.traced_op_ms.append(quantile(decisions, 0.5))
            return
        m.pass_p50.append(quantile(decisions, 0.5))
        m.pass_p90.append(quantile(decisions, 0.9))
        m.op_wall_ms.append(quantile(walls, 0.5))
        m.op_count += len(decisions)
        m.op_busy_ms += sum(decisions)
