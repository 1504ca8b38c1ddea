"""The scenario generator and the replay harness: determinism + reports."""

import pytest

from repro.lattice import get_lattice
from repro.policy import PolicyEngine, replay
from repro.synth import TrafficEvent, policy_traffic, scenario_universe
from repro.telemetry import TraceRecorder, use_recorder

LATTICE = get_lattice("policy-mini")


def scenario(seed=0, subjects=8, datasets=10, events=200, revoke_every=40):
    universe = scenario_universe(
        LATTICE, subjects=subjects, datasets=datasets, seed=seed
    )
    stream = policy_traffic(
        universe, events=events, revoke_every=revoke_every, seed=seed
    )
    return universe, stream


# ---------------------------------------------------------------------------
# generator determinism


def event_fingerprint(event: TrafficEvent):
    if event.regrant is not None:
        subject, bound = event.regrant
        return (event.uid, "regrant", subject, str(bound))
    request = event.request
    return (
        event.uid,
        request.kind,
        request.dataset,
        request.purpose,
        request.recipient,
        request.retention,
    )


def test_same_seed_same_stream():
    _, first = scenario(seed=3)
    _, second = scenario(seed=3)
    assert list(map(event_fingerprint, first)) == list(
        map(event_fingerprint, second)
    )


def test_different_seeds_differ():
    _, first = scenario(seed=0)
    _, second = scenario(seed=1)
    assert list(map(event_fingerprint, first)) != list(
        map(event_fingerprint, second)
    )


def test_stream_shape():
    universe, stream = scenario(events=200, revoke_every=40)
    assert len(stream) == 200
    assert [event.uid for event in stream] == list(range(200))
    regrants = [event for event in stream if event.regrant is not None]
    # Never at uid 0, so (events - 1) // revoke_every of them.
    assert len(regrants) == (200 - 1) // 40
    kinds = {event.request.kind for event in stream if event.request is not None}
    # The scenario mix covers the three request families.
    assert kinds == {"access", "reuse", "expiry"}
    for event in stream:
        if event.request is not None:
            assert event.request.dataset in universe.datasets


def test_regrants_only_tighten():
    universe, stream = scenario(events=400, revoke_every=50)
    for event in stream:
        if event.regrant is None:
            continue
        subject, bound = event.regrant
        # The generator shrinks via meet, so the new bound sits at or
        # below whatever the subject held when the event was minted.
        assert LATTICE.leq(bound, universe.grant(subject))
        universe.set_grant(subject, bound)
        assert universe.grant(subject) == bound


# ---------------------------------------------------------------------------
# replay


def oracle_log(universe, stream):
    """The decision log spelled from the object lattice's ``leq``."""
    lattice = universe.lattice
    log = []
    for event in stream:
        if event.regrant is not None:
            universe.set_grant(*event.regrant)
            continue
        request = event.request
        demand = universe.demand(request)
        bound = universe.effective_bound(request.dataset)
        verdict = "PERMIT" if lattice.leq(demand, bound) else "DENY"
        log.append(
            f"{request.uid} {request.kind} {request.dataset} {verdict} "
            f"demand={demand} bound={lattice.format_label(bound)}"
        )
    return log


def test_replay_counts_and_log_parity():
    universe, stream = scenario(seed=5)
    report = replay(PolicyEngine(universe), stream)
    assert len(report.decisions) + report.revocations == len(stream)
    assert report.permits + report.denies == len(report.decisions)
    assert report.permits and report.denies
    assert report.latency_us.count == len(report.decisions)
    assert report.duration_s > 0.0
    assert report.checks_per_sec > 0.0
    oracle_universe, _ = scenario(seed=5)
    assert report.decision_log() == oracle_log(oracle_universe, stream)


def test_replay_report_dict_fields():
    universe, stream = scenario(events=100, revoke_every=30)
    engine = PolicyEngine(universe)
    report = replay(engine, stream)
    payload = report.as_dict()
    assert payload["events"] == 100
    assert payload["decisions"] == len(report.decisions)
    assert payload["revocations"] == report.revocations
    assert payload["lattice"] == "policy-mini"
    assert payload["principals"] == 4
    assert set(payload["latency_us"]) == {"mean", "p50", "p95", "p99", "max"}
    assert payload["latency_us"]["p50"] is not None
    text = report.describe()
    assert "checks/sec" in text and "p99=" in text


def test_replay_is_paced_by_rate():
    universe, stream = scenario(events=40, revoke_every=1000)
    engine = PolicyEngine(universe)
    report = replay(engine, stream, rate=2000.0)
    # 40 events at 2000/sec admits the last one at t=19.5ms.
    assert report.duration_s >= 0.019
    with pytest.raises(ValueError):
        replay(engine, stream, rate=0.0)


def test_replay_emits_telemetry():
    universe, stream = scenario(events=60, revoke_every=20)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        report = replay(PolicyEngine(universe), stream)
    assert recorder.counters["policy.replayed_events"] == 60
    assert recorder.counters["policy.decisions"] == len(report.decisions)
    (span,) = recorder.spans_named("policy.replay")
    assert span.attrs["events"] == 60
    # decide spans nest under the replay via the ambient recorder, and the
    # per-decision latency histogram is populated.
    assert "policy.decide_us" in recorder.histograms


def test_traced_replay_records_regrant_latency():
    universe, stream = scenario(events=120, revoke_every=20)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        report = replay(PolicyEngine(universe), stream)
    assert report.revocations > 0
    regrants = recorder.histograms["policy.regrant_us"]
    assert regrants.count == report.revocations
    assert regrants.minimum >= 0.0


def test_untraced_replay_observes_nothing(monkeypatch):
    from repro.telemetry.recorder import current_recorder

    disabled = current_recorder()
    assert not disabled.enabled

    def observe(*args):
        raise AssertionError("a histogram reached the disabled recorder")

    monkeypatch.setattr(type(disabled), "observe", observe)
    universe, stream = scenario(events=120, revoke_every=20)
    assert replay(PolicyEngine(universe), stream).revocations > 0
