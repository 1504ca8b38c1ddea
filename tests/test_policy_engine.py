"""The policy model and decision engine: semantics, oracle parity, witnesses."""

import pytest

from repro.lattice import get_lattice, mini_policy_lattice
from repro.policy import (
    Dataset,
    PolicyEngine,
    PolicyError,
    PolicyUniverse,
    Request,
    SubjectGrant,
)
from repro.synth import policy_traffic, scenario_universe
from repro.telemetry import TraceRecorder, use_recorder


def small_universe():
    lattice = mini_policy_lattice()
    grants = [
        SubjectGrant("alice", lattice.label(["analytics"], ["store"], "t1")),
        SubjectGrant("bob", lattice.label(["analytics", "ads"], ["store"], "t2")),
        SubjectGrant("carol", lattice.label(["ads"], ["partner", "store"], "t0")),
    ]
    datasets = [
        Dataset("clicks", subjects=frozenset({"alice"})),
        Dataset("views", subjects=frozenset({"bob"})),
        Dataset("joined", parents=("clicks", "views")),
        Dataset("enriched", subjects=frozenset({"carol"}), parents=("joined",)),
    ]
    return PolicyUniverse(lattice, grants, datasets)


# ---------------------------------------------------------------------------
# universe semantics


def test_lineage_closure_is_transitive():
    universe = small_universe()
    assert universe.contributing_subjects("clicks") == ("alice",)
    assert universe.contributing_subjects("joined") == ("alice", "bob")
    assert universe.contributing_subjects("enriched") == ("alice", "bob", "carol")


def test_effective_bound_is_meet_of_grants():
    universe = small_universe()
    lattice = universe.lattice
    # joined = alice ⊓ bob = {analytics}|{store}|t1
    assert universe.effective_bound("joined") == lattice.label(
        ["analytics"], ["store"], "t1"
    )
    # enriched additionally meets carol: purposes {analytics}∩{ads} = {}, t0
    assert universe.effective_bound("enriched") == lattice.label([], ["store"], "t0")


def test_universe_validation():
    lattice = mini_policy_lattice()
    with pytest.raises(PolicyError, match="unknown subject"):
        PolicyUniverse(lattice, [], [Dataset("d", subjects=frozenset({"ghost"}))])
    with pytest.raises(PolicyError, match="unknown dataset"):
        PolicyUniverse(lattice, [], [Dataset("d", parents=("missing",))])
    with pytest.raises(PolicyError, match="cyclic"):
        PolicyUniverse(
            lattice,
            [],
            [Dataset("a", parents=("b",)), Dataset("b", parents=("a",))],
        )
    with pytest.raises(PolicyError, match="duplicate"):
        PolicyUniverse(
            lattice,
            [
                SubjectGrant("s", lattice.bottom),
                SubjectGrant("s", lattice.top),
            ],
            [],
        )


# ---------------------------------------------------------------------------
# decisions


def decide_brute_force(universe, request):
    """The spec: demand ⊑ meet of grants over the lineage closure."""
    return universe.lattice.leq(
        universe.demand(request), universe.effective_bound(request.dataset)
    )


def every_request(universe):
    """One request per dataset and demand label of the universe."""
    lattice = universe.lattice
    return [
        Request(uid, dataset, purpose, recipient, retention)
        for uid, (dataset, purpose, recipient, retention) in enumerate(
            (d, p, r, t)
            for d in universe.datasets
            for p in lattice.purposes
            for r in lattice.recipients
            for t in lattice.retention_classes
        )
    ]


def test_decide_matches_brute_force():
    universe = small_universe()
    engine = PolicyEngine(universe)
    for request in every_request(universe):
        decision = engine.decide(request)
        assert decision.permit == decide_brute_force(
            universe, request
        ), request.describe()
        assert decision.demand == universe.demand(request)
        assert decision.bound == universe.effective_bound(request.dataset)


def test_decide_rejects_unknown_names():
    engine = PolicyEngine(small_universe())
    for request in (
        Request(0, "nope", "analytics", "store", "t0"),
        Request(1, "clicks", "nope", "store", "t0"),
        Request(2, "clicks", "analytics", "nope", "t0"),
        Request(3, "clicks", "analytics", "store", "nope"),
    ):
        with pytest.raises(PolicyError):
            engine.decide(request)
        # The oracle rejects the same requests.
        with pytest.raises(PolicyError):
            decide_brute_force(engine.universe, request)
    assert engine.decisions == 0


def test_decide_matches_oracle_on_generated_scenarios():
    lattice = get_lattice("policy-mini")
    for seed in (0, 1, 7):
        universe = scenario_universe(lattice, subjects=8, datasets=10, seed=seed)
        engine = PolicyEngine(universe)
        stream = policy_traffic(universe, events=300, revoke_every=50, seed=seed)
        regrants = 0
        for event in stream:
            if event.regrant is not None:
                engine.set_grant(*event.regrant)
                regrants += 1
                # After every regrant every compiled bound must still be
                # the oracle's -- not only the ones the stream requests.
                for probe in every_request(universe):
                    assert engine.decide(probe).permit == decide_brute_force(
                        universe, probe
                    ), (seed, event.uid, probe.describe())
                continue
            decision = engine.decide(event.request)
            assert decision.permit == decide_brute_force(
                universe, event.request
            ), (seed, event.uid)
        assert regrants == (300 - 1) // 50


def test_regrant_recompiles_only_the_lineage_fan_out():
    """On the 216-principal lattice, revoking one subject's consent
    recompiles the datasets its lineage reaches and no others."""
    universe = scenario_universe(
        get_lattice("policy-120-96-8"), subjects=96, datasets=48, seed=2022
    )
    engine = PolicyEngine(universe)
    subject = universe.subjects[0]
    affected = engine.set_grant(subject, universe.lattice.bottom)
    assert 0 < len(affected) <= len(universe.datasets)
    assert set(affected) == {
        name
        for name in universe.datasets
        if subject in universe.contributing_subjects(name)
    }


def test_revocation_tightens_bounds_monotonically():
    universe = small_universe()
    engine = PolicyEngine(universe)
    request = Request(0, "joined", "analytics", "store", "t0")
    assert engine.decide(request).permit
    # Alice revokes analytics: the joined dataset's bound must shrink.
    affected = engine.set_grant(
        "alice", universe.lattice.label([], ["store"], "t1")
    )
    assert "joined" in affected and "clicks" in affected
    assert not engine.decide(request).permit
    # Re-granting restores the permit.
    engine.set_grant("alice", universe.lattice.label(["analytics"], ["store"], "t1"))
    assert engine.decide(request).permit


# ---------------------------------------------------------------------------
# explanations


def test_explain_permit_is_empty():
    engine = PolicyEngine(small_universe())
    explanation = engine.explain(Request(0, "clicks", "analytics", "store", "t0"))
    assert explanation.decision.permit
    assert explanation.witnesses == ()
    assert explanation.violated_subjects == ()


def test_explain_deny_names_the_violated_consent():
    engine = PolicyEngine(small_universe())
    # carol never consented to analytics, so enriched denies it.
    request = Request(0, "enriched", "analytics", "store", "t0")
    explanation = engine.explain(request)
    assert not explanation.decision.permit
    assert explanation.witnesses
    assert "carol" in explanation.violated_subjects
    text = explanation.describe(engine)
    assert "DENY" in text and "leak path" in text


def test_explain_deny_walks_derivation_lineage():
    engine = PolicyEngine(small_universe())
    # Denied only because of grants on ancestors: the witness chain must
    # cross the derivation hops to reach them.
    request = Request(0, "enriched", "analytics", "partner", "t2")
    explanation = engine.explain(request)
    assert not explanation.decision.permit
    lattice = engine.universe.lattice
    rendered = "\n".join(w.describe(lattice) for w in explanation.witnesses)
    assert "derived from" in rendered
    # Witnesses are ranked shortest-first.
    lengths = [w.length for w in explanation.witnesses]
    assert lengths == sorted(lengths)


# ---------------------------------------------------------------------------
# audits and stats


def test_audit_conflicts_match_the_oracle():
    universe = small_universe()
    lattice = universe.lattice
    requests = [
        Request(uid, dataset, purpose, "store", "t0")
        for uid, (dataset, purpose) in enumerate(
            (d, p) for d in universe.datasets for p in lattice.purposes
        )
    ]
    outcomes = []
    for _ in range(2):
        solution = PolicyEngine(universe).audit(requests)
        outcomes.append(
            [
                (str(c.constraint.lhs.describe()), str(c.constraint.rhs.describe()))
                for c in solution.conflicts
            ]
        )
    assert outcomes[0] and outcomes[0] == outcomes[1]

    # The batch joins every demand that reaches a dataset, so a subject's
    # consent on a dataset conflicts exactly when some request at or below
    # that dataset in the lineage demands more than the subject granted.
    def reaches(request, name):
        pending = [request.dataset]
        while pending:
            current = pending.pop()
            if current == name:
                return True
            pending.extend(universe.dataset(current).parents)
        return False

    expected = {
        (subject, name)
        for name in universe.datasets
        for subject in universe.dataset(name).subjects
        if any(
            reaches(request, name)
            and not lattice.leq(universe.demand(request), universe.grant(subject))
            for request in requests
        )
    }
    conflicts = {
        (
            conflict.constraint.reason.split("'")[1],
            conflict.constraint.reason.split("'")[3],
        )
        for conflict in solution.conflicts
    }
    assert conflicts == expected


def test_stats_and_telemetry_counters():
    recorder = TraceRecorder()
    with use_recorder(recorder):
        engine = PolicyEngine(small_universe())
        engine.decide(Request(0, "clicks", "analytics", "store", "t0"))
        engine.decide(Request(1, "clicks", "ads", "partner", "t2"))
        engine.set_grant("alice", engine.universe.lattice.bottom)
    stats = engine.stats()
    assert stats["decisions"] == 2
    assert stats["permits"] == 1 and stats["denies"] == 1
    assert stats["revocations"] == 1
    assert recorder.counters["policy.decisions"] == 2
    assert recorder.counters["policy.permits"] == 1
    assert recorder.counters["policy.denies"] == 1
    assert recorder.counters["policy.revocations"] == 1
    assert recorder.spans_named("policy.compile")
    assert recorder.spans_named("policy.regrant")
    assert "policy.decide_us" in recorder.histograms
