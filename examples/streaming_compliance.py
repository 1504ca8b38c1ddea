"""Streaming compliance: policy lattices decided at traffic rate.

Run with::

    python examples/streaming_compliance.py

The IFC label machinery generalises past ``high``/``low``: a *policy
lattice* tracks data-governance facts -- which **purposes** a use serves,
which **recipients** see the result, and how long it is retained -- as one
product of powersets plus a retention chain.  ``⊑`` then literally *is*
compliance: a request is permitted iff the label it demands flows to the
meet of every contributing data subject's consent grant.

This example builds a deterministic scenario (subjects with varied
grants, datasets with derivation lineage), replays a generated traffic
stream through a :class:`~repro.policy.PolicyEngine` (each decision one
OR and one compare over int-packed labels), revokes one subject's consent mid-stream, and asks the witness
machinery *why* a denied request is denied -- the shortest chain from the
request through the derivation lineage to the consent bound it breaks.
"""

from repro.lattice import get_lattice
from repro.policy import PolicyEngine, Request, replay
from repro.synth import policy_traffic, scenario_universe


def main() -> None:
    # A policy lattice: 6 purposes, 4 recipients, 3 retention classes.
    # (`policy-mini` or any `policy-P-R-T` name works; the int codec
    # scales to hundreds of principals -- try `p4bid policy check
    # --lattice policy-120-96-8`.)
    lattice = get_lattice("policy-6-4-3")
    print(f"lattice {lattice.name}: {lattice.principal_count} principals")

    # A deterministic universe: consent grants + dataset lineage.
    universe = scenario_universe(lattice, subjects=12, datasets=16, seed=11)
    widest = max(
        universe.datasets, key=lambda d: len(universe.contributing_subjects(d))
    )
    print(
        f"{len(universe.subjects)} subjects, {len(universe.datasets)} "
        f"datasets; {widest!r} draws on "
        f"{len(universe.contributing_subjects(widest))} subjects\n"
    )

    # Replay a generated traffic stream (access / reuse / expiry requests
    # with mid-stream revocations) through the decision engine.
    engine = PolicyEngine(universe)
    events = policy_traffic(universe, events=2000, revoke_every=400, seed=11)
    report = replay(engine, events)
    print(report.describe())
    for line in report.decision_log()[:5]:
        print(f"  {line}")
    print("  ...\n")

    # Consent revocation: shrink one subject's grant and watch a request
    # that was permitted flip to denied.  Pick a dataset whose (post-
    # replay) bound still permits *something*, and probe inside it.
    dataset = max(
        (
            d
            for d in universe.datasets
            if universe.effective_bound(d).purposes
            and universe.effective_bound(d).recipients
        ),
        key=lambda d: len(universe.contributing_subjects(d)),
    )
    subject = universe.contributing_subjects(dataset)[0]
    bound = universe.effective_bound(dataset)
    probe = Request(
        10_000,
        dataset,
        sorted(bound.purposes)[0],
        sorted(bound.recipients)[0],
        universe.lattice.retention_classes[0],
    )
    before = engine.decide(probe)
    affected = engine.set_grant(subject, universe.lattice.bottom)
    after = engine.decide(probe)
    print(
        f"revoking {subject!r} recompiled {len(affected)} dataset bound(s): "
        f"{'PERMIT' if before.permit else 'DENY'} -> "
        f"{'PERMIT' if after.permit else 'DENY'}\n"
    )

    # And *why*: the witness machinery explains the denial as the shortest
    # chain from the request through the lineage to the violated consent.
    explanation = engine.explain(probe)
    print(explanation.describe(engine))


if __name__ == "__main__":
    main()
