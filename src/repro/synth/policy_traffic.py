"""Deterministic scenario/traffic generation for the compliance workload.

The generator answers two needs of the throughput harness and the
differential suites:

* **a populated universe** — data subjects with varied consent grants and
  a dataset DAG with derivation lineage (raw per-subject datasets, shared
  aggregates, deep derivation chains), sized by parameters so the same
  shapes scale from the 48-label ``policy-mini`` smoke runs to the
  216-principal benchmark lattice;

* **a replayable event stream** — per-request label queries in the four
  scenario families the GDPR framing names (data-subject **access**,
  cross-purpose **reuse**, retention-**expiry** probes, plus mid-stream
  consent **revocations**), produced by a seeded :class:`random.Random`
  so the stream is byte-identical for a given ``(lattice, sizes, seed)``
  on any platform, hash seed, or worker count.

Events are plain data (:class:`TrafficEvent`), not engine calls: the
differential suites replay a stream through the engine and through the
object-lattice oracle and require identical decision sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.lattice.policy import PolicyLabel, PolicyLattice
from repro.policy.model import Dataset, PolicyUniverse, Request, SubjectGrant


@dataclass(frozen=True)
class TrafficEvent:
    """One event of the stream: a request to decide, or a consent update.

    Exactly one of ``request`` / ``regrant`` is set.
    """

    uid: int
    request: Optional[Request] = None
    #: ``(subject, new_bound)`` — a mid-stream consent revocation (the new
    #: bound is strictly below the old one) or a re-grant.
    regrant: Optional[Tuple[str, PolicyLabel]] = None

    @property
    def kind(self) -> str:
        return self.request.kind if self.request is not None else "revoke"


def scenario_universe(
    lattice: PolicyLattice,
    *,
    subjects: int = 24,
    datasets: int = 12,
    seed: int = 0,
) -> PolicyUniverse:
    """A deterministic universe over ``lattice``.

    Each subject grants a random-but-seeded subset of purposes/recipients
    and a retention ceiling biased away from the extremes; datasets split
    into per-subject *raw* datasets and *derived* datasets whose parents
    are drawn from everything generated before them (so later datasets
    have deep, wide lineage closures — the expensive compile case).
    """
    if subjects < 1 or datasets < 1:
        raise ValueError("a scenario needs at least one subject and one dataset")
    rng = random.Random((seed, subjects, datasets, lattice.name).__repr__())
    purposes = list(lattice.purposes)
    recipients = list(lattice.recipients)
    retention = list(lattice.retention_classes)

    def random_grant() -> PolicyLabel:
        return lattice.label(
            rng.sample(purposes, rng.randint(1, max(1, len(purposes) * 3 // 4))),
            rng.sample(recipients, rng.randint(1, max(1, len(recipients) * 3 // 4))),
            retention[rng.randint(len(retention) // 3, len(retention) - 1)],
        )

    grants = [
        SubjectGrant(f"s{index}", random_grant()) for index in range(subjects)
    ]
    raw_count = max(1, min(subjects, (datasets + 1) // 2))
    dataset_list: List[Dataset] = [
        Dataset(f"raw{index}", subjects=frozenset({f"s{index % subjects}"}))
        for index in range(raw_count)
    ]
    for index in range(raw_count, datasets):
        pool = [d.name for d in dataset_list]
        parents = tuple(sorted(rng.sample(pool, rng.randint(1, min(3, len(pool))))))
        direct = frozenset(
            f"s{rng.randrange(subjects)}" for _ in range(rng.randint(0, 2))
        )
        dataset_list.append(Dataset(f"drv{index}", subjects=direct, parents=parents))
    return PolicyUniverse(lattice, grants, dataset_list)


def policy_traffic(
    universe: PolicyUniverse,
    *,
    events: int = 1000,
    revoke_every: int = 200,
    seed: int = 0,
) -> List[TrafficEvent]:
    """A deterministic stream of ``events`` traffic events over ``universe``.

    The mix cycles through the scenario families:

    * ``access`` — a data subject accesses a raw dataset for an in-grant
      purpose (mostly permits);
    * ``reuse`` — a derived dataset is reused for a random purpose/
      recipient pair (cross-purpose reuse; permits and denies);
    * ``expiry`` — a request demands the *longest* retention class, the
      retention-expiry probe (denied unless every contributing subject
      accepted indefinite retention);
    * every ``revoke_every`` events, one subject's grant shrinks to the
      meet of its current bound with a fresh random grant — mid-stream
      revocation, so bounds only ever tighten and later decisions flip
      from permit to deny, never the reverse.
    """
    if events < 1:
        raise ValueError("a traffic stream needs at least one event")
    lattice = universe.lattice
    rng = random.Random((seed, events, revoke_every, lattice.name).__repr__())
    purposes = list(lattice.purposes)
    recipients = list(lattice.recipients)
    retention = list(lattice.retention_classes)
    subjects = list(universe.subjects)
    datasets = list(universe.datasets)
    raw = [name for name in datasets if not universe.dataset(name).parents]
    derived = [name for name in datasets if universe.dataset(name).parents] or raw

    stream: List[TrafficEvent] = []
    grants = dict(universe.grants())
    for uid in range(events):
        if revoke_every and uid and uid % revoke_every == 0:
            subject = rng.choice(subjects)
            shrunk = lattice.meet(
                grants[subject],
                lattice.label(
                    rng.sample(purposes, max(1, len(purposes) // 2)),
                    rng.sample(recipients, max(1, len(recipients) // 2)),
                    retention[rng.randrange(len(retention))],
                ),
            )
            grants[subject] = shrunk
            stream.append(TrafficEvent(uid, regrant=(subject, shrunk)))
            continue
        family = rng.randrange(3)
        if family == 0:
            dataset = rng.choice(raw)
            subject_pool = universe.contributing_subjects(dataset)
            bound = grants[subject_pool[0]] if subject_pool else lattice.top
            purpose = (
                rng.choice(sorted(bound.purposes))
                if bound.purposes
                else rng.choice(purposes)
            )
            recipient = (
                rng.choice(sorted(bound.recipients))
                if bound.recipients
                else rng.choice(recipients)
            )
            request = Request(
                uid, dataset, purpose, recipient, retention[0], kind="access"
            )
        elif family == 1:
            request = Request(
                uid,
                rng.choice(derived),
                rng.choice(purposes),
                rng.choice(recipients),
                retention[rng.randrange(len(retention))],
                kind="reuse",
            )
        else:
            request = Request(
                uid,
                rng.choice(datasets),
                rng.choice(purposes),
                rng.choice(recipients),
                retention[-1],
                kind="expiry",
            )
        stream.append(TrafficEvent(uid, request=request))
    return stream
