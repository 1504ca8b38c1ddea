"""Data-governance policy compliance as a lattice-``⊑`` workload.

The second domain served by the shared core (the first is P4 IFC
checking): purpose/consent/retention policies are labels of a
:class:`~repro.lattice.policy.PolicyLattice`, a processing request
*demands* a label, and compliance is one ``demand ⊑ bound`` comparison
— evaluated as one OR and one compare over the ints of the lattice's
:class:`~repro.lattice.policy.PolicyCodec`.

* :mod:`repro.policy.model` — the universe: data subjects with consent
  grants, datasets with derivation lineage, processing requests.
* :mod:`repro.policy.engine` — :class:`PolicyEngine`: compiles consent
  bounds, decides requests (permit/deny), explains denies through the
  leak-witness machinery, applies mid-stream consent revocations.
* :mod:`repro.policy.stream` — replays the deterministic scenario
  traffic from :mod:`repro.synth.policy_traffic` through an engine and
  reports sustained checks/sec with p50/p95/p99 latency.
* :mod:`repro.policy.cli` — the ``p4bid policy check|explain`` verbs.
"""

from repro.policy.model import (
    Dataset,
    PolicyError,
    PolicyUniverse,
    Request,
    SubjectGrant,
)
from repro.policy.engine import Decision, PolicyEngine
from repro.policy.stream import ReplayReport, replay

__all__ = [
    "Dataset",
    "Decision",
    "PolicyEngine",
    "PolicyError",
    "PolicyUniverse",
    "ReplayReport",
    "Request",
    "SubjectGrant",
    "replay",
]
