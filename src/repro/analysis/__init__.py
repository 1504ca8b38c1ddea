"""Static analyses over the label-flow structure.

The checker and the inference solver answer "does it check?"; this
package answers the follow-up questions a reviewer actually asks, over the
same propagation graph the one constraint solver builds:

* *why does it fail?* -- :mod:`repro.analysis.witness` walks the
  propagation graph backwards from a failing obligation to the nearest
  source annotation and returns the shortest provenance chain;
* *what is sloppy even though it checks?* -- :mod:`repro.analysis.lints`
  runs the coded ``P4B0xx`` rules (redundant/slack annotations,
  ineffective declassify, dead slots, unreachable code) defined in
  :mod:`repro.analysis.rules`;
* *how do tools consume it?* -- :mod:`repro.analysis.sarif` serialises
  findings as SARIF 2.1.0 (``p4bid --lint --sarif FILE``).
"""

from repro.analysis.lints import (
    DeclassifySite,
    ReleasedFlow,
    explain_flows,
    probe_declassifications,
    run_lints,
)
from repro.analysis.rules import (
    ALL_RULES,
    Finding,
    LintRule,
    RelatedSpan,
    Severity,
    rule_by_code,
    rule_for_violation,
    rule_table,
)
from repro.analysis.sarif import (
    finding_from_parse_error,
    findings_from_core,
    findings_from_diagnostics,
    sarif_document,
    sarif_json,
)
from repro.analysis.witness import (
    LeakWitness,
    WitnessHop,
    witness_for_conflict,
    witnesses_for_solution,
)

__all__ = [
    "ALL_RULES",
    "DeclassifySite",
    "Finding",
    "LeakWitness",
    "LintRule",
    "RelatedSpan",
    "ReleasedFlow",
    "Severity",
    "WitnessHop",
    "explain_flows",
    "finding_from_parse_error",
    "findings_from_core",
    "findings_from_diagnostics",
    "probe_declassifications",
    "rule_by_code",
    "rule_for_violation",
    "rule_table",
    "run_lints",
    "sarif_document",
    "sarif_json",
    "witness_for_conflict",
    "witnesses_for_solution",
]
