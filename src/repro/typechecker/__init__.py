"""The ordinary (label-free) Core P4 type system of Figure 3.

This is the baseline the paper compares against in Table 1: checking an
*unannotated* program uses only these rules, while P4BID additionally
runs the security rules of :mod:`repro.ifc`.  Both are one walk, the
Figure 5–7 traversal of :mod:`repro.flow`, which reports the Core P4
diagnostics next to its label outputs; :func:`check_core_types` runs it
without labels.
"""

from repro.typechecker.errors import CoreTypeError, TypeDiagnostic

__all__ = [
    "CoreTypeError",
    "TypeDiagnostic",
    "CoreCheckResult",
    "check_core_types",
]


def __getattr__(name: str):
    # The checker is resolved lazily (PEP 562): it runs the flow walk,
    # whose algebras import this package's diagnostics.
    if name in ("CoreCheckResult", "check_core_types"):
        from repro.typechecker import checker

        return getattr(checker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
