"""The benchmark's own tests: a wrong answer must count as a failed op.

Run from the repository root (takes a few seconds)::

    python3 perfbench/selftest.py

Each case corrupts exactly one answer of one workload -- a flipped
verdict, a wrong inferred label, a flipped decision, a wrong regrant
fan-out, an op that raises -- runs the workload's loop for one cycle or
pass, and checks that exactly that op is counted as failed, while the
uncorrupted run counts none.  Not collected by pytest (the file name
does not match ``test_*.py``), so tier-1 never runs a benchmark.
"""

from __future__ import annotations

import dataclasses
import io
import sys
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), "src"]

import cold_check  # noqa: E402
import policy_stream  # noqa: E402
import warm_edit  # noqa: E402
from harness import GcWatch, changed_units, per_layer, quantile, top_level_units  # noqa: E402
from spans import OP_SPANS, Tracer  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


@contextmanager
def patched(owner, name: str, make):
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def once(corrupt):
    """Wrap a function so that only its ``n``-th result is corrupted."""

    def make(original):
        calls = [0]

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls[0] += 1
            return corrupt(result, calls[0], args)

        return wrapper

    return make


def one_cycle(workload):
    return workload.run(0.0, None)


def test_helpers() -> None:
    expect(quantile([1, 2, 3, 4], 0.5) == 2.5, "quantile interpolates")
    source = "header h { bit<8> a; }\n// } not a unit\nstruct s { h x; }\ncontrol C() { apply { } }\n"
    expect(len(top_level_units(source)) == 3, "top-level units split at depth 0")
    edited = source.replace("bit<8> a", "bit<16> a")
    expect(changed_units(source, edited) == 1, "one unit changed")


def test_cold_check() -> None:
    from repro.tool import report

    workload = cold_check.Workload(7)
    clean = one_cycle(workload)
    expect(clean.failed == 0 and clean.attempted == 2, f"clean cold_check cycle: {clean}")

    def flip_secure(result, call, args):
        if args[0].name == "d2r-secure":
            result["ok"] = not result["ok"]
        return result

    with patched(report, "report_to_dict", once(flip_secure)):
        bad = one_cycle(workload)
    # The corpus pass (op) fails; the single-file update does not.
    expect(bad.failed == 1 and bad.attempted == 2, f"flipped verdict counted: {bad}")

    def raise_on_third(original):
        calls = [0]

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 3:
                raise RuntimeError("injected")
            return original(*args, **kwargs)

        return wrapper

    import repro

    with patched(repro, "check_source", raise_on_third), redirect_stderr(io.StringIO()):
        raised = one_cycle(workload)
    expect(raised.failed == 1, f"an op that raises is a failed op: {raised}")


def test_warm_edit() -> None:
    from repro.tool import report

    workload = warm_edit.Workload(7)
    workload.setup_once()
    clean = one_cycle(workload)
    expect(clean.failed == 0 and clean.attempted == 4, f"clean warm_edit cycle: {clean}")

    def wrong_label(result, call, args):
        # Call 1..4 are the warm-up cycle; call 5 is the first timed op.
        if call == 5:
            first = result["inference"]["labels"][0]
            first["label"] = "high" if first["label"] == "low" else "low"
        return result

    with patched(report, "report_to_dict", once(wrong_label)):
        bad = one_cycle(workload)
    expect(bad.failed == 1 and bad.attempted == 4, f"wrong inferred label counted: {bad}")


def test_policy_stream() -> None:
    from repro.policy.engine import PolicyEngine

    workload = policy_stream.Workload(7)
    clean = one_cycle(workload)
    expect(clean.failed == 0 and clean.attempted == policy_stream.STREAMS * policy_stream.EVENTS,
           f"clean policy pass: {clean.failed} of {clean.attempted}")

    def flip_decision(result, call, args):
        return dataclasses.replace(result, permit=not result.permit) if call == 10 else result

    with patched(PolicyEngine, "decide", once(flip_decision)):
        bad = one_cycle(workload)
    expect(bad.failed == 1, f"flipped decision counted: {bad.failed}")

    def extra_dataset(result, call, args):
        return result + ("not-a-dataset",) if call == 1 else result

    with patched(PolicyEngine, "set_grant", once(extra_dataset)):
        bad = one_cycle(workload)
    expect(bad.failed == 1, f"wrong regrant fan-out counted: {bad.failed}")


def test_trace_accounting() -> None:
    """Self times plus glue add up to the traced op on every workload."""
    for workload in (cold_check.Workload(7), warm_edit.Workload(7), policy_stream.Workload(7)):
        tracer = Tracer()
        # Long enough for at least one untraced and one traced cycle.
        m = workload.run(2.0, tracer)
        expect(m.traced_ops > 0 and m.failed == 0, f"{type(workload).__module__} traced run")
        metrics = per_layer(m, tracer, GcWatch())
        total = sum(metrics[f"{name}_ms"] for name in OP_SPANS)
        expect(abs(total - metrics["trace.op_ms"]) <= 1e-9 * total,
               f"{type(workload).__module__}: layers {total} != op {metrics['trace.op_ms']}")
        expect(metrics["trace.overhead"] > 0, "trace.overhead reported")


def main() -> int:
    for test in (test_helpers, test_cold_check, test_warm_edit, test_policy_stream,
                 test_trace_accounting):
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
