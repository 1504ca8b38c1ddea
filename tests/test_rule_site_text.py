"""The text of rule sites: made only when read, and unchanged when it is.

A :class:`repro.flow.algebra.RuleSite` carries its constraint reason and
its diagnostic message as text or as a callable that makes the text on
first read.  These tests pin, verbatim, the text that users and other
layers read -- concrete diagnostics, the served ``unsat_core`` reasons,
the ``witnesses`` text and the subject the policy engine parses from a
constraint reason -- and count the ``Expression.describe`` calls a check
makes, so text that nothing reads is not made.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.casestudies import all_case_studies
from repro.flow.algebra import RuleSite
from repro.frontend.parser import parse_program
from repro.ifc import ViolationKind, check_ifc
from repro.inference import generate_constraints
from repro.lattice.registry import get_lattice
from repro.syntax import expressions as e
from repro.syntax.source import SourceSpan
from repro.synth import sharded_dataflow_program
from repro.tool.pipeline import check_source
from repro.workspace.rpc import WorkspaceServer

PRELUDE = """
header h_t {
    <bit<8>, low>  pub;
    <bit<8>, low>  pub2;
    <bit<8>, high> sec;
    <bit<8>, high> sec2;
    <bool, low>    pub_flag;
    <bool, high>   sec_flag;
}
struct headers { h_t h; }
"""

CALL_LOCALS = (
    "  action f(in <bit<8>, low> a, in <bit<8>, low> b, in <bit<8>, high> c)"
    " { hdr.h.sec = a; }"
)

SECURE = sharded_dataflow_program(2, depth=3)
LEAKY = SECURE.replace("bit<8> s2;\n}", "<bit<8>, low> s2;\n}", 1)


def ifc(body: str, locals_: str = ""):
    source = (
        PRELUDE + "control C(inout headers hdr) {\n" + locals_ + "\n  apply {\n" + body + "\n  }\n}"
    )
    return check_ifc(parse_program(source))


def result_of(server: WorkspaceServer, method: str, params=None):
    request = {"jsonrpc": "2.0", "id": 1, "method": method}
    if params is not None:
        request["params"] = params
    return json.loads(server.handle_line(json.dumps(request)))["result"]


class TestLazyRuleSite:
    def test_callable_text_is_made_once_on_first_read(self):
        made = []

        def reason():
            made.append("reason")
            return "x flows into y"

        site = RuleSite(
            SourceSpan.unknown(), "T-Assign", ViolationKind.EXPLICIT_FLOW, reason,
            lambda: "{src} into {dst}",
        )
        assert made == []
        assert site.reason == "x flows into y"
        assert site.reason == "x flows into y"
        assert made == ["reason"]
        assert site.message == "{src} into {dst}"

    def test_plain_text_and_default_message(self):
        site = RuleSite(
            SourceSpan.unknown(), "T-Exit", ViolationKind.CONTROL_SIGNAL, "only {lhs}"
        )
        assert site.reason == "only {lhs}"
        assert site.message == ""
        assert site.pc_obligation is False


@pytest.fixture
def describe_calls(monkeypatch):
    """Counts ``Expression.describe`` calls made outside ``describe`` itself
    (a rendering of a nested expression is part of its root's call)."""
    calls = []
    for cls in (e.Expression, *e.Expression.__subclasses__()):
        if "describe" not in vars(cls):
            continue

        def counted(self, _describe=vars(cls)["describe"]):
            if sys._getframe(1).f_code.co_name != "describe":
                calls.append(type(self).__name__)
            return _describe(self)

        monkeypatch.setattr(cls, "describe", counted)
    return calls


class TestTextMadeOnlyWhenRead:
    """Timing-free: the checks make expression text for what they report
    and for the constraints they keep, and for nothing else."""

    @pytest.mark.parametrize("study", all_case_studies(), ids=lambda study: study.name)
    def test_secure_case_study_makes_no_text(self, study, describe_calls):
        report = check_source(study.secure_source, study.lattice_name, infer=True)
        assert report.ok
        assert describe_calls == []

    def test_inference_makes_text_only_for_kept_constraints(self, describe_calls):
        source = sharded_dataflow_program(4, depth=5)
        assert check_source(source, infer=True).ok
        made = len(describe_calls)
        describe_calls.clear()
        kept = generate_constraints(parse_program(source), get_lattice("two-point")).constraints
        # Each kept T-Assign constraint's reason names its value and target.
        assert made == 2 * len({c.span for c in kept if c.rule == "T-Assign"}) > 0

    @pytest.mark.parametrize("study", all_case_studies(), ids=lambda study: study.name)
    def test_insecure_case_study_makes_text_for_its_reports(self, study, describe_calls):
        report = check_source(study.insecure_source, study.lattice_name)
        assert not report.ok
        # A reported message names at most two expressions.
        assert 0 < len(describe_calls) <= 2 * len(report.diagnostics)


class TestPinnedText:
    """Recorded from the eager sources the laziness replaced."""

    def test_explicit_flow_assignment(self):
        result = ifc("hdr.h.pub = hdr.h.pub2 + hdr.h.sec;")
        assert [str(diag) for diag in result.diagnostics] == [
            "<input>:14:1: explicit-flow [T-Assign]: cannot assign "
            "'(hdr.h.pub2 + hdr.h.sec)' (label high) to 'hdr.h.pub' (label low): "
            "low <- high is not allowed"
        ]

    def test_implicit_flow_assignment(self):
        result = ifc("if (hdr.h.sec_flag) { hdr.h.pub = hdr.h.pub2; }")
        assert [str(diag) for diag in result.diagnostics] == [
            "<input>:14:23: implicit-flow [T-Assign]: assignment to 'hdr.h.pub' "
            "(label low) occurs in a context of level high; the branch or table "
            "key would leak implicitly"
        ]

    def test_argument_message_names_its_own_argument(self):
        # The failing argument is the middle one of three: a site whose text
        # bound the loop variables late would name 'hdr.h.sec2' and 'c'.
        result = ifc("f(hdr.h.pub, hdr.h.sec, hdr.h.sec2);", CALL_LOCALS)
        assert [str(diag) for diag in result.diagnostics] == [
            "<input>:14:14: argument-flow [T-Call]: argument 'hdr.h.sec' has "
            "label high, which may not flow into parameter 'b' of 'f' (label low)"
        ]

    def test_served_unsat_core_reasons(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        assert result_of(server, "unsat_core")["cores"] == [
            {
                "message": (
                    "<input>:23:9: explicit-flow [T-Assign]: 'hdr.data.s1' flows "
                    "into 'hdr.data.s2': inferred label high may not flow below "
                    "low (labels forced up at: <input>:22:9, <input>:21:9)"
                ),
                "span": "<input>:23:9",
                "observed": "high",
                "required": "low",
                "core": [
                    {
                        "span": "<input>:22:9",
                        "rule": "T-Assign",
                        "reason": "'hdr.data.s0' flows into 'hdr.data.s1'",
                    },
                    {
                        "span": "<input>:21:9",
                        "rule": "T-Assign",
                        "reason": "'hdr.data.seed' flows into 'hdr.data.s0'",
                    },
                ],
            }
        ]

    def test_served_witnesses(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        assert result_of(server, "witnesses")["witnesses"] == [
            "leak path (3 hop(s)): high reaches a sink bounded by low\n"
            "  1. raises field shard0_t.s0 to high at <input>:21:9 "
            "('hdr.data.seed' flows into 'hdr.data.s0')\n"
            "  2. raises field shard0_t.s1 to high at <input>:22:9 "
            "('hdr.data.s0' flows into 'hdr.data.s1')\n"
            "  3. fails the check field shard0_t.s1 ⊑ low at <input>:23:9"
        ]

    def test_policy_subject_parsed_from_the_constraint_reason(self):
        server = WorkspaceServer()
        result_of(
            server,
            "policy.open",
            {
                "lattice": "policy-mini",
                "subjects": 6,
                "datasets": 8,
                "events": 60,
                "revoke_every": 20,
                "seed": 0,
            },
        )
        result_of(server, "policy.grant", {"subject": "s0", "label": "bot"})
        explained = result_of(
            server,
            "policy.explain",
            {"dataset": "raw0", "purpose": "analytics", "recipient": "store", "retention": "t0"},
        )
        assert explained["violated_subjects"] == ["s0"]
        assert explained["witnesses"] == [
            [
                "leak path (2 hop(s)): {analytics}|{store}|t0 reaches a sink "
                "bounded by {}|{}|t0",
                "  1. raises use(raw0) to {analytics}|{store}|t0 (request #60 "
                "[adhoc]: use 'raw0' for 'analytics' -> 'store' (keep 't0'))",
                "  2. fails the check use(raw0) ⊑ P__R__t0",
            ]
        ]
