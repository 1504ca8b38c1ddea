"""The JSON-RPC serving front end (`p4bid serve`).

Drives `WorkspaceServer.handle_line` directly -- the same code path the
stdio and TCP transports use -- and checks both the protocol plumbing
(framing, error codes, notifications) and that served answers match the
one-shot pipeline.
"""

from __future__ import annotations

import gc
import io
import json
import pickle
import weakref

from repro.synth import sharded_dataflow_program
from repro.tool.pipeline import check_source
from repro.workspace import rpc
from repro.workspace.rpc import (
    INVALID_PARAMS,
    IO_ERROR,
    INVALID_REQUEST,
    LINE_TOO_LONG,
    METHOD_NOT_FOUND,
    PARSE_ERROR,
    POLICY_SIZES,
    WORKSPACE_ERROR,
    WorkspaceServer,
    serve_stdio,
    serve_stream,
)

SECURE = sharded_dataflow_program(2, depth=3)
# Make shard0 leak: annotate its last sink field low while the seed is high.
LEAKY = SECURE.replace("bit<8> s2;\n}", "<bit<8>, low> s2;\n}", 1)


class _Touch:
    """Unpickling this opens, so creates, ``path``."""

    def __init__(self, path) -> None:
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def call(server: WorkspaceServer, method: str, params=None, request_id=1):
    """One request/response round trip, decoded."""
    request = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params is not None:
        request["params"] = params
    line = server.handle_line(json.dumps(request))
    assert line is not None
    response = json.loads(line)
    assert response["jsonrpc"] == "2.0"
    assert response["id"] == request_id
    return response


def result_of(server: WorkspaceServer, method: str, params=None):
    response = call(server, method, params)
    assert "error" not in response, response
    return response["result"]


def _verdict(report: dict) -> dict:
    """A served check report without its timings."""
    return {key: value for key, value in report.items() if key != "timing_ms"}


class TestProtocol:
    def test_ping(self):
        server = WorkspaceServer()
        result = result_of(server, "ping", {"hello": "world"})
        assert result == {"pong": True, "echo": {"hello": "world"}}

    def test_blank_lines_are_ignored(self):
        server = WorkspaceServer()
        assert server.handle_line("") is None
        assert server.handle_line("   \n") is None

    def test_malformed_json_is_parse_error(self):
        server = WorkspaceServer()
        response = json.loads(server.handle_line("{not json"))
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None

    def test_non_object_request_is_invalid(self):
        server = WorkspaceServer()
        response = json.loads(server.handle_line("[1, 2, 3]"))
        assert response["error"]["code"] == INVALID_REQUEST

    def test_missing_method_is_invalid(self):
        server = WorkspaceServer()
        response = json.loads(server.handle_line(json.dumps({"id": 7})))
        assert response["error"]["code"] == INVALID_REQUEST
        assert response["id"] == 7

    def test_unknown_method(self):
        response = call(WorkspaceServer(), "frobnicate")
        assert response["error"]["code"] == METHOD_NOT_FOUND

    def test_non_object_params(self):
        server = WorkspaceServer()
        line = json.dumps(
            {"jsonrpc": "2.0", "id": 3, "method": "open", "params": [1]}
        )
        response = json.loads(server.handle_line(line))
        assert response["error"]["code"] == INVALID_PARAMS

    def test_missing_required_param(self):
        response = call(WorkspaceServer(), "open", {})
        assert response["error"]["code"] == INVALID_PARAMS

    def test_workspace_errors_map_to_application_code(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": SECURE})
        response = call(server, "pin", {"slot": "no-such-slot", "label": "high"})
        assert response["error"]["code"] == WORKSPACE_ERROR

    def test_notifications_get_no_response(self):
        server = WorkspaceServer()
        line = json.dumps({"jsonrpc": "2.0", "method": "open", "params": {"source": SECURE}})
        assert server.handle_line(line) is None
        # The notification still took effect.
        assert result_of(server, "stats")["parsed"] is True

    def test_shutdown_stops_the_session(self):
        server = WorkspaceServer()
        assert result_of(server, "shutdown") == {"ok": True}
        assert server.running is False

    def test_error_responses_echo_the_request_id(self):
        """Every error kind (except parse errors, where no id is
        recoverable) must carry the caller's id -- including string ids --
        so concurrent clients can correlate failures."""
        server = WorkspaceServer()
        for request_id in (42, "req-abc"):
            for method, params, code in (
                ("frobnicate", None, METHOD_NOT_FOUND),
                ("open", {}, INVALID_PARAMS),
                ("pin", {"slot": "s", "label": "high"}, WORKSPACE_ERROR),
                ("policy.decide", {"request": 0}, WORKSPACE_ERROR),
            ):
                response = call(server, method, params, request_id=request_id)
                assert response["error"]["code"] == code, (method, response)
                assert response["id"] == request_id

    def test_parse_error_has_null_id(self):
        server = WorkspaceServer()
        response = json.loads(server.handle_line('{"id": 9, "method": '))
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None

    def test_an_id_that_is_no_scalar_is_invalid_and_not_echoed(self):
        # JSON-RPC 2.0 allows a string, a number or null as the id.
        server = WorkspaceServer()
        for request_id in ({"a": 1}, [1], True):
            line = json.dumps({"jsonrpc": "2.0", "id": request_id, "method": "ping"})
            response = json.loads(server.handle_line(line))
            assert response["error"]["code"] == INVALID_REQUEST, request_id
            assert response["id"] is None
        assert call(server, "ping", request_id=2.5)["result"]["pong"] is True

    def test_an_integer_too_long_to_read_is_a_parse_error(self):
        server = WorkspaceServer()
        response = json.loads(server.handle_line('{"id": 1' + "0" * 5000 + ', "method": "ping"}'))
        assert response["error"]["code"] == PARSE_ERROR
        assert response["id"] is None


    def test_failing_notifications_still_report_the_error(self):
        # A notification (no id) that cannot be dispatched gets an error
        # response with a null id, so the failure is never swallowed.
        server = WorkspaceServer()
        line = json.dumps({"jsonrpc": "2.0", "method": "frobnicate"})
        response = json.loads(server.handle_line(line))
        assert response["error"]["code"] == METHOD_NOT_FOUND
        assert response["id"] is None

    def test_a_dropped_server_frees_its_workspace_without_the_collector(self):
        # No reference cycle through the dispatch table: a closed session's
        # program, constraints and graph go when the server does, not at
        # the next full collection.
        gc.disable()
        try:
            server = WorkspaceServer()
            result_of(server, "open", {"source": SECURE})
            result_of(server, "check", {"infer": True})
            workspace = weakref.ref(server.workspace)
            del server
            assert workspace() is None
        finally:
            gc.enable()


class TestStreamLines:
    """``serve_stream``, the TCP transport's loop, over in-memory streams."""

    @staticmethod
    def _served(data: bytes) -> list:
        out = io.BytesIO()
        serve_stream(WorkspaceServer(), io.BytesIO(data), out)
        return [json.loads(line) for line in out.getvalue().splitlines()]

    PING = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "ping"}).encode()

    def test_a_line_that_is_not_utf8_is_a_parse_error(self):
        first, second = self._served(b'{"id": 7, "method": "\xff"}\n' + self.PING + b"\n")
        assert first["error"]["code"] == PARSE_ERROR and first["id"] is None
        assert second["result"]["pong"] is True

    def test_an_overlong_line_is_refused_and_skipped(self, monkeypatch):
        monkeypatch.setattr(rpc, "MAX_LINE_BYTES", len(self.PING))
        overlong = json.dumps({"id": 3, "method": "ping", "params": {"pad": "x" * 200}}).encode()
        responses = self._served(self.PING + b"\n" + overlong + b"\n" + self.PING + b"\n")
        assert [r.get("result", {}).get("pong") for r in responses] == [True, None, True]
        assert responses[1]["error"]["code"] == LINE_TOO_LONG and responses[1]["id"] is None

    def test_a_line_at_the_cap_and_a_last_line_without_newline_are_served(self, monkeypatch):
        monkeypatch.setattr(rpc, "MAX_LINE_BYTES", len(self.PING))
        responses = self._served(self.PING + b"\n" + self.PING)
        assert [r["result"]["pong"] for r in responses] == [True, True]

    def test_shutdown_ends_the_stream(self):
        shutdown = json.dumps({"id": 1, "method": "shutdown"}).encode()
        assert len(self._served(shutdown + b"\n" + self.PING + b"\n")) == 1


class TestPolicyMethods:
    def open_session(self, server, **params):
        defaults = {
            "lattice": "policy-mini",
            "subjects": 6,
            "datasets": 8,
            "events": 60,
            "revoke_every": 20,
            "seed": 0,
        }
        defaults.update(params)
        return result_of(server, "policy.open", defaults)

    def test_methods_require_an_open_session(self):
        server = WorkspaceServer()
        for method, params in (
            ("policy.decide", {"request": 0}),
            ("policy.explain", {"request": 0}),
            ("policy.grant", {"subject": "s0", "label": "bot"}),
            ("policy.replay", {}),
            ("policy.stats", {}),
        ):
            response = call(server, method, params)
            assert response["error"]["code"] == WORKSPACE_ERROR
            assert "policy.open" in response["error"]["message"]

    def test_open_reports_engine_stats(self):
        server = WorkspaceServer()
        opened = self.open_session(server)
        assert opened["opened"] is True
        assert opened["events"] == 60
        assert opened["lattice"] == "policy-mini"
        assert "backend" not in opened
        assert opened["subjects"] == 6 and opened["datasets"] == 8

    def test_open_rejects_non_policy_lattice_and_bad_sizes(self):
        server = WorkspaceServer()
        response = call(server, "policy.open", {"lattice": "two-point"})
        assert response["error"]["code"] == INVALID_PARAMS
        response = call(server, "policy.open", {"lattice": "no-such"})
        assert response["error"]["code"] == WORKSPACE_ERROR
        response = call(server, "policy.open", {"subjects": "many"})
        assert response["error"]["code"] == INVALID_PARAMS
        response = call(server, "policy.open", {"subjects": 0})
        assert response["error"]["code"] == INVALID_PARAMS

    def test_open_bounds_every_size_before_building_anything(self, monkeypatch):
        import importlib

        # The package exports a function of the module's name.
        traffic = importlib.import_module("repro.synth.policy_traffic")

        def refuse(*args, **kwargs):
            raise AssertionError("built a scenario")

        monkeypatch.setattr(traffic, "scenario_universe", refuse)
        monkeypatch.setattr(traffic, "policy_traffic", refuse)
        server = WorkspaceServer()
        for key, (_default, least, greatest) in POLICY_SIZES.items():
            for value in (least - 1, greatest + 1):
                response = call(server, "policy.open", {key: value})
                assert response["error"]["code"] == INVALID_PARAMS, (key, value)
                assert key in response["error"]["message"]

    def test_decide_by_stream_uid_and_adhoc(self):
        server = WorkspaceServer()
        self.open_session(server)
        by_uid = result_of(server, "policy.decide", {"request": 1})
        assert by_uid["request"] == 1
        assert isinstance(by_uid["permit"], bool)
        assert set(by_uid) == {
            "request", "kind", "dataset", "permit", "demand", "bound",
        }
        adhoc = result_of(
            server,
            "policy.decide",
            {
                "dataset": "raw0",
                "purpose": "analytics",
                "recipient": "store",
                "retention": "t0",
            },
        )
        assert adhoc["kind"] == "adhoc"
        assert adhoc["request"] == 60  # uids continue after the stream
        # Unknown labels are an application error, not a crash.
        response = call(
            server,
            "policy.decide",
            {
                "dataset": "raw0",
                "purpose": "nope",
                "recipient": "store",
                "retention": "t0",
            },
        )
        assert response["error"]["code"] == WORKSPACE_ERROR

    def test_decide_rejects_bad_request_params(self):
        server = WorkspaceServer()
        self.open_session(server)
        response = call(server, "policy.decide", {"request": "one"})
        assert response["error"]["code"] == INVALID_PARAMS
        response = call(server, "policy.decide", {"request": 10_000})
        assert response["error"]["code"] == INVALID_PARAMS
        response = call(server, "policy.decide", {"dataset": "raw0"})
        assert response["error"]["code"] == INVALID_PARAMS

    def test_grant_then_decide_flips_to_deny(self):
        server = WorkspaceServer()
        self.open_session(server)
        params = {
            "dataset": "raw0",
            "purpose": "analytics",
            "recipient": "store",
            "retention": "t0",
        }
        before = result_of(server, "policy.decide", dict(params))
        granted = result_of(
            server, "policy.grant", {"subject": "s0", "label": "bot"}
        )
        assert granted["subject"] == "s0"
        assert "raw0" in granted["recompiled_datasets"]
        after = result_of(server, "policy.decide", dict(params))
        assert after["permit"] is False
        assert before["bound"] != after["bound"]
        # Unparseable labels are invalid params.
        response = call(
            server, "policy.grant", {"subject": "s0", "label": "???"}
        )
        assert response["error"]["code"] == INVALID_PARAMS
        response = call(
            server, "policy.grant", {"subject": "ghost", "label": "bot"}
        )
        assert response["error"]["code"] == WORKSPACE_ERROR

    def test_explain_deny_carries_witnesses(self):
        server = WorkspaceServer()
        self.open_session(server)
        result_of(server, "policy.grant", {"subject": "s0", "label": "bot"})
        explained = result_of(
            server,
            "policy.explain",
            {
                "dataset": "raw0",
                "purpose": "analytics",
                "recipient": "store",
                "retention": "t0",
            },
        )
        assert explained["decision"]["permit"] is False
        assert explained["violated_subjects"] == ["s0"]
        assert explained["witnesses"]
        assert all(
            isinstance(line, str)
            for witness in explained["witnesses"]
            for line in witness
        )

    def test_replay_returns_report_and_optional_log(self):
        server = WorkspaceServer()
        self.open_session(server)
        payload = result_of(server, "policy.replay", {"limit": 30, "log": True})
        assert payload["events"] == 30
        assert payload["decisions"] + payload["revocations"] == 30
        assert len(payload["log"]) == payload["decisions"]
        assert payload["checks_per_sec"] > 0
        assert set(payload["latency_us"]) == {"mean", "p50", "p95", "p99", "max"}
        response = call(server, "policy.replay", {"limit": 0})
        assert response["error"]["code"] == INVALID_PARAMS

    def test_stats_accumulate(self):
        server = WorkspaceServer()
        self.open_session(server)
        result_of(server, "policy.decide", {"request": 1})
        result_of(server, "policy.replay", {"limit": 10})
        stats = result_of(server, "policy.stats", {})
        assert stats["events"] == 60
        assert stats["decisions"] >= 11
        assert stats["permits"] + stats["denies"] == stats["decisions"]

    def test_policy_session_is_independent_of_workspace(self):
        server = WorkspaceServer()
        self.open_session(server)
        result_of(server, "open", {"source": SECURE, "filename": "<input>"})
        assert result_of(server, "infer")["ok"] is True
        assert result_of(server, "policy.stats", {})["events"] == 60


class TestServedAnswers:
    def test_open_check_matches_one_shot_pipeline(self):
        server = WorkspaceServer()
        opened = result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        assert opened == {"parsed": True, "revision": 1, "parse_error": None}
        served = result_of(server, "check", {"infer": True, "lint": True})
        report = check_source(LEAKY, infer=True, lint=True, filename="<input>")
        from repro.tool.report import report_to_dict

        expected = report_to_dict(report)
        # Wall-clock timing is the one legitimately nondeterministic field.
        for payload in (served, expected):
            payload.get("inference", {}).get("solver", {}).pop("solve_ms", None)
        for key in ("ok", "diagnostics", "inference", "analysis"):
            assert served.get(key) == expected.get(key)

    def test_edit_then_infer_matches_cold(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": SECURE, "filename": "<input>"})
        result_of(server, "check", {"infer": True})
        edited = result_of(server, "edit", {"source": LEAKY})
        assert edited["revision"] == 2
        served = result_of(server, "infer")
        cold = check_source(LEAKY, infer=True, filename="<input>").inference_result
        lattice = server.workspace.lattice
        assert served["ok"] == cold.ok
        assert served["assignment"] == {
            site.hint: lattice.format_label(site.label) for site in cold.inferred
        }
        assert served["diagnostics"] == [str(x) for x in cold.diagnostics]
        # The edit was served warm: shard1 was never re-walked.
        regen = result_of(server, "stats")["regen"]
        assert regen["units_reused"] > 0

    def test_unsat_core_and_witnesses(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        cores = result_of(server, "unsat_core")["cores"]
        assert cores and all(core["core"] for core in cores)
        witnesses = result_of(server, "witnesses")["witnesses"]
        assert witnesses and all(isinstance(w, str) for w in witnesses)

    def test_pin_round_trip(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": SECURE, "filename": "<input>"})
        baseline = result_of(server, "infer")["assignment"]
        slot = sorted(baseline)[0]
        pins = result_of(server, "pin", {"slot": slot, "label": "high"})["pins"]
        assert pins == {slot: "high"}
        assert result_of(server, "infer")["assignment"][slot] == "high"
        pins = result_of(server, "pin", {"slot": slot, "label": None})["pins"]
        assert pins == {}
        assert result_of(server, "infer")["assignment"] == baseline

    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "served.p4bidws")
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        before = result_of(server, "infer")
        saved = result_of(server, "save", {"path": path})
        assert saved["saved"] == path

        fresh = WorkspaceServer()
        loaded = result_of(fresh, "load", {"path": path})
        assert loaded["revision"] == 1
        assert result_of(fresh, "infer") == before

    def test_save_to_an_unwritable_path_is_an_error_response(self, tmp_path):
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        before = _verdict(result_of(server, "check", {"infer": True}))
        missing_dir = str(tmp_path / "no-such-dir" / "served.p4bidws")
        for path in (missing_dir, str(tmp_path)):  # a missing parent; a directory
            response = call(server, "save", {"path": path})
            assert response["error"]["code"] == IO_ERROR
            assert response["error"]["message"].startswith("save: ")
        # The session is still up and answers from the previous revision.
        assert _verdict(result_of(server, "check", {"infer": True})) == before

    def test_load_of_a_missing_file_is_an_error_response(self, tmp_path):
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        before = _verdict(result_of(server, "check", {"infer": True}))
        response = call(server, "load", {"path": str(tmp_path / "absent.p4bidws")})
        assert response["error"]["code"] == IO_ERROR
        assert "absent.p4bidws" in response["error"]["message"]
        assert _verdict(result_of(server, "check", {"infer": True})) == before
        assert result_of(server, "stats")["revision"] == 1

    def test_load_never_unpickles(self, tmp_path):
        marker = tmp_path / "marker"
        path = tmp_path / "served.p4bidws"
        path.write_bytes(pickle.dumps(_Touch(marker), protocol=4))
        response = call(WorkspaceServer(), "load", {"path": str(path)})
        assert response["error"]["code"] == WORKSPACE_ERROR
        assert not marker.exists()

    def test_bad_load_keeps_the_session(self, tmp_path):
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        result_of(server, "edit", {"source": SECURE})
        before = _verdict(result_of(server, "check", {"infer": True}))
        path = tmp_path / "served.p4bidws"
        result_of(server, "save", {"path": str(path)})
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        for bad in (
            b"\x80\x04not json",
            json.dumps({**snapshot, "version": 4}).encode(),
            json.dumps({**snapshot, "lattice": "no-such-lattice"}).encode(),
            json.dumps({**snapshot, "pins": {"no-such-slot": "high"}}).encode(),
        ):
            path.write_bytes(bad)
            response = call(server, "load", {"path": str(path)})
            assert response["error"]["code"] == WORKSPACE_ERROR
            assert _verdict(result_of(server, "check", {"infer": True})) == before
            assert result_of(server, "stats")["revision"] == 2

    def test_hostile_lines_leave_the_session_answering(self, tmp_path):
        """Lines that used to escape ``handle_line`` -- deep nesting, a
        method that is not a string, lattices of any size -- each get a
        JSON-RPC error, and the session still answers from its revision."""
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        before = _verdict(result_of(server, "check", {"infer": True}))
        path = tmp_path / "served.p4bidws"
        result_of(server, "save", {"path": str(path)})
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**snapshot, "lattice": "chain-100000000"}))
        probes = [
            ("[" * 200000, PARSE_ERROR),
            (json.dumps({"jsonrpc": "2.0", "id": 7, "method": ["x"]}), INVALID_REQUEST),
            (json.dumps({"jsonrpc": "2.0", "id": 7, "method": {"a": 1}}), INVALID_REQUEST),
            (json.dumps({"jsonrpc": "2.0", "id": 7, "method": "load", "params": {"path": str(path)}}), WORKSPACE_ERROR),
        ]
        for lattice in ("chain-100000000", "chain-" + "9" * 5000, "policy-100000-96-8"):
            request = {"jsonrpc": "2.0", "id": 7, "method": "policy.open", "params": {"lattice": lattice}}
            probes.append((json.dumps(request), WORKSPACE_ERROR))
        for line, code in probes:
            response = json.loads(server.handle_line(line))
            assert response["error"]["code"] == code, line[:80]
            assert _verdict(result_of(server, "check", {"infer": True})) == before
        assert result_of(server, "stats")["revision"] == 1

    def test_loosely_typed_parameters_are_invalid(self):
        """A parameter of the wrong type is ``-32602``, not coerced or
        echoed, and the session still answers from its revision."""
        server = WorkspaceServer()
        result_of(server, "open", {"source": LEAKY, "filename": "<input>"})
        before = _verdict(result_of(server, "check", {"infer": True}))
        probes = [
            ("open", {"source": SECURE, "filename": 5}),
            ("open", {"source": SECURE, "name": ["n"]}),
            ("check", {"infer": "yes"}),
            ("check", {"include_ifc": 0}),
            ("check", {"lint": "no"}),
            ("check", {"explain_flows": {}}),
        ]
        for method, params in probes:
            response = call(server, method, params)
            assert response["error"]["code"] == INVALID_PARAMS, (method, params)
            assert _verdict(result_of(server, "check", {"infer": True})) == before
        assert result_of(server, "stats")["revision"] == 1
        # Absent and null still take the defaults.
        reopened = result_of(server, "open", {"source": LEAKY, "filename": "<input>", "name": None})
        assert reopened["parsed"]
        report = result_of(server, "check", {"infer": True, "lint": None})
        assert report["ok"] == before["ok"]
        assert report["ifc_diagnostics"] == before["ifc_diagnostics"]

    def test_lint_findings_serialised(self):
        server = WorkspaceServer()
        result_of(server, "open", {"source": SECURE, "filename": "<input>"})
        findings = result_of(server, "lint")["findings"]
        for finding in findings:
            assert set(finding) == {"code", "severity", "message", "span"}


class TestStdioTransport:
    """``serve_stdio`` runs the stream loop over stdin/stdout as bytes."""

    @staticmethod
    def _served(data: bytes) -> list:
        stdout = io.BytesIO()
        assert serve_stdio(stdin=io.BytesIO(data), stdout=stdout) == 0
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_request_response_loop(self):
        lines = [
            json.dumps({"jsonrpc": "2.0", "id": 1, "method": "open",
                        "params": {"source": SECURE, "filename": "<input>"}}),
            json.dumps({"jsonrpc": "2.0", "id": 2, "method": "infer"}),
            json.dumps({"jsonrpc": "2.0", "id": 3, "method": "shutdown"}),
            json.dumps({"jsonrpc": "2.0", "id": 4, "method": "ping"}),
        ]
        responses = self._served(("\n".join(lines) + "\n").encode())
        # The loop stops at shutdown; the trailing ping is never served.
        assert [r["id"] for r in responses] == [1, 2, 3]
        assert responses[0]["result"]["parsed"] is True
        assert responses[1]["result"]["ok"] is True
        assert responses[2]["result"] == {"ok": True}

    def test_a_line_that_is_not_utf8_is_a_parse_error(self):
        ping = TestStreamLines.PING
        first, second = self._served(b'{"id": 7, "method": "\xff"}\n' + ping + b"\n")
        assert first["error"]["code"] == PARSE_ERROR and first["id"] is None
        assert second["result"]["pong"] is True

    def test_a_line_over_the_cap_is_refused_and_skipped(self, monkeypatch):
        ping = TestStreamLines.PING
        monkeypatch.setattr(rpc, "MAX_LINE_BYTES", len(ping))
        overlong = json.dumps({"id": 3, "method": "ping", "params": {"pad": "x" * 200}}).encode()
        responses = self._served(overlong + b"\n" + ping + b"\n")
        assert responses[0]["error"]["code"] == LINE_TOO_LONG and responses[0]["id"] is None
        assert responses[1]["result"]["pong"] is True


class TestServedBytes:
    """A served check's labels are spliced from per-unit encoded
    fragments: every response line is exactly ``json.dumps`` of what it
    decodes to, and its labels are a cold check's of the same state."""

    SOURCE = sharded_dataflow_program(4, depth=5, source_level="low")
    SEED = "header shard1_t {\n    <bit<8>, low> seed;"
    SLOT = "field shard2_t.s1"

    @staticmethod
    def _request(method: str, **params) -> str:
        return json.dumps({"jsonrpc": "2.0", "id": 1, "method": method, "params": params})

    def _cold_labels(self, source: str, pins: dict) -> list:
        from repro.tool.report import report_to_dict
        from repro.workspace import Workspace

        workspace = Workspace()
        assert workspace.open(source, filename="<input>")
        for slot, label in pins.items():
            workspace.pin(slot, label)
        return report_to_dict(workspace.check(infer=True))["inference"]["labels"]

    def test_the_served_script_is_byte_identical_to_json_dumps(self):
        raised = self.SOURCE.replace(self.SEED, self.SEED.replace("low", "high"))
        shard = self.SOURCE.index("header shard2_t")
        spaced = self.SOURCE[:shard] + "\n" + self.SOURCE[shard:]
        check = self._request("check", infer=True)
        script = [
            (self._request("open", source=self.SOURCE, filename="<input>"), self.SOURCE, {}),
            (check, self.SOURCE, {}),
            (self._request("edit", source=raised), raised, {}),
            (check, raised, {}),
            (self._request("edit", source=self.SOURCE), self.SOURCE, {}),
            (check, self.SOURCE, {}),
            (self._request("pin", slot=self.SLOT, label="high"), self.SOURCE, {self.SLOT: "high"}),
            (check, self.SOURCE, {self.SLOT: "high"}),
            (self._request("pin", slot=self.SLOT, label=None), self.SOURCE, {}),
            (check, self.SOURCE, {}),
            (self._request("edit", source=spaced), spaced, {}),
            (check, spaced, {}),
            # Lint checks without inference give the moved set up.
            *[
                step
                for cycle in range(6)
                for text in ([raised, spaced][cycle % 2],)
                for step in (
                    (self._request("edit", source=text), text, {}),
                    (self._request("check", lint=True), text, {}),
                )
            ],
            (self._request("check", infer=False), spaced, {}),
            (check, spaced, {}),
        ]
        server = WorkspaceServer()
        served = 0
        for line, source, pins in script:
            response = server.handle_line(line)
            assert response == json.dumps(json.loads(response))
            if line == check:
                labels = json.loads(response)["result"]["inference"]["labels"]
                assert labels == self._cold_labels(source, pins)
                served += 1
        assert served == 7
