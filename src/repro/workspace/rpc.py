"""JSON-RPC 2.0 serving front end over a warm :class:`Workspace`.

``p4bid serve`` speaks newline-delimited JSON-RPC 2.0 -- one request
object per line, one response per line -- over stdin/stdout by default,
or over TCP with ``--tcp HOST:PORT`` (one workspace per connection).
The protocol is editor-agnostic on purpose: an LSP shim, a CI harness,
or three lines of Python (see ``examples/serving_a_workspace.py``) can
drive it.

Methods (``params`` is always an object):

====================  =====================================================
``ping``              liveness probe; echoes ``params``
``open``              ``{source, filename?, name?}`` -- install revision 1
``edit``              ``{source}`` -- install the next revision
``check``             ``{infer?, lint?, include_ifc?, explain_flows?}`` --
                      full pipeline report over the warm state
``infer``             solved slot assignment + diagnostics
``pin``               ``{slot, label}`` (``label: null`` unpins)
``unsat_core``        conflicts with their unsatisfiable cores
``witnesses``         leak-path witnesses for the current conflicts
``lint``              static-analysis findings over the warm graph
``stats``             workspace/cache/solver counters snapshot
``save`` / ``load``   ``{path}`` -- JSON snapshot of source, options, pins
``shutdown``          acknowledge and close the session
``policy.open``       ``{lattice?, subjects?, datasets?, events?,
                      revoke_every?, seed?}`` -- build the
                      deterministic compliance scenario + decision engine
``policy.decide``     ``{dataset, purpose, recipient, retention, kind?}``
                      or ``{request: uid}`` -- one permit/deny decision
``policy.explain``    same params -- decision plus shortest
                      policy-violation chains on a deny
``policy.grant``      ``{subject, label}`` -- consent grant/revocation
                      (``label`` parsed by the policy lattice; ``"bot"``
                      revokes everything)
``policy.replay``     ``{limit?, log?}`` -- replay the scenario stream,
                      returning throughput/latency and optionally the log
``policy.stats``      engine counters (decisions, permits, denies, ...)
====================  =====================================================

Error codes follow the JSON-RPC 2.0 spec: ``-32700`` parse error (also
for a line that is not UTF-8), ``-32600`` invalid request (also for an
``id`` that is not a string, a number or null), ``-32601`` method not
found, ``-32602`` invalid params (also for a ``policy.open`` size out of
its bounds), ``-32000`` workspace errors (no program open, unknown slot,
malformed snapshot, ...), ``-32001`` I/O errors (``save`` / ``load`` on a
path the server cannot write or read), ``-32002`` a request line longer
than :data:`MAX_LINE_BYTES`.  A failed request changes nothing: the
session keeps its workspace and answers the next request.
"""

from __future__ import annotations

import json
import socketserver
import sys
from typing import Any, BinaryIO, Dict, Optional, TextIO

from repro.workspace.session import Workspace, WorkspaceError

PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
WORKSPACE_ERROR = -32000
IO_ERROR = -32001
LINE_TOO_LONG = -32002

#: The longest request line a stream session reads, in bytes (newline
#: excluded); a longer one is answered with ``LINE_TOO_LONG`` and skipped
#: without being kept.
MAX_LINE_BYTES = 16 * 1024 * 1024

#: ``policy.open`` size parameters: ``(default, least, greatest)``.  The
#: scenario is built eagerly, so each is bounded before anything is.
POLICY_SIZES = {
    "subjects": (24, 1, 4096),
    "datasets": (12, 1, 4096),
    "events": (1000, 1, 200_000),
    # 0: no grant is ever revoked.
    "revoke_every": (200, 0, 200_000),
}


class _RpcError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


class WorkspaceServer:
    """One serving session: a warm workspace plus the RPC dispatch."""

    #: RPC method -> handler attribute.  Names, not bound methods: a dict
    #: of bound methods on the instance is a reference cycle, which kept a
    #: dropped server's whole workspace alive until a full collection.
    _METHODS: Dict[str, str] = {
        "ping": "_ping",
        "open": "_open",
        "edit": "_edit",
        "check": "_check",
        "infer": "_infer",
        "pin": "_pin",
        "unsat_core": "_unsat_core",
        "witnesses": "_witnesses",
        "lint": "_lint",
        "stats": "_stats",
        "save": "_save",
        "load": "_load",
        "shutdown": "_shutdown",
        "policy.open": "_policy_open",
        "policy.decide": "_policy_decide",
        "policy.explain": "_policy_explain",
        "policy.grant": "_policy_grant",
        "policy.replay": "_policy_replay",
        "policy.stats": "_policy_stats",
    }

    def __init__(
        self,
        *,
        lattice: str = "two-point",
        allow_declassification: bool = False,
    ) -> None:
        self.workspace = Workspace(
            lattice, allow_declassification=allow_declassification
        )
        self.running = True
        #: The compliance session: ``(engine, events)`` after ``policy.open``.
        self._policy = None
        self._policy_next_uid = 0

    # ------------------------------------------------------------------ dispatch

    def handle_line(self, line: str) -> Optional[str]:
        """Process one request line; returns the response line (or
        ``None`` for blank input and JSON-RPC notifications)."""
        line = line.strip()
        if not line:
            return None
        try:
            request = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an int too long to read
            return self._encode_error(None, PARSE_ERROR, f"parse error: {exc}")
        except RecursionError:
            return self._encode_error(None, PARSE_ERROR, "parse error: nested too deeply")
        request_id = request.get("id") if isinstance(request, dict) else None
        if request_id is not None and (
            isinstance(request_id, bool) or not isinstance(request_id, (str, int, float))
        ):
            return self._encode_error(
                None,
                INVALID_REQUEST,
                "invalid request: 'id' must be a string, a number or null",
            )
        if not isinstance(request, dict) or not isinstance(request.get("method"), str):
            return self._encode_error(
                request_id,
                INVALID_REQUEST,
                "invalid request: expected an object with a string 'method' member",
            )
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            return self._encode_error(
                request_id, INVALID_PARAMS, "params must be an object"
            )
        handler = self._METHODS.get(method)
        if handler is None:
            return self._encode_error(
                request_id, METHOD_NOT_FOUND, f"unknown method {method!r}"
            )
        try:
            result = getattr(self, handler)(params)
        except _RpcError as exc:
            return self._encode_error(request_id, exc.code, exc.message)
        except WorkspaceError as exc:
            return self._encode_error(request_id, WORKSPACE_ERROR, str(exc))
        except OSError as exc:
            # ``save`` / ``load`` on a path the server cannot write or read:
            # the request fails, the session and its workspace stay up.
            return self._encode_error(request_id, IO_ERROR, f"{method}: {exc}")
        if request_id is None:
            return None  # notification: no response
        return json.dumps({"jsonrpc": "2.0", "id": request_id, "result": result})

    def handle_bytes(self, raw: bytes) -> Optional[str]:
        """:meth:`handle_line` for a line read as bytes: a line that is not
        UTF-8 gets a parse error."""
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return self._encode_error(None, PARSE_ERROR, f"parse error: not UTF-8 ({exc.reason})")
        return self.handle_line(line)

    @staticmethod
    def _encode_error(request_id, code: int, message: str) -> str:
        return json.dumps(
            {
                "jsonrpc": "2.0",
                "id": request_id,
                "error": {"code": code, "message": message},
            }
        )

    @staticmethod
    def _require(params: Dict[str, Any], key: str, kind=str):
        value = params.get(key)
        if not isinstance(value, kind):
            raise _RpcError(
                INVALID_PARAMS, f"missing or malformed {key!r} parameter"
            )
        return value

    @staticmethod
    def _optional(params: Dict[str, Any], key: str, kind, default):
        """``params[key]``, or ``default`` when it is absent or null."""
        value = params.get(key)
        if value is None:
            return default
        if not isinstance(value, kind):
            raise _RpcError(INVALID_PARAMS, f"malformed {key!r} parameter")
        return value

    # ------------------------------------------------------------------ methods

    def _ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "echo": params}

    def _open(self, params: Dict[str, Any]) -> Dict[str, Any]:
        source = self._require(params, "source")
        filename = self._optional(params, "filename", str, "") or "<rpc>"
        name = self._optional(params, "name", str, None)
        parsed = self.workspace.open(source, filename=filename, name=name)
        return {
            "parsed": parsed,
            "revision": self.workspace.revision,
            "parse_error": self.workspace.parse_error,
        }

    def _edit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        source = self._require(params, "source")
        parsed = self.workspace.edit(source)
        return {
            "parsed": parsed,
            "revision": self.workspace.revision,
            "parse_error": self.workspace.parse_error,
        }

    def _check(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.tool.report import report_to_dict

        flag = self._optional
        report = self.workspace.check(
            include_ifc=flag(params, "include_ifc", bool, True),
            infer=flag(params, "infer", bool, False),
            lint=flag(params, "lint", bool, False),
            explain_released_flows=flag(params, "explain_flows", bool, False),
        )
        payload = report_to_dict(report)
        payload["revision"] = self.workspace.revision
        payload["regen"] = self.workspace.stats()["regen"]
        return payload

    def _infer(self, params: Dict[str, Any]) -> Dict[str, Any]:
        result = self.workspace.infer()
        lattice = self.workspace.lattice
        return {
            "ok": result.ok,
            "assignment": {
                site.hint: lattice.format_label(site.label)
                for site in result.inferred
            },
            "diagnostics": [str(diag) for diag in result.diagnostics],
            "constraints": result.constraint_count,
            "variables": result.variable_count,
        }

    def _pin(self, params: Dict[str, Any]) -> Dict[str, Any]:
        slot = self._require(params, "slot")
        label = params.get("label")
        if label is not None and not isinstance(label, str):
            raise _RpcError(INVALID_PARAMS, "label must be a string or null")
        try:
            self.workspace.pin(slot, label)
        except Exception as exc:
            if isinstance(exc, WorkspaceError):
                raise
            raise _RpcError(INVALID_PARAMS, str(exc))
        return {"pins": self.workspace.stats()["pins"]}

    def _unsat_core(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"cores": self.workspace.unsat_cores()}

    def _witnesses(self, params: Dict[str, Any]) -> Dict[str, Any]:
        lattice = self.workspace.lattice
        return {
            "witnesses": [
                witness.describe(lattice) for witness in self.workspace.witnesses()
            ]
        }

    def _lint(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "findings": [
                {
                    "code": finding.code,
                    "severity": finding.severity.value,
                    "message": finding.message,
                    "span": str(finding.span),
                }
                for finding in self.workspace.lint()
            ]
        }

    def _stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return self.workspace.stats()

    def _save(self, params: Dict[str, Any]) -> Dict[str, Any]:
        path = self._require(params, "path")
        self.workspace.save(path)
        return {"saved": path, "revision": self.workspace.revision}

    def _load(self, params: Dict[str, Any]) -> Dict[str, Any]:
        path = self._require(params, "path")
        self.workspace = Workspace.load(path)
        return {
            "loaded": path,
            "revision": self.workspace.revision,
            "lattice": self.workspace.lattice.name,
        }

    def _shutdown(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.running = False
        return {"ok": True}

    # ------------------------------------------------------------- policy.*

    def _policy_session(self):
        if self._policy is None:
            raise _RpcError(
                WORKSPACE_ERROR, "no policy session open; call policy.open first"
            )
        return self._policy

    def _policy_open(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.lattice.base import LatticeError
        from repro.lattice.policy import PolicyLattice
        from repro.lattice.registry import get_lattice
        from repro.policy.engine import PolicyEngine
        from repro.policy.model import PolicyError
        from repro.synth.policy_traffic import policy_traffic, scenario_universe

        name = params.get("lattice", "policy-mini")
        if not isinstance(name, str):
            raise _RpcError(INVALID_PARAMS, "lattice must be a string")
        sizes = {}
        for key, (default, least, greatest) in (*POLICY_SIZES.items(), ("seed", (0, None, None))):
            value = params.get(key, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise _RpcError(INVALID_PARAMS, f"{key} must be an integer")
            if least is not None and not least <= value <= greatest:
                raise _RpcError(
                    INVALID_PARAMS, f"{key} must be between {least} and {greatest}"
                )
            sizes[key] = value
        try:
            lattice = get_lattice(name)
            if not isinstance(lattice, PolicyLattice):
                raise _RpcError(
                    INVALID_PARAMS,
                    f"lattice {name!r} is not a policy lattice; use "
                    f"policy-mini or policy-P-R-T",
                )
            universe = scenario_universe(
                lattice,
                subjects=sizes["subjects"],
                datasets=sizes["datasets"],
                seed=sizes["seed"],
            )
            events = policy_traffic(
                universe,
                events=sizes["events"],
                revoke_every=sizes["revoke_every"],
                seed=sizes["seed"],
            )
            engine = PolicyEngine(universe)
        except _RpcError:
            raise
        except (PolicyError, ValueError, LatticeError) as exc:
            raise _RpcError(WORKSPACE_ERROR, f"policy.open failed: {exc}")
        self._policy = (engine, events)
        self._policy_next_uid = sizes["events"]
        return {
            "opened": True,
            "events": len(events),
            **engine.stats(),
        }

    def _policy_request(self, params: Dict[str, Any]):
        from repro.policy.model import Request

        engine, events = self._policy_session()
        if "request" in params:
            uid = params["request"]
            if not isinstance(uid, int) or isinstance(uid, bool):
                raise _RpcError(INVALID_PARAMS, "request must be an event uid")
            for event in events:
                if event.uid == uid and event.request is not None:
                    return engine, event.request
            raise _RpcError(
                INVALID_PARAMS, f"event {uid} is not a request of this stream"
            )
        fields = {}
        for key in ("dataset", "purpose", "recipient", "retention"):
            fields[key] = self._require(params, key)
        kind = params.get("kind", "adhoc")
        if not isinstance(kind, str):
            raise _RpcError(INVALID_PARAMS, "kind must be a string")
        uid = self._policy_next_uid
        self._policy_next_uid += 1
        return engine, Request(uid, kind=kind, **fields)

    def _policy_decide(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.policy.model import PolicyError

        engine, request = self._policy_request(params)
        try:
            decision = engine.decide(request)
        except PolicyError as exc:
            raise _RpcError(WORKSPACE_ERROR, str(exc))
        return decision.as_dict(engine)

    def _policy_explain(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.policy.model import PolicyError

        engine, request = self._policy_request(params)
        try:
            explanation = engine.explain(request)
        except PolicyError as exc:
            raise _RpcError(WORKSPACE_ERROR, str(exc))
        lattice = engine.universe.lattice
        return {
            "decision": explanation.decision.as_dict(engine),
            "violated_subjects": list(explanation.violated_subjects),
            "witnesses": [
                witness.describe(lattice).splitlines()
                for witness in explanation.witnesses
            ],
        }

    def _policy_grant(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.lattice.base import LatticeError
        from repro.policy.model import PolicyError

        engine, _ = self._policy_session()
        subject = self._require(params, "subject")
        label_text = self._require(params, "label")
        lattice = engine.universe.lattice
        try:
            bound = lattice.parse_label(label_text)
        except LatticeError as exc:
            raise _RpcError(INVALID_PARAMS, str(exc))
        try:
            affected = engine.set_grant(subject, bound)
        except PolicyError as exc:
            raise _RpcError(WORKSPACE_ERROR, str(exc))
        return {
            "subject": subject,
            "bound": lattice.format_label(bound),
            "recompiled_datasets": list(affected),
        }

    def _policy_replay(self, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.policy.stream import replay

        engine, events = self._policy_session()
        limit = params.get("limit")
        if limit is not None and (
            not isinstance(limit, int) or isinstance(limit, bool) or limit < 1
        ):
            raise _RpcError(INVALID_PARAMS, "limit must be a positive integer")
        report = replay(engine, events[:limit] if limit else events)
        payload = report.as_dict()
        if params.get("log"):
            payload["log"] = report.decision_log()
        return payload

    def _policy_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        engine, events = self._policy_session()
        return {"events": len(events), **engine.stats()}


def serve_stdio(
    server: Optional[WorkspaceServer] = None,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
    **options,
) -> int:
    """Serve newline-delimited JSON-RPC over stdin/stdout until EOF or
    ``shutdown``."""
    server = server or WorkspaceServer(**options)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    for line in stdin:
        response = server.handle_line(line)
        if response is not None:
            stdout.write(response + "\n")
            stdout.flush()
        if not server.running:
            break
    return 0


def serve_stream(server: WorkspaceServer, rfile: BinaryIO, wfile: BinaryIO) -> None:
    """Serve newline-delimited JSON-RPC over a byte stream until EOF or
    ``shutdown``.  A line longer than :data:`MAX_LINE_BYTES` is answered
    with ``LINE_TOO_LONG`` and read past in pieces of at most that size."""
    while server.running:
        raw = rfile.readline(MAX_LINE_BYTES + 1)
        if not raw:
            break
        if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            while raw and not raw.endswith(b"\n"):
                raw = rfile.readline(MAX_LINE_BYTES + 1)
            response: Optional[str] = server._encode_error(
                None, LINE_TOO_LONG, f"request line longer than {MAX_LINE_BYTES} bytes"
            )
        else:
            response = server.handle_bytes(raw)
        if response is not None:
            wfile.write(response.encode("utf-8") + b"\n")
            wfile.flush()


def serve_tcp(host: str, port: int, **options) -> int:
    """Serve JSON-RPC over TCP; each connection gets its own workspace."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            serve_stream(WorkspaceServer(**options), self.rfile, self.wfile)

    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with Server((host, port), Handler) as srv:
        actual_host, actual_port = srv.server_address[:2]
        sys.stderr.write(f"p4bid serve: listening on {actual_host}:{actual_port}\n")
        sys.stderr.flush()
        try:
            srv.serve_forever()
        except KeyboardInterrupt:
            pass
    return 0
