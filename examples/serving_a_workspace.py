"""Serving a workspace: the ``p4bid serve`` JSON-RPC session front end.

Run with::

    python examples/serving_a_workspace.py

``p4bid serve`` keeps one long-lived :class:`~repro.workspace.Workspace`
behind a newline-delimited JSON-RPC 2.0 protocol (stdio by default,
``--tcp HOST:PORT`` for sockets).  The session stays *warm*: an ``edit``
re-walks only the top-level declarations the change can affect and
re-solves only the edit's cone of influence, so per-edit cost follows the
edit, not the program.

This script drives the exact server class the CLI runs -- request by
request, the way an editor plugin or CI harness would -- through an
edit-introduce-a-leak-and-fix-it session, then ``save``s it and ``load``s
the snapshot -- JSON holding the source, options and pins -- into a fresh
server, whose first check is a cold check of the saved source.
"""

import json

from repro.workspace.rpc import WorkspaceServer

SECURE = """
header req_t {
    <bit<32>, high> secret;
    <bit<32>, low>  cleartext;
    bit<32>         scratch;
}

struct headers { req_t req; }

control Ingress(inout headers hdr) {
    apply {
        hdr.req.scratch = hdr.req.secret;
        hdr.req.cleartext = 1;
    }
}
"""

# The edit a reviewer would flag: routing the secret-tainted scratch
# register into the cleartext field.
LEAKY = SECURE.replace("hdr.req.cleartext = 1;", "hdr.req.cleartext = hdr.req.scratch;")


def rpc(server: WorkspaceServer, request_id: int, method: str, **params):
    """One request/response exchange, printed the way the wire sees it."""
    request = {"jsonrpc": "2.0", "id": request_id, "method": method}
    if params:
        request["params"] = params
    response = json.loads(server.handle_line(json.dumps(request)))
    return response.get("result", response.get("error"))


def main() -> None:
    server = WorkspaceServer()  # the object behind `p4bid serve`

    print("== open: revision 1, secure ==")
    opened = rpc(server, 1, "open", source=SECURE, filename="demo.p4")
    print(f"parsed={opened['parsed']} revision={opened['revision']}")
    verdict = rpc(server, 2, "infer")
    print(f"ok={verdict['ok']} constraints={verdict['constraints']}")

    print("\n== edit: revision 2 introduces an explicit flow ==")
    rpc(server, 3, "edit", source=LEAKY)
    verdict = rpc(server, 4, "infer")
    print(f"ok={verdict['ok']}")
    for diagnostic in verdict["diagnostics"]:
        print(f"  {diagnostic}")

    print("\n== why: the unsatisfiable core and a leak witness ==")
    for core in rpc(server, 5, "unsat_core")["cores"]:
        for entry in core["core"]:
            print(f"  core: {entry['span']} [{entry['rule']}]")
    for witness in rpc(server, 6, "witnesses")["witnesses"]:
        print("  " + witness.replace("\n", "\n  "))

    print("\n== the edit was served warm ==")
    regen = rpc(server, 7, "stats")["regen"]
    print(
        f"units re-walked: {regen['units_rewalked']} of {regen['units_total']}"
        f" (reused {regen['units_reused']})"
    )

    print("\n== edit: revision 3 reverts the leak ==")
    rpc(server, 8, "edit", source=SECURE)
    print(f"ok={rpc(server, 9, 'infer')['ok']}")

    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "session.p4bidws")
        print("\n== save / load: source, options and pins round-trip ==")
        rpc(server, 10, "save", path=path)
        fresh = WorkspaceServer()
        loaded = rpc(fresh, 11, "load", path=path)
        print(f"loaded revision={loaded['revision']} lattice={loaded['lattice']}")
        print(f"ok={rpc(fresh, 12, 'infer')['ok']} (a cold check of the saved source)")

    rpc(server, 13, "shutdown")
    print("\nsession closed")


if __name__ == "__main__":
    main()
